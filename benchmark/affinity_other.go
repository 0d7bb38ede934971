//go:build !linux

package main

import (
	"errors"
	"time"
)

var errNoAffinity = errors.New("cpu affinity is only supported on linux")

func allowedCPUs() ([]int, error) { return nil, errNoAffinity }

func pinSelf([]int) error { return errNoAffinity }

func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }
