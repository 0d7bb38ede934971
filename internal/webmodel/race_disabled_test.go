//go:build !race

package webmodel

const raceEnabled = false
