//go:build !race

package policy

const raceEnabled = false
