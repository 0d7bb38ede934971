//go:build race

package experiments

// raceEnabled skips the full-scale paper golden: under the race runtime the
// twelve experiments take minutes instead of seconds.
const raceEnabled = true
