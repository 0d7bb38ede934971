//go:build race

package shard

// raceEnabled shortens the enumeration: the race runtime makes each step
// far slower and a one-goroutine walk has no race to find.
const raceEnabled = true
