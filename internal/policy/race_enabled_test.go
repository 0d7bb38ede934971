//go:build race

package policy

// raceEnabled gates allocation assertions: the race runtime changes
// sync.Pool and allocator behaviour, so alloc-gate tests still exercise
// their paths under -race but skip the numeric ceiling.
const raceEnabled = true
