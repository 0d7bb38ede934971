//go:build race

package fleet

// raceEnabled shortens the exhaustive enumeration: the race detector has one
// goroutine to watch there and costs it an order of magnitude.
const raceEnabled = true
