// Fleet-level fault injection: network partitions through a fleet.Intercept,
// following the package's switchboard convention — a small locked table that
// a chaos scenario flips while replication traffic is in flight.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/fleet"
)

// Links cuts links of a replication mesh. Install it with
// mesh.SetIntercept(links.Intercept); a new one (NewLinks) delivers
// everything untouched.
type Links struct {
	mu          sync.RWMutex
	partitioned map[[2]string]bool // directed from→to cut links
	cut         atomic.Int64       // messages swallowed by a partition
}

// NewLinks creates a transparent link switchboard.
func NewLinks() *Links {
	return &Links{partitioned: make(map[[2]string]bool)}
}

// Partition cuts both directions between the two sides: every node in a is
// unreachable from every node in b and vice versa.
func (l *Links) Partition(a, b []string) {
	l.mu.Lock()
	for _, x := range a {
		for _, y := range b {
			l.partitioned[[2]string{x, y}] = true
			l.partitioned[[2]string{y, x}] = true
		}
	}
	l.mu.Unlock()
}

// Heal reconnects every cut link.
func (l *Links) Heal() {
	l.mu.Lock()
	clear(l.partitioned)
	l.mu.Unlock()
}

// CutMessages returns the number of messages a partition swallowed.
func (l *Links) CutMessages() int64 { return l.cut.Load() }

// Intercept is the fleet.Intercept deciding each message's fate: a cut link
// swallows it, anything else is delivered at once.
func (l *Links) Intercept(from, to string, _ *fleet.Message) (fleet.Fate, time.Duration) {
	l.mu.RLock()
	cut := l.partitioned[[2]string{from, to}]
	l.mu.RUnlock()
	if cut {
		l.cut.Add(1)
		return fleet.FateDrop, 0
	}
	return fleet.FateDeliver, 0
}
