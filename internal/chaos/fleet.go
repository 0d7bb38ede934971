// Fleet-level fault injection: message-layer faults (partitions, delays,
// drops, duplicates, failures) through a fleet.Intercept, and node-level
// faults (crash/restart) over a registry of crashable nodes. Both follow the
// package's switchboard convention — atomics and small locked tables that a
// chaos scenario flips while replication traffic is in flight.
package chaos

import (
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/fleet"
)

// Links injects faults into a replication mesh. Install it with
// mesh.SetIntercept(links.Intercept); the zero value (via NewLinks) delivers
// everything untouched.
type Links struct {
	mu          sync.RWMutex
	partitioned map[[2]string]bool // directed from→to cut links

	delayNanos atomic.Int64 // imposed on every delivered message
	dropNext   atomic.Int64 // budget of silent drops
	failNext   atomic.Int64 // budget of erroring sends
	dupNext    atomic.Int64 // budget of duplicated deliveries

	delivered atomic.Int64
	dropped   atomic.Int64
	failed    atomic.Int64
	duped     atomic.Int64
	cut       atomic.Int64 // messages swallowed by a partition
}

// NewLinks creates a transparent link switchboard.
func NewLinks() *Links {
	return &Links{partitioned: make(map[[2]string]bool)}
}

// PartitionOneWay cuts the directed link from→to: messages silently vanish,
// exactly like an asymmetric network partition (from can still hear to).
func (l *Links) PartitionOneWay(from, to string) {
	l.mu.Lock()
	l.partitioned[[2]string{from, to}] = true
	l.mu.Unlock()
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

// SetDelay imposes d of link latency on every delivered message (0 clears
// it): the mesh holds the message until a Step at or after its due time.
func (l *Links) SetDelay(d time.Duration) { l.delayNanos.Store(int64(d)) }

// DropNext silently discards the next n messages (success reported to the
// sender — the shape anti-entropy exists to repair).
func (l *Links) DropNext(n int) { l.dropNext.Store(int64(n)) }

// FailNext makes the next n sends error, so senders retry with backoff.
func (l *Links) FailNext(n int) { l.failNext.Store(int64(n)) }

// DupNext delivers the next n messages twice (exercises merge idempotency).
func (l *Links) DupNext(n int) { l.dupNext.Store(int64(n)) }

// LinkStats is a snapshot of the injector's counters.
type LinkStats struct {
	Delivered, Dropped, Failed, Duped, Cut int64
}

// Stats returns the counters.
func (l *Links) Stats() LinkStats {
	return LinkStats{
		Delivered: l.delivered.Load(),
		Dropped:   l.dropped.Load(),
		Failed:    l.failed.Load(),
		Duped:     l.duped.Load(),
		Cut:       l.cut.Load(),
	}
}

// Intercept is the fleet.Intercept deciding each message's fate. Partitions
// take precedence (a cut link swallows everything), then the drop, fail and
// dup budgets spend in that order.
func (l *Links) Intercept(from, to string, msg *fleet.Message) (fleet.Fate, time.Duration) {
	l.mu.RLock()
	cut := l.partitioned[[2]string{from, to}]
	l.mu.RUnlock()
	if cut {
		l.cut.Add(1)
		return fleet.FateDrop, 0
	}
	delay := time.Duration(l.delayNanos.Load())
	if spend(&l.dropNext) {
		l.dropped.Add(1)
		return fleet.FateDrop, delay
	}
	if spend(&l.failNext) {
		l.failed.Add(1)
		return fleet.FateFail, delay
	}
	if spend(&l.dupNext) {
		l.duped.Add(1)
		return fleet.FateDup, delay
	}
	l.delivered.Add(1)
	return fleet.FateDeliver, delay
}

// spend consumes one unit of a fault budget if any remains.
func spend(budget *atomic.Int64) bool {
	for {
		n := budget.Load()
		if n <= 0 {
			return false
		}
		if budget.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// Crashable is a node the fault injector can kill and revive —
// cdn.Node implements it.
type Crashable interface {
	Name() string
	Crash()
	Restart()
	Down() bool
}

// NodeFaults drives crash/restart faults over a set of registered nodes.
type NodeFaults struct {
	mu    sync.Mutex
	nodes map[string]Crashable

	crashes  atomic.Int64
	restarts atomic.Int64
}

// NewNodeFaults creates an empty node-fault registry.
func NewNodeFaults() *NodeFaults {
	return &NodeFaults{nodes: make(map[string]Crashable)}
}

// Register adds a node to the registry.
func (f *NodeFaults) Register(n Crashable) {
	f.mu.Lock()
	f.nodes[n.Name()] = n
	f.mu.Unlock()
}

// Crash kills the named node (no-op when unknown or already down). It
// reports whether a crash happened.
func (f *NodeFaults) Crash(name string) bool {
	f.mu.Lock()
	n := f.nodes[name]
	f.mu.Unlock()
	if n == nil || n.Down() {
		return false
	}
	n.Crash()
	f.crashes.Add(1)
	return true
}

// Restart revives the named node (no-op when unknown or already up).
func (f *NodeFaults) Restart(name string) bool {
	f.mu.Lock()
	n := f.nodes[name]
	f.mu.Unlock()
	if n == nil || !n.Down() {
		return false
	}
	n.Restart()
	f.restarts.Add(1)
	return true
}

// RestartAll revives every down node and returns how many came back.
func (f *NodeFaults) RestartAll() int {
	f.mu.Lock()
	names := make([]string, 0, len(f.nodes))
	for name := range f.nodes {
		names = append(names, name)
	}
	f.mu.Unlock()
	n := 0
	for _, name := range names {
		if f.Restart(name) {
			n++
		}
	}
	return n
}

// Counts returns (crashes, restarts) performed so far.
func (f *NodeFaults) Counts() (int64, int64) {
	return f.crashes.Load(), f.restarts.Load()
}
