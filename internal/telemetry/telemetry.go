// Package telemetry is the runtime observability layer the allocation-free
// serve path can afford. Its write-side primitives — Counter and
// Histogram — are lock-free and allocation-free: Inc/Add/Observe touch one
// cache-line-padded atomic stripe and nothing else, mirroring the
// atomic-mirror pattern of core.Stats and keystore.Stats. The read side
// (Registry.WritePrometheus) assembles a Prometheus text-format exposition
// without ever stopping writers: scraping takes no lock the serve path can
// contend on, it only sums the stripes with atomic loads.
//
// Counters and histograms are striped by a per-goroutine hint derived from
// the current stack address, so goroutines on different cores land on
// different cache lines and a hot counter never serialises the fleet the way
// a single shared atomic would. A scrape therefore observes each stripe at a
// slightly different instant; totals are monotone and at most a handful of
// in-flight increments stale, which is exactly the consistency Prometheus
// scrapes assume.
package telemetry

import (
	"sync/atomic"
	"unsafe"
)

// counterStripes is the number of independent cache lines a Counter spreads
// its increments over. 16 stripes keep a globally hot counter (every request
// on every core) from ping-ponging one line between sockets while costing
// exactly 1 KiB per counter.
const counterStripes = 16

// stripeHint derives a cheap per-goroutine stripe selector from the address
// of a stack variable: distinct goroutines run on distinct stacks, so the
// mixed address declusters them across stripes without any runtime hook,
// thread-local or allocation. The address is consumed immediately (converted
// to uintptr, never stored), so the variable does not escape; a goroutine
// whose stack moves simply migrates to another stripe, which is harmless.
func stripeHint() uint64 {
	var b byte
	p := uint64(uintptr(unsafe.Pointer(&b)))
	p ^= p >> 33
	p *= 0x9e3779b97f4a7c15
	return p >> 48
}

// counterStripe is one padded counter cell: the value plus enough padding to
// keep neighbouring stripes on separate cache lines.
type counterStripe struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotone counter safe for concurrent use. Inc and Add are
// lock-free and allocation-free; Value sums the stripes. The zero value is
// ready to use, and a nil *Counter is a no-op so optional instrumentation
// never needs guarding.
type Counter struct {
	stripes [counterStripes]counterStripe
}

// NewCounter returns a new Counter.
func NewCounter() *Counter { return new(Counter) }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are the caller's mistake; Prometheus
// counters must be monotone).
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.stripes[stripeHint()%counterStripes].n.Add(delta)
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.stripes {
		total += c.stripes[i].n.Load()
	}
	return total
}
