package telemetry

import (
	"testing"
	"time"
)

// The whole point of the package is that the serve path can call these on
// every request: each write-side primitive is pinned at exactly zero
// allocations per operation.

func TestCounterIncAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	c := NewCounter()
	if avg := testing.AllocsPerRun(1000, c.Inc); avg != 0 {
		t.Fatalf("Counter.Inc allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { c.Add(3) }); avg != 0 {
		t.Fatalf("Counter.Add allocates %.1f/op, want 0", avg)
	}
}

func TestHistogramObserveAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	h := NewHistogram()
	if avg := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Microsecond) }); avg != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op, want 0", avg)
	}
	start := time.Now()
	if avg := testing.AllocsPerRun(1000, func() { h.ObserveSince(start) }); avg != 0 {
		t.Fatalf("Histogram.ObserveSince allocates %.1f/op, want 0", avg)
	}
}

func TestNilInstrumentsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	var c *Counter
	var h *Histogram
	if avg := testing.AllocsPerRun(1000, func() { c.Inc(); h.Observe(time.Millisecond) }); avg != 0 {
		t.Fatalf("nil instrument calls allocate %.1f/op, want 0", avg)
	}
}
