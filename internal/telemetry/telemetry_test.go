package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterConcurrentSum(t *testing.T) {
	c := NewCounter()
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("Value() = %d, want %d", got, workers*each)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var h *Histogram
	c.Inc()
	c.Add(5)
	h.Observe(time.Millisecond)
	h.ObserveSince(time.Now())
	if c.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must read zero")
	}
}

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram()
	h.Observe(500 * time.Nanosecond)  // bucket 0 (le 1 µs)
	h.Observe(1500 * time.Nanosecond) // bucket 1 (le 2 µs)
	h.Observe(3 * time.Millisecond)   // bucket 12 (le 4096 µs)
	h.Observe(2 * time.Minute)        // +Inf overflow
	h.Observe(-time.Second)           // clamped to 0, bucket 0

	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	wantSum := 500*time.Nanosecond + 1500*time.Nanosecond + 3*time.Millisecond + 2*time.Minute
	if s.Sum != wantSum {
		t.Fatalf("Sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[12] != 1 || s.Buckets[NumBuckets] != 1 {
		t.Fatalf("bucket placement wrong: %v", s.Buckets)
	}
	// The p50 target rank is ⌈0.5·5⌉ = 3, reached in bucket 1: bound 2 µs.
	if got := s.Quantile(0.5); got != 2*time.Microsecond {
		t.Fatalf("Quantile(0.5) = %v, want 2µs", got)
	}
	// The p99 lands in the overflow bucket: the sentinel distinguishes "past
	// the measurable range" from a genuine last-finite-bucket observation.
	if got := s.Quantile(0.99); got != OverflowBound {
		t.Fatalf("Quantile(0.99) = %v, want overflow sentinel %v", got, OverflowBound)
	}
	if d, ok := s.QuantileOK(0.99); ok || d != BucketBound(NumBuckets-1) {
		t.Fatalf("QuantileOK(0.99) = (%v, %v), want floor %v and ok=false", d, ok, BucketBound(NumBuckets-1))
	}
	if d, ok := s.QuantileOK(0.5); !ok || d != 2*time.Microsecond {
		t.Fatalf("QuantileOK(0.5) = (%v, %v), want (2µs, true)", d, ok)
	}
	if OverflowBound <= BucketBound(NumBuckets-1) {
		t.Fatal("OverflowBound must exceed every finite bucket bound")
	}
}

func TestBucketBound(t *testing.T) {
	if got := BucketBound(0); got != time.Microsecond {
		t.Fatalf("BucketBound(0) = %v", got)
	}
	if got := BucketBound(10); got != 1024*time.Microsecond {
		t.Fatalf("BucketBound(10) = %v", got)
	}
	if BucketBound(-1) != time.Microsecond || BucketBound(NumBuckets+5) != BucketBound(NumBuckets-1) {
		t.Fatal("BucketBound must clamp out-of-range indexes")
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := Label("kind", "a\"b\\c\nd"); got != `kind="a\"b\\c\nd"` {
		t.Fatalf("Label() = %s", got)
	}
	if got := Join(Label("a", "1"), "", Label("b", "2")); got != `a="1",b="2"` {
		t.Fatalf("Join() = %s", got)
	}
	if got := Join("", ""); got != "" {
		t.Fatalf("Join of empties = %q", got)
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge type clash")
		}
	}()
	reg := NewRegistry()
	reg.Counter("clash_total", "", "h", NewCounter())
	reg.GaugeFunc("clash_total", "h", func(func(string, float64)) {})
}

// TestWritePrometheusGolden pins the exposition byte-for-byte: family
// ordering (sorted by name), help and label escaping, cumulative histogram
// buckets with the fixed le bounds, integer-vs-float value formatting.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter()
	c.Add(41)
	c.Inc()
	reg.Counter("test_requests_total", "", "Total requests.", c)
	reg.CounterFunc("test_labeled_total", Label("kind", "we\"ird\\"), "Labeled.", func() float64 { return 7 })
	reg.GaugeFunc("test_active", "Active\nthings.", func(emit func(string, float64)) { emit("", 3) })
	h := NewHistogram()
	h.Observe(500 * time.Nanosecond)
	h.Observe(1500 * time.Nanosecond)
	h.Observe(3 * time.Millisecond)
	reg.Histogram("test_latency_seconds", "", "Latency.", h)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_active Active\nthings.
# TYPE test_active gauge
test_active 3
# HELP test_labeled_total Labeled.
# TYPE test_labeled_total counter
test_labeled_total{kind="we\"ird\\"} 7
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="1e-06"} 1
test_latency_seconds_bucket{le="2e-06"} 2
test_latency_seconds_bucket{le="4e-06"} 2
test_latency_seconds_bucket{le="8e-06"} 2
test_latency_seconds_bucket{le="1.6e-05"} 2
test_latency_seconds_bucket{le="3.2e-05"} 2
test_latency_seconds_bucket{le="6.4e-05"} 2
test_latency_seconds_bucket{le="0.000128"} 2
test_latency_seconds_bucket{le="0.000256"} 2
test_latency_seconds_bucket{le="0.000512"} 2
test_latency_seconds_bucket{le="0.001024"} 2
test_latency_seconds_bucket{le="0.002048"} 2
test_latency_seconds_bucket{le="0.004096"} 3
test_latency_seconds_bucket{le="0.008192"} 3
test_latency_seconds_bucket{le="0.016384"} 3
test_latency_seconds_bucket{le="0.032768"} 3
test_latency_seconds_bucket{le="0.065536"} 3
test_latency_seconds_bucket{le="0.131072"} 3
test_latency_seconds_bucket{le="0.262144"} 3
test_latency_seconds_bucket{le="0.524288"} 3
test_latency_seconds_bucket{le="1.048576"} 3
test_latency_seconds_bucket{le="2.097152"} 3
test_latency_seconds_bucket{le="4.194304"} 3
test_latency_seconds_bucket{le="8.388608"} 3
test_latency_seconds_bucket{le="16.777216"} 3
test_latency_seconds_bucket{le="33.554432"} 3
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 0.003002
test_latency_seconds_count 3
# HELP test_requests_total Total requests.
# TYPE test_requests_total counter
test_requests_total 42
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestScrapeReentrantRegistration pins that a scrape-time collector callback
// may register new metrics on the same registry without deadlocking: the
// render loop runs with the registry mutex released. The late registration
// becomes visible from the next scrape.
func TestScrapeReentrantRegistration(t *testing.T) {
	reg := NewRegistry()
	registered := false
	reg.CounterFunc("reentrant_total", "", "h", func() float64 {
		if !registered {
			registered = true
			reg.CounterFunc("late_total", "", "h", func() float64 { return 1 })
		}
		return 1
	})
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "reentrant_total 1") {
		t.Fatalf("first scrape missing reentrant_total:\n%s", sb.String())
	}
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "late_total 1") {
		t.Fatalf("second scrape missing lazily registered late_total:\n%s", sb.String())
	}
}

// TestScrapeWhileWriting hammers every write-side primitive from many
// goroutines while the registry renders continuously. Run under -race this
// is the writers-vs-scraper data-race check; in any mode it verifies the
// scrape observes monotone totals.
func TestScrapeWhileWriting(t *testing.T) {
	reg := NewRegistry()
	c := NewCounter()
	var g atomic.Int64
	h := NewHistogram()
	reg.Counter("hammer_total", "", "h", c)
	reg.GaugeFunc("hammer_active", "h", func(emit func(string, float64)) { emit("", float64(g.Load())) })
	reg.Histogram("hammer_seconds", "", "h", h)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Store(n)
				h.Observe(time.Duration(n) * time.Microsecond)
			}
		}(int64(i + 1))
	}

	var last int64
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		total := c.Value()
		if total < last {
			t.Fatalf("counter went backwards: %d after %d", total, last)
		}
		last = total
		s := h.Snapshot()
		var cum int64
		for _, b := range s.Buckets {
			cum += b
		}
		if cum != s.Count {
			t.Fatalf("snapshot buckets sum %d != count %d", cum, s.Count)
		}
	}
	close(stop)
	wg.Wait()
}
