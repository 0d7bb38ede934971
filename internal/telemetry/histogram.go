package telemetry

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of finite histogram buckets. Bucket i has the
// Prometheus upper bound le = 2^i microseconds, so the finite range spans
// 1 µs to ~33.6 s in doubling steps — wide enough for a beacon handled in
// nanoseconds and a retrain that takes seconds — and the bucket index is a
// single bits.Len64, no search. Observations past the last finite bound land
// in the implicit +Inf bucket.
const NumBuckets = 26

// histStripes is the number of independent bucket arrays a Histogram spreads
// observations over (same motivation as Counter's stripes: Observe on every
// core must not share cache lines).
const histStripes = 4

// histStripe is one padded bucket array: 26 finite buckets, the overflow
// bucket and the running sum, padded to a multiple of the cache line.
type histStripe struct {
	buckets [NumBuckets + 1]atomic.Int64
	sumNs   atomic.Int64
	_       [32]byte
}

// Histogram is a fixed-bucket, log-spaced latency histogram safe for
// concurrent use. Observe is lock-free and allocation-free: one bits.Len64,
// two atomic adds. The zero value is ready to use; a nil *Histogram is a
// no-op. Values at an exact power-of-two boundary are credited to the next
// bucket up — cumulative bucket counts stay valid, the bound is just
// conservative by one step, the usual trade for a shift-indexed histogram.
type Histogram struct {
	stripes [histStripes]histStripe
}

// NewHistogram returns a new Histogram.
func NewHistogram() *Histogram { return new(Histogram) }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	idx := bits.Len64(uint64(ns) / 1000)
	if idx > NumBuckets {
		idx = NumBuckets
	}
	st := &h.stripes[stripeHint()%histStripes]
	st.buckets[idx].Add(1)
	st.sumNs.Add(ns)
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start))
}

// Snapshot is a point-in-time copy of a histogram's state, assembled from
// atomic loads without stopping writers.
type Snapshot struct {
	// Buckets holds the per-bucket (non-cumulative) observation counts;
	// Buckets[NumBuckets] is the overflow (+Inf) bucket.
	Buckets [NumBuckets + 1]int64
	// Count is the total number of observations.
	Count int64
	// Sum is the sum of all observed durations.
	Sum time.Duration
}

// Snapshot sums the stripes into a consistent-enough view: each stripe is
// read atomically, so totals are monotone across scrapes even while writers
// race the reader.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.stripes {
		st := &h.stripes[i]
		for b := range st.buckets {
			s.Buckets[b] += st.buckets[b].Load()
		}
		s.Sum += time.Duration(st.sumNs.Load())
	}
	for _, n := range s.Buckets {
		s.Count += n
	}
	return s
}

// OverflowBound is the sentinel Quantile reports when the requested quantile
// lands in the overflow (+Inf) bucket: one doubling past the last finite
// bound (~67 s), so it is greater than every finite BucketBound and a
// dashboard can tell "past the measurable range" (a wedged retrain, a
// stalled rewrite) apart from "genuinely ~33 s". Use QuantileOK to branch on
// overflow explicitly.
const OverflowBound = time.Microsecond << NumBuckets

// Quantile estimates the q-quantile (0 < q ≤ 1) as the upper bound of the
// bucket where the cumulative count crosses q·Count. With doubling buckets
// the estimate is at most 2× the true value — the right resolution for
// watching a p99 move, not for microbenchmark arithmetic. A quantile that
// lands in the overflow bucket reports OverflowBound rather than silently
// clamping to the last finite bound.
func (s Snapshot) Quantile(q float64) time.Duration {
	d, ok := s.QuantileOK(q)
	if !ok {
		return OverflowBound
	}
	return d
}

// QuantileOK is Quantile with an explicit overflow signal: ok is false when
// the requested quantile lies beyond the last finite bucket bound, in which
// case the returned duration (the last finite bound) is a floor on the true
// value, not an estimate of it.
func (s Snapshot) QuantileOK(q float64) (time.Duration, bool) {
	if s.Count == 0 {
		return 0, true
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			if i >= NumBuckets {
				break
			}
			return BucketBound(i), true
		}
	}
	return BucketBound(NumBuckets - 1), false
}

// BucketBound returns the upper bound of bucket i (1 µs << i), clamping
// out-of-range indexes to the finite range.
func BucketBound(i int) time.Duration {
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	if i < 0 {
		i = 0
	}
	return time.Microsecond << uint(i)
}

// bucketLE holds the pre-rendered Prometheus le label values for every
// finite bucket, in seconds ("1e-06", "2e-06", ...), plus "+Inf".
var bucketLE = func() [NumBuckets + 1]string {
	var out [NumBuckets + 1]string
	for i := 0; i < NumBuckets; i++ {
		out[i] = strconv.FormatFloat(BucketBound(i).Seconds(), 'g', -1, 64)
	}
	out[NumBuckets] = "+Inf"
	return out
}()
