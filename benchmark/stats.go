package main

import (
	"math"
	"sort"

	"botdetect/internal/rng"
)

// median returns the median of vs (0 for an empty slice). vs is not modified.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by the nearest-rank rule on a sorted
// copy: the smallest value with at least q·n values at or below it.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// tailLadder are the percentiles a tail metric may be reported at.
var tailLadder = []float64{0.50, 0.75, 0.90, 0.95, 0.99}

// tailPercentile picks the highest percentile of the ladder that still has at
// least ten samples beyond it in a sample of n, so a reported tail is never
// one or two outliers. A p99 therefore needs n ≥ 1000; smaller samples fall
// back down the ladder and the caller states which percentile it got.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		beyond := n - int(math.Ceil(p*float64(n)))
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

// tail returns the tail-percentile value of vs and the percentile used.
func tail(vs []float64) (value, pct float64) {
	pct = tailPercentile(len(vs))
	return quantile(vs, pct), pct
}

// iqrShare is the distance between the first and third quartiles as a share
// of the median — the spread measure the acceptance rule uses. The quartiles
// follow Python's statistics.quantiles(values, n=4) (exclusive method).
func iqrShare(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q1, q3 := exclusiveQuantile(s, 1, 4), exclusiveQuantile(s, 3, 4)
	m := exclusiveQuantile(s, 2, 4)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// exclusiveQuantile is the i-th of n cut points of sorted data, interpolated
// the way Python's default (exclusive) method does.
func exclusiveQuantile(s []float64, i, n int) float64 {
	ld := len(s)
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// shuffledShares returns n draws in which item i appears in proportion to
// weights[i] as exactly as n allows (largest remainders first), in an order
// the source decides. A workload that draws its documents this way lets the
// seed move the order of the work but not its mix, so bytes per request —
// which every number of a byte-bound workload follows — hold still from seed
// to seed.
func shuffledShares(src *rng.Source, weights []float64, n int) []int {
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := make([]int, len(weights))
	order := make([]int, len(weights))
	rest := make([]float64, len(weights))
	given := 0
	for i, w := range weights {
		exact := w / total * float64(n)
		counts[i] = int(exact)
		rest[i] = exact - float64(counts[i])
		order[i] = i
		given += counts[i]
	}
	sort.SliceStable(order, func(a, b int) bool { return rest[order[a]] > rest[order[b]] })
	for _, i := range order[:n-given] {
		counts[i]++
	}
	draws := make([]int, 0, n)
	for i, c := range counts {
		for ; c > 0; c-- {
			draws = append(draws, i)
		}
	}
	src.Shuffle(len(draws), func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })
	return draws
}
