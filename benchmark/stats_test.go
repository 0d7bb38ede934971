package main

import (
	"math"
	"slices"
	"testing"

	"botdetect/internal/rng"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.50}, {19, 0.50}, {20, 0.50}, {40, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {999, 0.95}, {1000, 0.99}, {50000, 0.99},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("n=%d: percentile %v, want %v", c.n, got, c.want)
		}
		if beyond := c.n - int(math.Ceil(got*float64(c.n))); c.n >= 20 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, got*100)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for q, want := range map[float64]float64{0: 1, 0.1: 1, 0.25: 3, 0.5: 5, 0.75: 8, 0.99: 10, 1: 10} {
		if got := quantile(vs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if vs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

// Python: statistics.quantiles([2.0,4.0,4.0,5.0,7.0,9.0,10.0,12.0,15.0,20.0], n=4)
// gives [4.0, 8.0, 12.75]; the spread is (12.75-4)/8.
func TestIQRShareMatchesPython(t *testing.T) {
	vs := []float64{20, 2, 4, 4, 5, 7, 9, 10, 12, 15}
	if got, want := iqrShare(vs), (12.75-4.0)/8.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
}

// The draws hold every item in proportion to its weight, to the nearest
// whole draw, whatever the seed; only their order follows the seed.
func TestShuffledShares(t *testing.T) {
	weights := []float64{5, 3, 1.5, 0.5}
	a := shuffledShares(rng.New(1), weights, 1000)
	b := shuffledShares(rng.New(2), weights, 1000)
	count := func(draws []int) [4]int {
		var c [4]int
		for _, d := range draws {
			c[d]++
		}
		return c
	}
	if got, want := count(a), [4]int{500, 300, 150, 50}; got != want {
		t.Errorf("counts %v, want %v", got, want)
	}
	if count(a) != count(b) {
		t.Errorf("seeds 1 and 2 drew different mixes: %v, %v", count(a), count(b))
	}
	if slices.Equal(a, b) {
		t.Error("seeds 1 and 2 drew in the same order")
	}
	// Shares that do not divide: the draws still add up, largest remainders first.
	if got, want := count(shuffledShares(rng.New(1), []float64{1, 1, 1, 0}, 100)), [4]int{34, 33, 33, 0}; got != want {
		t.Errorf("thirds of 100: %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 102}
	noisy := []float64{80, 100, 120, 90, 130}
	setup := gate{better: "lower", bound: 0.25, slack: setupSlack}
	for _, c := range []struct {
		name   string
		gate   gate
		base   []float64
		change []float64
		want   string
	}{
		{"same", gate{better: "lower", bound: 0.10}, tight, tight, "ok"},
		{"slower within bound", gate{better: "lower", bound: 0.10}, tight, []float64{108, 109, 107, 108, 110}, "ok"},
		{"slower past bound", gate{better: "lower", bound: 0.10}, tight, []float64{115, 116, 114, 115, 117}, "worse"},
		{"throughput lost", gate{better: "higher", bound: 0.10}, tight, []float64{85, 86, 84, 85, 87}, "worse"},
		{"throughput gained", gate{better: "higher", bound: 0.10}, tight, []float64{130, 131, 129}, "ok"},
		{"base too noisy to tell", gate{better: "lower", bound: 0.10}, noisy, []float64{118, 119, 117}, "unresolved"},
		{"noisy base, clean win", gate{better: "lower", bound: 0.10}, noisy, []float64{70, 71, 69}, "ok"},
		{"zero base, any rise is worse", gate{better: "lower", bound: 0.01}, []float64{0, 0, 0}, []float64{0.01, 0.01, 0}, "worse"},
		{"set-up wobble under the slack", setup, []float64{0.020, 0.021, 0.019}, []float64{0.040, 0.050, 0.045}, "ok"},
		{"set-up past 25 % and 0.2 s", setup, []float64{0.020, 0.021, 0.019}, []float64{0.40, 0.50, 0.45}, "worse"},
		{"long set-up past 0.2 s, within 25 %", setup, []float64{2.0, 2.1, 1.9}, []float64{2.3, 2.35, 2.25}, "ok"},
	} {
		if got, _ := c.gate.verdict(c.base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestExactVerdict(t *testing.T) {
	g := gate{better: "higher", exact: true}
	base := []float64{0.95, 0.96, 0.97}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"identical", base, "ok"},
		{"one run lower", []float64{0.95, 0.955, 0.97}, "worse"},
		{"all runs higher", []float64{0.96, 0.97, 0.98}, "ok"},
		{"fewer runs, same median", []float64{0.96, 0.96}, "ok"},
		{"fewer runs, lower median", []float64{0.95, 0.95}, "worse"},
	} {
		if got, _ := g.exactVerdict(base, c.change); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// A metric only one side measured is unresolved, a count that rose is worse,
// and a workload neither side ran has no rows.
func TestCompareSets(t *testing.T) {
	decl := &declaration{EndToEnd: []metricDecl{{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.1}}}
	for _, w := range []string{"browse_hot", "codeen_mix"} {
		decl.Workloads = append(decl.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{Name: w})
	}
	run := func(kv ...any) map[string]metric {
		m := make(map[string]metric)
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = metric{Value: kv[i+1].(float64)}
		}
		return m
	}
	base := &resultFile{Workloads: map[string][]map[string]metric{
		"codeen_mix": {run("rss_peak_mb", 100.0, "failed", 0.0, "quality.robot_caught_ratio", 1.0)},
	}}
	change := &resultFile{Workloads: map[string][]map[string]metric{
		"codeen_mix": {run("rss_peak_mb", 101.0, "failed", 2.0)},
	}}
	got := make(map[string]string)
	for _, r := range compareSets(decl, base, change) {
		if r.workload != "codeen_mix" {
			t.Errorf("row for %s, which neither side ran", r.workload)
		}
		got[r.gate.name] = r.status
	}
	for name, want := range map[string]string{
		"rss_peak_mb": "ok", "failed": "worse",
		"quality.robot_caught_ratio": "unresolved", // only the base has it
		"quality.human_ok_ratio":     "unresolved", // neither has it, and codeen_mix should
	} {
		if got[name] != want {
			t.Errorf("%s: %q, want %q", name, got[name], want)
		}
	}
}
