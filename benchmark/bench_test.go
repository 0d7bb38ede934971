package main

import (
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"testing"
)

// streamHash replays a small instance of a workload bare and returns the hash
// of the request stream it issued, with the request count.
func streamHash(t *testing.T, workload string, seed uint64) (uint64, int) {
	t.Helper()
	var spec replaySpec
	switch workload {
	case "browse_hot":
		spec = newBrowse(seed, 0.5).replaySpec(0.5)
	case "churn_cold":
		spec = newChurn(seed).replaySpec(0.2)
	case "bigpage_origin":
		spec = newBigpage(seed).replaySpec(0.2)
	case "codeen_mix":
		spec = codeenSpec(seed, 40)
	}
	p := spec.run(false)
	defer p.close()
	if p.client.count == 0 {
		t.Fatalf("%s: the replay issued no requests", workload)
	}
	return p.client.hash, p.client.count
}

func TestRequestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, n := streamHash(t, w, 11)
		b, m := streamHash(t, w, 11)
		if a != b || n != m {
			t.Errorf("%s: seed 11 gave stream %016x (%d requests), then %016x (%d)", w, a, n, b, m)
		}
		if c, _ := streamHash(t, w, 12); c == a {
			t.Errorf("%s: seeds 11 and 12 gave the same stream %016x", w, a)
		}
	}
}

// A ledgered replay must leave the shadow engines in the surface engines'
// state: same keys issued, same beacon verdicts.
func TestShadowStaysInStep(t *testing.T) {
	for name, spec := range map[string]replaySpec{
		"browse_hot": newBrowse(3, 0.5).replaySpec(0.5),
		"codeen_mix": codeenSpec(3, 60),
	} {
		p := spec.run(true)
		if !p.synced {
			t.Errorf("%s: shadow out of step with the surface", name)
		}
		if sums, _ := p.tr.childSums("ledger.request", "core.prepare_page"); len(sums) == 0 {
			t.Errorf("%s: no page request reached the ledger", name)
		}
		p.close()
	}
}

var (
	smokeOnce    sync.Once
	smokeResults map[string][2]result // per workload: end-to-end run, traced run
	smokeErr     error
	smokeSkip    string
)

// smoke runs every workload once untraced and once traced, at smoke size,
// against a botproxy built from this checkout.
func smoke(t *testing.T) map[string][2]result {
	t.Helper()
	smokeOnce.Do(func() {
		if runtime.GOOS != "linux" || runtime.NumCPU() < 2 {
			smokeSkip = "the benchmark needs linux and two CPUs"
			return
		}
		root, err := repoRoot()
		if err != nil {
			smokeErr = err
			return
		}
		plan, err := planCPUs()
		if err != nil {
			smokeSkip = err.Error()
			return
		}
		bin, err := buildProxy(root)
		if err != nil {
			smokeErr = err
			return
		}
		smokeResults = make(map[string][2]result)
		for _, w := range workloadNames {
			var pair [2]result
			for i, trace := range []bool{false, true} {
				pair[i], err = runWorkload(bin, plan, options{workload: w, seed: 2006, seconds: 1, trace: trace, smoke: true})
				if err != nil {
					smokeErr = err
					return
				}
			}
			smokeResults[w] = pair
		}
	})
	if smokeSkip != "" {
		t.Skip(smokeSkip)
	}
	if smokeErr != nil {
		t.Fatal(smokeErr)
	}
	return smokeResults
}

func TestSmokeRunIsCorrect(t *testing.T) {
	for w, pair := range smoke(t) {
		for i, r := range pair {
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s (trace %d): correct %v, attempted %d, failed %d", w, i, r.Correct, r.Attempted, r.Failed)
			}
		}
	}
}

// Every metric a run prints is declared in BENCHMARK.json with the same
// unit; every end-to-end metric is printed, and not 0, on every workload;
// every per-layer metric is printed on at least one workload and on none
// where nothing was measured for it; and the result line carries exactly the
// declared names.
func TestPrintedMetricsMatchDeclaration(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	declared := make(map[string]metricDecl)
	for _, list := range [][]metricDecl{decl.EndToEnd, decl.PerLayer} {
		for _, d := range list {
			if _, dup := declared[d.Name]; dup || !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("bad or repeated declaration %+v", d)
			}
			declared[d.Name] = d
		}
	}
	for _, d := range decl.EndToEnd {
		if d.Bound <= 0 {
			t.Errorf("%s: end-to-end metric without a bound", d.Name)
		}
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Errorf("declared %d workloads, have %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("declared workload %q, have %q", w.Name, workloadNames[i])
		}
	}
	for _, g := range checkedGates {
		if _, ok := declared[g.name]; !ok && g.name != "failed" {
			t.Errorf("-compare checks %s, which is not declared", g.name)
		}
	}

	printedSomewhere := make(map[string]bool)
	for w, pair := range smoke(t) {
		for i, res := range pair {
			for n, m := range res.Metrics {
				printedSomewhere[n] = true
				if d, ok := declared[n]; !ok {
					t.Errorf("%s (trace %d): printed metric %s is not declared", w, i, n)
				} else if m.Unit != d.Unit {
					t.Errorf("%s (trace %d): %s printed in %q, declared in %q", w, i, n, m.Unit, d.Unit)
				}
				if res.samples[n] == 0 {
					t.Errorf("%s (trace %d): %s printed with no samples behind it", w, i, n)
				}
			}
		}
		for _, d := range decl.EndToEnd {
			if m, ok := pair[0].Metrics[d.Name]; !ok || m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s missing or 0 (%v)", w, d.Name, m.Value)
			}
		}
		for i, list := range [][]metricDecl{decl.EndToEnd, decl.PerLayer} {
			line := resultLine(decl, pair[i], i == 1)
			if len(line.Metrics) != len(list) {
				t.Errorf("%s (trace %d): result line has %d metrics, declared %d", w, i, len(line.Metrics), len(list))
			}
			for _, d := range list {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s (trace %d): result line lacks %s in %s", w, i, d.Name, d.Unit)
				}
			}
		}
	}
	for _, d := range decl.PerLayer {
		if !printedSomewhere[d.Name] {
			t.Errorf("declared per-layer metric %s is printed by no workload", d.Name)
		}
	}
}

// However long the run, no churn_cold server is sent more clients than the
// keystore takes before the engine leaves its normal load state.
func TestChurnGenerationsStayUnderBudget(t *testing.T) {
	c := newChurn(1)
	for _, trace := range []bool{false, true} {
		for _, seconds := range []float64{1, 20, 21, 30, 60} {
			pp := c.plan(seconds, trace)
			open := int64(churnRates.mid * pp.openSeconds)
			if trace {
				open = int64(churnRates.lo*pp.openSeconds) + int64(churnRates.mid*pp.openSeconds) + int64(churnRates.hi*pp.openSeconds)
			}
			perGeneration := int64(pp.slices)*(pp.closedCount+open) + churnWarm + 1
			if perGeneration > churnBudget {
				t.Errorf("%v s (trace %v): %d generations of %d clients, budget %d", seconds, trace, pp.generations, perGeneration, churnBudget)
			}
		}
	}
	if pp := c.plan(20, false); pp.generations != 3 {
		t.Errorf("the declared 20 s run uses %d generations, want 3", pp.generations)
	}
}
