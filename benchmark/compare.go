package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// declaration mirrors BENCHMARK.json: the metric names, units, directions and
// regression bounds the benchmark commits to.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.RunSeconds <= 0 {
		return nil, fmt.Errorf("%s: run_seconds missing", path)
	}
	return &d, nil
}

// resultFile is what -out writes: every run's metrics per workload, so that
// -compare can take medians and quartiles over several sets.
type resultFile struct {
	Env       envInfo                        `json:"env"`
	Trace     bool                           `json:"trace"`
	Workloads map[string][]map[string]metric `json:"workloads"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric's value from every run of a workload.
func (f *resultFile) values(workload, name string) []float64 {
	var vs []float64
	for _, run := range f.Workloads[workload] {
		if m, ok := run[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// gate is one row -compare prints per workload: a metric, which way is
// better, and how far the change may fall behind the base.
type gate struct {
	name   string
	better string
	bound  float64 // share of the base median the change's median may be worse by
	// slack is an absolute difference that is never a regression: set-up takes
	// about 20 ms, and a quarter of that is one scheduling wobble.
	slack float64
	// exact marks a count: the sets are compared run by run and any
	// worsening at all is worse.
	exact bool
	only  []string // the workloads it applies to; nil means all
}

func (g gate) appliesTo(workload string) bool {
	return g.only == nil || slices.Contains(g.only, workload)
}

// setupSlack is the absolute part of set-up's bound: max(25 %, 0.2 s).
const setupSlack = 0.2

var (
	wireWorkloads = []string{"browse_hot", "churn_cold", "bigpage_origin"}
	codeenOnly    = []string{"codeen_mix"}
)

// checkedGates are compared besides the declared end-to-end metrics. A
// declared metric must exist, not be 0, and repeat within its bound from seed
// to seed on every workload; these do not, yet a change must answer for them:
// the failure count (the issue's fail_ratio, bound 0), the detection-quality
// ratios (exact where the ground truth is known, 1 % over the wire), and the
// timings, which this kind of machine does not repeat within the issue's
// bounds and which therefore often read "unresolved".
var checkedGates = []gate{
	{name: "failed", better: "lower", exact: true},
	{name: "quality.human_ok_ratio", better: "higher", exact: true, only: codeenOnly},
	{name: "quality.human_fp_ratio", better: "lower", exact: true, only: codeenOnly},
	{name: "quality.robot_caught_ratio", better: "higher", exact: true, only: codeenOnly},
	{name: "quality.robot_reqs_to_block_p50", better: "lower", exact: true, only: codeenOnly},
	{name: "quality.human_ok_ratio", better: "higher", bound: 0.01, only: []string{"browse_hot"}},
	{name: "quality.human_fp_ratio", better: "lower", bound: 0.01, only: []string{"browse_hot"}},
	{name: "loadgen.req_per_s", better: "higher", bound: 0.10},
	{name: "loadgen.cpu_us_per_req", better: "lower", bound: 0.10},
	{name: "loadgen.lat_p50_us", better: "lower", bound: 0.10, only: wireWorkloads},
	{name: "cdn.do_page_us", better: "lower", bound: 0.10, only: codeenOnly},
	{name: "loadgen.lat_p99_us_mid", better: "lower", bound: 0.15, only: wireWorkloads},
	{name: "loadgen.ttfb_p50_us", better: "lower", bound: 0.10, only: wireWorkloads},
}

// gates lists every compared metric: the declared end-to-end metrics with
// their declared bounds, then the checked ones.
func gates(decl *declaration) []gate {
	var gs []gate
	for _, d := range decl.EndToEnd {
		g := gate{name: d.Name, better: d.Better, bound: d.Bound}
		if d.Name == "setup_s" {
			g.slack = setupSlack
		}
		gs = append(gs, g)
	}
	return append(gs, checkedGates...)
}

// worseBy is how much worse c is than b, in the metric's own unit; negative
// when it is better.
func worseBy(b, c float64, better string) float64 {
	if better == "higher" {
		return b - c
	}
	return c - b
}

// verdict compares a change's runs of one metric with the base's. The change
// is "worse" when its median is worse than the base's by more than the bound
// (a share of the base median) and by more than the slack. When the base's
// own runs spread wider than the bound the comparison cannot tell, and the
// row is "unresolved" — unless every run of the change reads better than
// every run of the base.
func (g gate) verdict(base, change []float64) (status string, ratio float64) {
	mb, mc := median(base), median(change)
	if mb != 0 {
		ratio = mc / mb
	}
	by := worseBy(mb, mc, g.better)
	if g.slack > 0 && by <= g.slack {
		return "ok", ratio
	}
	if len(base) >= 4 && iqrShare(base) > g.bound {
		if allBetter(base, change, g.better) {
			return "ok", ratio
		}
		return "unresolved", ratio
	}
	if by > g.bound*math.Abs(mb) {
		return "worse", ratio
	}
	return "ok", ratio
}

// exactVerdict compares two sets of a count run by run — run i of either set
// is the same seed when the sets were made with the same flags — or, when
// they hold different numbers of runs, median against median. Any worsening
// is worse.
func (g gate) exactVerdict(base, change []float64) (status string, ratio float64) {
	mb, mc := median(base), median(change)
	if mb != 0 {
		ratio = mc / mb
	}
	if len(base) != len(change) {
		base, change = []float64{mb}, []float64{mc}
	}
	for i := range base {
		if worseBy(base[i], change[i], g.better) > 0 {
			return "worse", ratio
		}
	}
	return "ok", ratio
}

func allBetter(base, change []float64, better string) bool {
	for _, c := range change {
		for _, b := range base {
			if worseBy(b, c, better) >= 0 {
				return false
			}
		}
	}
	return len(change) > 0
}

// row is one line of the comparison table.
type row struct {
	workload     string
	gate         gate
	base, change []float64
	ratio        float64
	status       string
}

// compareSets compares every workload either side ran, metric by metric.
func compareSets(decl *declaration, base, change *resultFile) []row {
	var rows []row
	for _, w := range decl.Workloads {
		if len(base.Workloads[w.Name]) == 0 && len(change.Workloads[w.Name]) == 0 {
			continue
		}
		for _, g := range gates(decl) {
			if !g.appliesTo(w.Name) {
				continue
			}
			r := row{workload: w.Name, gate: g, base: base.values(w.Name, g.name), change: change.values(w.Name, g.name)}
			switch {
			case len(r.base) == 0 || len(r.change) == 0:
				// A metric one side never measured cannot be called unchanged.
				r.status = "unresolved"
			case g.exact:
				r.status, r.ratio = g.exactVerdict(r.base, r.change)
			default:
				r.status, r.ratio = g.verdict(r.base, r.change)
			}
			rows = append(rows, r)
		}
	}
	return rows
}

// compareFiles prints one row per workload and compared metric and returns
// the process exit code: 1 when any row is worse.
func compareFiles(decl *declaration, basePath, changePath string) int {
	base, err := readResultFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	change, err := readResultFile(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("base   %s: commit %s, %d cores, pinned %v, seed %d\n", basePath, base.Env.Commit, base.Env.Cores, base.Env.Pinned, base.Env.Seed)
	fmt.Printf("change %s: commit %s, %d cores, pinned %v, seed %d\n", changePath, change.Env.Commit, change.Env.Cores, change.Env.Pinned, change.Env.Seed)
	fmt.Printf("%-15s %-32s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "base", "change", "ratio", "bound", "spread", "status")
	code := 0
	for _, r := range compareSets(decl, base, change) {
		if r.status == "worse" {
			code = 1
		}
		fmt.Printf("%-15s %-32s %14s %14s %8.4f %7.3f %7.3f  %s\n",
			r.workload, r.gate.name, medianOrDash(r.base), medianOrDash(r.change), r.ratio, r.gate.bound, iqrShare(r.base), r.status)
	}
	return code
}

func medianOrDash(vs []float64) string {
	if len(vs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.6g", median(vs))
}
