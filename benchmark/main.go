// Command benchmark is the repository's measuring stick. It drives the real
// cmd/botproxy binary as a separate, pinned, single-core process over
// loopback from a two-connection generator (browse_hot, churn_cold,
// bigpage_origin), and the paper's CoDeeN agent population in-process on a
// virtual clock (codeen_mix); verifies every response; and prints each
// metric by name with its unit. With -trace 1 it additionally replays each
// workload's request stream through the layers' public functions with a span
// around every call and prints the per-layer ledger. See README.md.
//
// Usage:
//
//	go run ./benchmark                                   all workloads, end-to-end metrics
//	go run ./benchmark -trace 1 [-spans out.json]        per-layer metrics (and the spans)
//	go run ./benchmark -workload browse_hot -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -runs 5 -out a.json               five sets, saved for -compare
//	go run ./benchmark -compare a.json b.json            regression table, exit 1 on "worse"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload measured. Metrics holds every
// metric that applies to the workload and nothing else; the last line a
// single-workload run prints is cut from it by resultLine.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// samples holds the sample count behind each metric.
	samples map[string]int
}

// resultLine is the run's result with exactly the declared metrics of its
// kind, as the benchmark contract wants them: every end-to-end metric, or,
// traced, every per-layer metric. A per-layer metric that does not apply to
// the workload has to be there too and is 0 — here and nowhere else.
func resultLine(decl *declaration, res result, trace bool) result {
	list := decl.EndToEnd
	if trace {
		list = decl.PerLayer
	}
	line := result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metric, len(list))}
	for _, d := range list {
		m, ok := res.Metrics[d.Name]
		if !ok {
			m = metric{Unit: d.Unit}
		}
		line.Metrics[d.Name] = m
	}
	return line
}

// saved is what -out keeps of a run: its metrics and its failure count.
func (res result) saved() map[string]metric {
	m := maps.Clone(res.Metrics)
	m["failed"] = metric{float64(res.Failed), "count"}
	return m
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spans    string
	smoke    bool
}

var workloadNames = []string{"browse_hot", "churn_cold", "bigpage_origin", "codeen_mix"}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Uint64("seed", 2006, "workload seed: the same seed gives the same request streams")
		seconds  = flag.Int("seconds", 0, "measured seconds per workload (default: run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		spans    = flag.String("spans", "", "with -trace 1: write the recorded spans here as Chrome trace-event JSON")
		smoke    = flag.Bool("smoke", false, "one-second phases and 200 sessions: a functional check, not a measurement")
		runs     = flag.Int("runs", 1, "with -out: how many sets to run, on consecutive seeds")
		out      = flag.String("out", "", "write every run's metrics to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	)
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	decl, err := loadDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			return 2
		}
		return compareFiles(decl, flag.Arg(0), flag.Arg(1))
	}

	opt := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, spans: *spans, smoke: *smoke}
	if opt.seconds <= 0 {
		opt.seconds = decl.RunSeconds
	}
	if opt.smoke {
		opt.seconds = 1
	}
	names := workloadNames
	if opt.workload != "" {
		if !slices.Contains(workloadNames, opt.workload) {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %v)\n", opt.workload, workloadNames)
			return 2
		}
		names = []string{opt.workload}
	}

	plan, err := planCPUs()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	bin, err := buildProxy(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	env := describeEnv(root, plan, opt.seed, opt.seconds)
	envJSON, _ := json.Marshal(env) // a struct of plain fields cannot fail to encode
	fmt.Printf("env %s\n", envJSON)

	sets := &resultFile{Env: env, Trace: opt.trace, Workloads: make(map[string][]map[string]metric)}
	code := 0
	var last result
	for run := 0; run < *runs; run++ {
		o := opt
		o.seed = opt.seed + uint64(run)
		for _, name := range names {
			fmt.Printf("\n== %s (seed %d, %d s, trace %v)\n", name, o.seed, o.seconds, o.trace)
			o.workload = name
			res, err := runWorkload(bin, plan, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				return 1
			}
			printMetrics(decl, res, o.trace)
			sets.Workloads[name] = append(sets.Workloads[name], res.saved())
			if !res.Correct {
				code = 1
			}
			last = res
		}
	}
	if *out != "" {
		if err := sets.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if len(names) == 1 && *runs == 1 {
		line, _ := json.Marshal(resultLine(decl, last, opt.trace)) // plain fields again
		fmt.Printf("%s\n", line)
	}
	return code
}

// printMetrics prints what the run measured, one metric per line: the
// declared metrics of the run's kind in declaration order, then whatever else
// it measured on the way.
func printMetrics(decl *declaration, res result, trace bool) {
	list := decl.EndToEnd
	if trace {
		list = decl.PerLayer
	}
	print := func(name string) {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, res.samples[name])
	}
	declared := make(map[string]bool)
	for _, d := range list {
		declared[d.Name] = true
		if _, ok := res.Metrics[d.Name]; ok {
			print(d.Name)
		}
	}
	for _, name := range sortedKeys(res.Metrics) {
		if !declared[name] {
			print(name)
		}
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}
