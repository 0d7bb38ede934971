// Command botbench regenerates the paper's evaluation artifacts (tables and
// figures) from synthetic CoDeeN-style workloads and prints them as text.
//
// Usage:
//
//	botbench [-exp all|table1|captcha|figure2|figure3|table2|figure4|overhead|decoys|signals|staged|online|baselines|overload|fleet]
//	         [-sessions N] [-seed S]
//	         [-overload-json BENCH_overload.json]
//	         [-fleet-json BENCH_fleet.json]
//
// The -sessions flag scales the synthetic workload; larger values give more
// stable percentages at higher runtime. Serve-path performance is measured by
// go run ./benchmark, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"botdetect/internal/experiments"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "comma-separated experiments to run: all, table1, captcha, figure2, figure3, table2, figure4, overhead, decoys, signals, staged, online, baselines; and, only when named, overload, fleet")
		sessions     = flag.Int("sessions", experiments.DefaultScale().Sessions, "number of synthetic sessions per experiment")
		seed         = flag.Uint64("seed", experiments.DefaultScale().Seed, "random seed")
		overloadJSON = flag.String("overload-json", "", "write the overload experiment's result as JSON to this file")
		fleetJSON    = flag.String("fleet-json", "", "write the fleet experiment's result as JSON to this file")
	)
	flag.Parse()

	scale := experiments.Scale{Sessions: *sessions, Seed: *seed}
	selected := strings.Split(strings.ToLower(*exp), ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
		}
		return false
	}

	ran := 0
	run := func(name string, f func() string) {
		if !want(name) {
			return
		}
		ran++
		start := time.Now()
		out := f()
		fmt.Printf("==> %s (%.1fs)\n\n%s\n", name, time.Since(start).Seconds(), out)
	}

	run("table1", func() string { return experiments.Table1(scale).Format() })
	run("captcha", func() string { return experiments.CaptchaCross(scale).Format() })
	run("figure2", func() string { return experiments.Figure2(scale).Format() })
	run("figure3", func() string { return experiments.Figure3(scale).Format() })
	run("table2", func() string { return experiments.Table2().Format() })
	run("figure4", func() string { return experiments.Figure4(scale).Format() })
	run("overhead", func() string { return experiments.Overhead(scale).Format() })
	run("decoys", func() string { return experiments.AblationDecoys(scale).Format() })
	run("signals", func() string { return experiments.AblationSignals(scale).Format() })
	run("staged", func() string { return experiments.Staged(scale).Format() })
	run("online", func() string { return experiments.OnlineLoop(scale).Format() })
	run("baselines", func() string { return experiments.BaselineComparison(scale).Format() })
	// The overload and fleet experiments are not paper artifacts: they run
	// only when named explicitly, and "-exp all" stays the regeneration of
	// the paper's tables and figures. Both are deterministic — each runs on
	// one virtual clock and prints the same report for the same seed, wall
	// measurements aside.
	explicit := func(name string) bool {
		for _, s := range selected {
			if s == name {
				return true
			}
		}
		return false
	}
	// Overload: a reverse proxy and a chaos origin on two loopback listeners,
	// flooded by a single driver.
	if explicit("overload") {
		ran++
		start := time.Now()
		res := experiments.OverloadBench(*seed)
		if *overloadJSON != "" {
			if err := os.WriteFile(*overloadJSON, res.JSON(), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "botbench: writing %s: %v\n", *overloadJSON, err)
				os.Exit(1)
			}
		}
		fmt.Printf("==> %s (%.1fs)\n\n%s\n", "overload", time.Since(start).Seconds(), res.Format())
	}
	// Fleet: two in-process CDN networks (isolated and replicated arms) with
	// live replication goroutines, node kills and a partition cycle.
	if explicit("fleet") {
		ran++
		start := time.Now()
		res := experiments.FleetBench(*seed)
		if *fleetJSON != "" {
			if err := os.WriteFile(*fleetJSON, res.JSON(), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "botbench: writing %s: %v\n", *fleetJSON, err)
				os.Exit(1)
			}
		}
		fmt.Printf("==> %s (%.1fs)\n\n%s\n", "fleet", time.Since(start).Seconds(), res.Format())
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "botbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
