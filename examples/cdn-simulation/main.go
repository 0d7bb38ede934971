// CDN simulation: run the CoDeeN-scale scenario end to end — a four-node
// proxy network, the calibrated human/robot traffic mix, detection on every
// node and no enforcement ladder, so every session runs to its end — and
// print the regenerated Table 1, the Section 3.1 bounds, the
// detection-latency quantiles of Figure 2, and per-robot-family detection
// rates.
//
// Run with:
//
//	go run ./examples/cdn-simulation [-sessions 500]
package main

import (
	"flag"
	"fmt"
	"sort"

	"botdetect/internal/agents"
	"botdetect/internal/core"
	"botdetect/internal/detect/rules"
	"botdetect/internal/metrics"
	"botdetect/internal/session"
	"botdetect/internal/workload"
)

func main() {
	sessions := flag.Int("sessions", 500, "number of client sessions to simulate")
	flag.Parse()

	res := workload.Run(workload.Config{Sessions: *sessions, Seed: 2006})
	fmt.Printf("simulated %d sessions across %d nodes, %d requests total\n\n",
		len(res.Sessions), len(res.Network.Nodes()), res.Network.TotalStats().Requests)

	// Table 1 and the bounds.
	b := rules.Breakdown(res.Snapshots(), 10)
	fmt.Println(b.Table().Format())
	fmt.Printf("human share bounds: %s%% .. %s%%, max FPR %s%%\n\n",
		metrics.Pct(b.HumanLowerBound()), metrics.Pct(b.HumanUpperBound()), metrics.Pct(b.MaxFalsePositiveRate()))

	// Figure 2 quantiles.
	latencies := rules.DetectionLatencies(res.Snapshots(), session.SignalMouse, session.SignalCSS)
	mouse := latencies[session.SignalMouse]
	css := latencies[session.SignalCSS]
	fmt.Printf("detection latency: mouse 80%%≤%.0f reqs, 95%%≤%.0f; CSS 95%%≤%.0f, 99%%≤%.0f\n\n",
		mouse.Quantile(0.80), mouse.Quantile(0.95), css.Quantile(0.95), css.Quantile(0.99))

	// Per-family detection outcomes.
	type tally struct{ total, robotVerdict, humanVerdict, undecided int }
	perKind := map[agents.Kind]*tally{}
	for _, s := range res.Sessions {
		if s.Snapshot.Counts.Total <= 10 {
			continue
		}
		t, ok := perKind[s.Kind]
		if !ok {
			t = &tally{}
			perKind[s.Kind] = t
		}
		t.total++
		switch s.Verdict.Class {
		case core.ClassRobot:
			t.robotVerdict++
		case core.ClassHuman:
			t.humanVerdict++
		default:
			t.undecided++
		}
	}
	kinds := make([]agents.Kind, 0, len(perKind))
	for k := range perKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	table := metrics.NewTable("Per-family verdicts (sessions with > 10 requests)",
		"Family", "Sessions", "Classified robot", "Classified human", "Undecided")
	for _, k := range kinds {
		t := perKind[k]
		table.AddRow(k.String(), fmt.Sprintf("%d", t.total), fmt.Sprintf("%d", t.robotVerdict),
			fmt.Sprintf("%d", t.humanVerdict), fmt.Sprintf("%d", t.undecided))
	}
	fmt.Println(table.Format())
}
