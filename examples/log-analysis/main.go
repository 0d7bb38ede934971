// Log analysis: the offline path. Generate a synthetic CoDeeN-style access
// log with the workload driver, write it to disk in extended combined log
// format, read it back, reconstruct sessions and detection signals, print
// the Table 1 style breakdown, and train the AdaBoost classifier of
// Section 4.2 on the Table 2 attributes using the ground-truth labels.
//
// Run with:
//
//	go run ./examples/log-analysis
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"botdetect/internal/adaboost"
	"botdetect/internal/core"
	"botdetect/internal/detect/rules"
	"botdetect/internal/features"
	"botdetect/internal/jsgen"
	"botdetect/internal/logfmt"
	"botdetect/internal/metrics"
	"botdetect/internal/session"
	"botdetect/internal/workload"
)

func main() {
	// 1. Generate traffic and keep the raw log entries.
	res := workload.Run(workload.Config{Sessions: 200, Seed: 17, RecordLogs: true})
	entries := res.Entries
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })
	fmt.Printf("generated %d sessions, %d log lines\n", len(res.Sessions), len(entries))

	// 2. Write the access log the way a deployed proxy would.
	dir, err := os.MkdirTemp("", "botdetect-logs")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "access.log")
	f, err := os.Create(logPath)
	if err != nil {
		log.Fatal(err)
	}
	w := logfmt.NewWriter(f)
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote", logPath)

	// 3. Read it back and rebuild sessions offline.
	in, err := os.Open(logPath)
	if err != nil {
		log.Fatal(err)
	}
	defer in.Close()
	parsed, err := logfmt.ReadAll(in)
	if err != nil {
		log.Fatal(err)
	}
	tracker := session.NewTracker(session.Config{})
	for _, e := range parsed {
		key := session.Key{IP: e.ClientIP, UserAgent: e.UserAgent}
		// Instrumentation requests mark signals and are not counted, as in
		// the live engine's HandleBeacon.
		if obj, _, _, ok := jsgen.ParsePath("", e.Path); ok {
			if sig, ok := core.ObjectSignal[obj]; ok {
				tracker.Mark(key, sig)
			}
			continue
		}
		tracker.Observe(e)
	}
	snaps := tracker.FlushAll()

	// 4. The Table 1 breakdown and the combining-rule bounds.
	b := rules.Breakdown(snaps, 10)
	fmt.Println()
	fmt.Println(b.Table().Format())
	fmt.Printf("human share bounds: %s%% .. %s%% (max FPR %s%%)\n\n",
		metrics.Pct(b.HumanLowerBound()), metrics.Pct(b.HumanUpperBound()), metrics.Pct(b.MaxFalsePositiveRate()))

	// 5. Train AdaBoost on the Table 2 attributes with ground-truth labels.
	var examples []features.Example
	for _, s := range snaps {
		if s.Counts.Total <= 10 {
			continue
		}
		kind, ok := res.GroundTruth[s.Key]
		if !ok {
			continue
		}
		examples = append(examples, features.Example{X: s.Features, Human: kind.IsHuman()})
	}
	train, test := adaboost.Split(examples, 0.5, 23)
	model, err := adaboost.Train(train, adaboost.Config{Rounds: 200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AdaBoost: %d examples, train accuracy %.1f%%, test accuracy %.1f%%\n",
		len(examples), model.Accuracy(train)*100, model.Accuracy(test)*100)
	var names []string
	for _, idx := range model.TopFeatures(3) {
		names = append(names, features.Names[idx])
	}
	fmt.Println("most contributing attributes:", strings.Join(names, ", "))
}
