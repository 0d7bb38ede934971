// Command loganalyze performs the offline analysis path: it replays an
// extended combined access log (e.g. one produced by cmd/trafficgen or by a
// botproxy deployment), reconstructs sessions keyed by <IP, User-Agent>,
// re-derives the detection signals from the instrumentation requests present
// in the log, and prints the Table 1 style breakdown, the combining-rule
// bounds, and a per-session classification summary. With -truth it also
// reports accuracy against ground-truth labels and trains the AdaBoost
// classifier on the Table 2 attributes.
//
// Usage:
//
//	loganalyze -log access.log [-truth truth.tsv] [-min-requests 10]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"botdetect/internal/adaboost"
	"botdetect/internal/core"
	"botdetect/internal/detect/rules"
	"botdetect/internal/features"
	"botdetect/internal/jsgen"
	"botdetect/internal/logfmt"
	"botdetect/internal/metrics"
	"botdetect/internal/session"
)

func main() {
	var (
		logPath     = flag.String("log", "", "access log path (required; - for stdin)")
		truthPath   = flag.String("truth", "", "optional ground-truth label file (IP\\tUser-Agent\\tkind)")
		minRequests = flag.Int64("min-requests", 10, "only classify sessions with more than this many requests")
	)
	flag.Parse()
	if *logPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	var in io.Reader
	if *logPath == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(*logPath)
		if err != nil {
			log.Fatalf("loganalyze: %v", err)
		}
		defer f.Close()
		in = f
	}

	// Stream the log straight into the session tracker: replay memory is
	// bounded by the live session table, not by the log size, so multi-GB
	// access logs replay without materialising a []Entry.
	tracker := session.NewTracker(session.Config{})
	var total int64
	err := logfmt.ReadEach(in, func(e logfmt.Entry) error {
		total++
		key := session.Key{IP: e.ClientIP, UserAgent: e.UserAgent}
		// Instrumentation requests mark signals and are not counted, as in
		// the live engine's HandleBeacon.
		if obj, _, _, ok := jsgen.ParsePath("", e.Path); ok {
			if sig, ok := core.ObjectSignal[obj]; ok {
				tracker.Mark(key, sig)
			}
			return nil
		}
		tracker.ObserveQuiet(e)
		return nil
	})
	if err != nil {
		log.Fatalf("loganalyze: %v", err)
	}
	if total == 0 {
		log.Fatal("loganalyze: log contains no entries")
	}
	snaps := tracker.FlushAll()

	// Table 1 style breakdown and combining-rule bounds.
	b := rules.Breakdown(snaps, *minRequests)
	fmt.Println(b.Table().Format())
	fmt.Printf("Human-share lower bound (mouse): %s%%\n", metrics.Pct(b.HumanLowerBound()))
	fmt.Printf("Human-share upper bound (S_H):   %s%%\n", metrics.Pct(b.HumanUpperBound()))
	fmt.Printf("Max false positive rate:         %s%%\n\n", metrics.Pct(b.MaxFalsePositiveRate()))

	truth := loadTruth(*truthPath)
	if truth == nil {
		return
	}

	// Accuracy of the combining rule against the labels.
	var cm metrics.ConfusionMatrix
	var examples []features.Example
	for _, s := range snaps {
		if int64(s.Counts.Total) <= *minRequests {
			continue
		}
		kind, ok := truth[s.Key]
		if !ok {
			continue
		}
		isHuman := strings.HasPrefix(kind, "human")
		cm.Record(rules.InHumanSet(s), isHuman)
		examples = append(examples, features.Example{X: s.Counts.Vector(), Human: isHuman})
	}
	fmt.Printf("Combining rule vs ground truth: %s\n", cm.String())

	train, test := adaboost.Split(examples, 0.5, 2006)
	model, err := adaboost.Train(train)
	if err != nil {
		fmt.Printf("AdaBoost training skipped: %v\n", err)
		return
	}
	fmt.Printf("AdaBoost (200 rounds): train accuracy %.1f%%, test accuracy %.1f%%\n",
		model.Accuracy(train)*100, model.Accuracy(test)*100)
	top := model.TopFeatures(3)
	names := make([]string, len(top))
	for i, idx := range top {
		names[i] = features.Names[idx]
	}
	fmt.Printf("Most contributing attributes: %s\n", strings.Join(names, ", "))
}

// loadTruth reads the trafficgen ground-truth file.
func loadTruth(path string) map[session.Key]string {
	if path == "" {
		return nil
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("loganalyze: %v", err)
	}
	defer f.Close()
	truth := make(map[session.Key]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), "\t", 3)
		if len(parts) != 3 {
			continue
		}
		truth[session.Key{IP: parts[0], UserAgent: parts[1]}] = parts[2]
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("loganalyze: reading truth: %v", err)
	}
	return truth
}
