// Command trafficgen generates a synthetic CoDeeN-style access log by
// driving the agent population (humans plus the paper's robot families)
// against the simulated CDN, and writes it in extended combined log format.
// The log can be replayed through cmd/loganalyze or any external tool.
//
// Usage:
//
//	trafficgen [-out access.log] [-sessions 400] [-seed 2006] [-mix codeen|human|robot]
//	           [-truth truth.tsv]
//
// With -truth, the ground-truth label of every session (<IP> <User-Agent>
// <kind>) is written alongside, enabling offline classifier training.
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"log"
	"maps"
	"os"
	"slices"
	"sort"
	"strings"

	"botdetect/internal/logfmt"
	"botdetect/internal/session"
	"botdetect/internal/workload"
)

func main() {
	var (
		out      = flag.String("out", "access.log", "output access log path (- for stdout)")
		truth    = flag.String("truth", "", "optional ground-truth label file path")
		sessions = flag.Int("sessions", 400, "number of agent sessions")
		seed     = flag.Uint64("seed", 2006, "random seed")
		mixName  = flag.String("mix", "codeen", "traffic mix: codeen, human, robot")
	)
	flag.Parse()

	var mix workload.Mix
	switch *mixName {
	case "codeen":
		mix = workload.CoDeeNMix()
	case "human":
		mix = workload.HumanOnlyMix()
	case "robot":
		mix = workload.RobotOnlyMix()
	default:
		log.Fatalf("trafficgen: unknown mix %q", *mixName)
	}

	res := workload.Run(workload.Config{
		Sessions:   *sessions,
		Seed:       *seed,
		Mix:        mix,
		RecordLogs: true,
	})

	entries := res.Entries
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })

	var sink *os.File
	if *out == "-" {
		sink = os.Stdout
	} else {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("trafficgen: %v", err)
		}
		defer f.Close()
		sink = f
	}
	w := logfmt.NewWriter(sink)
	for _, e := range entries {
		if err := w.Write(e); err != nil {
			log.Fatalf("trafficgen: write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatalf("trafficgen: flush: %v", err)
	}

	if *truth != "" {
		f, err := os.Create(*truth)
		if err != nil {
			log.Fatalf("trafficgen: %v", err)
		}
		defer f.Close()
		// Sorted by (IP, User-Agent), so a seed gives the same file byte for byte.
		keys := slices.SortedFunc(maps.Keys(res.GroundTruth), func(a, b session.Key) int {
			return cmp.Or(strings.Compare(a.IP, b.IP), strings.Compare(a.UserAgent, b.UserAgent))
		})
		bw := bufio.NewWriter(f)
		for _, key := range keys {
			fmt.Fprintf(bw, "%s\t%s\t%s\n", key.IP, key.UserAgent, res.GroundTruth[key])
		}
		if err := bw.Flush(); err != nil {
			log.Fatalf("trafficgen: truth flush: %v", err)
		}
	}

	fmt.Fprintf(os.Stderr, "trafficgen: %d sessions, %d log entries, %d requests total\n",
		len(res.Sessions), w.Count(), res.Network.TotalStats().Requests)
}
