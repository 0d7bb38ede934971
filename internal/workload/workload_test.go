package workload

import (
	"testing"

	"botdetect/internal/agents"
	"botdetect/internal/core"
	"botdetect/internal/detect/rules"
	"botdetect/internal/session"
)

func TestRunSmallWorkloadProducesLabeledSessions(t *testing.T) {
	res := Run(Config{Sessions: 60, Seed: 1})
	if len(res.Sessions) == 0 {
		t.Fatal("no sessions produced")
	}
	if len(res.Sessions) > 60 {
		t.Fatalf("more sessions (%d) than agents (60)", len(res.Sessions))
	}
	// Every session has ground truth and a consistent key.
	for _, s := range res.Sessions {
		if _, ok := res.GroundTruth[s.Snapshot.Key]; !ok {
			t.Fatalf("session %v missing ground truth", s.Snapshot.Key)
		}
		if s.Snapshot.Counts.Total == 0 {
			t.Fatal("session with zero requests")
		}
	}
	if res.Network == nil {
		t.Fatal("result missing network")
	}
	if res.Network.TotalStats().Requests == 0 {
		t.Fatal("network saw no requests")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	a := Run(Config{Sessions: 40, Seed: 7})
	b := Run(Config{Sessions: 40, Seed: 7})
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatalf("session counts differ: %d vs %d", len(a.Sessions), len(b.Sessions))
	}
	if a.Network.TotalStats().Requests != b.Network.TotalStats().Requests {
		t.Fatalf("request counts differ: %d vs %d",
			a.Network.TotalStats().Requests, b.Network.TotalStats().Requests)
	}
	c := Run(Config{Sessions: 40, Seed: 8})
	if c.Network.TotalStats().Requests == a.Network.TotalStats().Requests {
		t.Log("warning: different seeds produced identical request counts (possible but unlikely)")
	}
}

func TestHumanOnlyMixAllHuman(t *testing.T) {
	res := Run(Config{Sessions: 30, Mix: HumanOnlyMix(), Seed: 3})
	for _, s := range res.Sessions {
		if !s.IsHuman() {
			t.Fatalf("non-human session %s in human-only mix", s.Kind)
		}
	}
}

func TestRobotOnlyMixAllRobot(t *testing.T) {
	res := Run(Config{Sessions: 30, Mix: RobotOnlyMix(), Seed: 4})
	for _, s := range res.Sessions {
		if s.IsHuman() {
			t.Fatalf("human session in robot-only mix")
		}
	}
}

func TestDetectionQualityOnDefaultMix(t *testing.T) {
	res := Run(Config{Sessions: 150, Seed: 11})
	var correct, total, undecided int
	var falsePositives, robots int
	for _, s := range res.Sessions {
		if s.Snapshot.Counts.Total <= 10 {
			continue // the paper only classifies sessions with > 10 requests
		}
		total++
		switch s.Verdict.Class {
		case core.ClassUndecided:
			undecided++
		case core.ClassHuman:
			if s.IsHuman() {
				correct++
			} else {
				falsePositives++
			}
		case core.ClassRobot:
			if !s.IsHuman() {
				correct++
			}
		}
		if !s.IsHuman() {
			robots++
		}
	}
	if total < 50 {
		t.Fatalf("too few classifiable sessions: %d", total)
	}
	accuracy := float64(correct) / float64(total)
	if accuracy < 0.85 {
		t.Fatalf("detector accuracy on synthetic workload = %.2f (correct=%d total=%d undecided=%d)",
			accuracy, correct, total, undecided)
	}
	if robots > 0 {
		fpr := float64(falsePositives) / float64(robots)
		if fpr > 0.05 {
			t.Fatalf("false positive rate = %.3f", fpr)
		}
	}
}

func TestSignalSharesRoughlyMatchTable1(t *testing.T) {
	res := Run(Config{Sessions: 400, Seed: 13})
	b := rules.Breakdown(res.Snapshots(), 10)
	if b.Total < 150 {
		t.Fatalf("too few sessions with >10 requests: %d", b.Total)
	}
	check := func(name string, got, lo, hi float64) {
		if got < lo || got > hi {
			t.Errorf("%s share = %.3f, want within [%.2f, %.2f]", name, got, lo, hi)
		}
	}
	// Loose bands around the Table 1 percentages (synthetic workload).
	check("CSS", b.CSSFraction(), 0.15, 0.45)
	check("JS", b.JSFraction(), 0.12, 0.45)
	check("mouse", b.MouseFraction(), 0.10, 0.40)
	check("hidden", b.HiddenFraction(), 0.0, 0.08)
	check("ua-mismatch", b.UAMismatchFraction(), 0.0, 0.05)
	// The combining-rule bounds behave like the paper's: the upper bound is
	// close to (and at least) the lower bound and the max FPR stays small.
	if b.HumanUpperBound() < b.HumanLowerBound() {
		t.Fatal("upper bound below lower bound")
	}
	if b.MaxFalsePositiveRate() > 0.12 {
		t.Errorf("max false positive rate = %.3f", b.MaxFalsePositiveRate())
	}
}

func TestGroundTruthKindsLaunched(t *testing.T) {
	res := Run(Config{Sessions: 200, Seed: 17})
	launched := map[agents.Kind]int{}
	for _, kind := range res.GroundTruth {
		launched[kind]++
	}
	if len(launched) < 5 {
		t.Fatalf("agent diversity too low: %v", launched)
	}
	if launched[agents.KindHuman] == 0 {
		t.Fatal("no human agents launched under the default mix")
	}
	if launched[agents.KindEmailHarvester] == 0 {
		t.Fatal("no harvester agents launched under the default mix")
	}
}

func TestRecordLogs(t *testing.T) {
	res := Run(Config{Sessions: 20, Seed: 19, RecordLogs: true})
	if len(res.Entries) == 0 {
		t.Fatal("RecordLogs produced no entries")
	}
	// Entries must carry session keys that exist in ground truth.
	known := 0
	for _, e := range res.Entries {
		if _, ok := res.GroundTruth[session.Key{IP: e.ClientIP, UserAgent: e.UserAgent}]; ok {
			known++
		}
	}
	if known == 0 {
		t.Fatal("no log entries map back to launched agents")
	}
}

func TestMixDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Mix != CoDeeNMix() || cfg.Sessions != 200 {
		t.Fatalf("defaults = %+v", cfg)
	}
	weights, kinds, forged := cfg.Mix.weightsAndKinds()
	if len(weights) != len(kinds) || len(kinds) != len(forged) {
		t.Fatal("mix flattening inconsistent")
	}
}
