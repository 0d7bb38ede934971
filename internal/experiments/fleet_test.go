package experiments

import "testing"

// TestFleetBenchHeadline runs the fleet experiment end to end: the
// coordinated crawler must evade every isolated engine yet be blocked
// fleet-wide, the node kill must lose nothing acked, and humans must never be
// refused.
func TestFleetBenchHeadline(t *testing.T) {
	res := FleetBench(7)
	if res.IsolatedCrawlersBlocked != 0 || res.IsolatedRobotVerdicts != 0 {
		t.Fatalf("isolated engines caught the distributed crawler: %+v", res)
	}
	if res.FleetCrawlersBlocked != res.Crawlers {
		t.Fatalf("fleet blocked %d/%d crawlers", res.FleetCrawlersBlocked, res.Crawlers)
	}
	if res.FleetRobotVerdicts != res.Crawlers {
		t.Fatalf("fleet derived %d/%d robot verdicts", res.FleetRobotVerdicts, res.Crawlers)
	}
	if res.HumansBlocked != 0 {
		t.Fatalf("%d human requests refused", res.HumansBlocked)
	}
	if res.VerdictsLostBeyondBound != 0 {
		t.Fatalf("node kill lost %d verdicts beyond the acked bound", res.VerdictsLostBeyondBound)
	}
	if !res.MinorityIsolated {
		t.Fatal("partitioned minority never degraded to isolated mode")
	}
	if !res.ModelPublished {
		t.Fatal("model publication did not reach the whole fleet")
	}
	if res.BlockedOnRestartedNode != res.Crawlers {
		t.Fatalf("restarted node restored %d/%d blocks", res.BlockedOnRestartedNode, res.Crawlers)
	}

	// The whole run is on one virtual clock: the same seed gives the same
	// report, wall-clock measurements aside.
	again := FleetBench(7)
	for _, r := range []*FleetResult{&res, &again} {
		r.DurationSec, r.PublishGoroutines, r.PublishOps, r.PublishNsPerOp = 0, 0, 0, 0
	}
	if res != again {
		t.Fatalf("two runs with one seed differ:\n%s\n%s", res.JSON(), again.JSON())
	}
}
