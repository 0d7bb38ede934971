package experiments

import "testing"

// TestOverloadBenchReproducible runs the flash-crowd experiment end to end,
// twice: the ladder must saturate and shed without ever evicting evidence,
// the established cohort must be served whenever the origin can be reached,
// the breaker must go round exactly once through its probe, and — the whole
// run being one driver on one virtual clock — the same seed must give the
// same report, the two wall measurements aside.
func TestOverloadBenchReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("stands up two loopback servers and issues ~14,000 requests")
	}
	res := OverloadBench(7)
	if res.PeakLoadState != "saturated" {
		t.Errorf("peak load state %s, want saturated", res.PeakLoadState)
	}
	if res.EvictedCapacityEvidence != 0 {
		t.Errorf("%d evidence-bearing sessions evicted for capacity", res.EvictedCapacityEvidence)
	}
	if res.EstablishedSurvived != res.Established {
		t.Errorf("%d/%d established sessions survived with their evidence", res.EstablishedSurvived, res.Established)
	}
	if res.EstablishedRequests == 0 || res.EstablishedServed == 0 || res.EstablishedRefused == 0 ||
		res.EstablishedServed+res.EstablishedRefused != res.EstablishedRequests {
		t.Errorf("established cohort: %d requests, %d served instrumented, %d refused during the outage; each must be non-zero and the two must sum",
			res.EstablishedRequests, res.EstablishedServed, res.EstablishedRefused)
	}
	if res.BreakerOpens != 1 || res.BreakerProbes != 1 || res.BreakerRecoveries != 1 {
		t.Errorf("breaker opens/probes/recoveries = %d/%d/%d, want 1/1/1", res.BreakerOpens, res.BreakerProbes, res.BreakerRecoveries)
	}
	// The recovery loop stops at two passes over the shards, so reaching
	// normal at all is reaching it within them.
	if res.FinalLoadState != "normal" {
		t.Errorf("load state %s after %d recovery sweeps, want normal", res.FinalLoadState, res.RecoverySweeps)
	}
	if res.GoroutinesDelta != 0 {
		t.Errorf("goroutine delta %+d, want 0", res.GoroutinesDelta)
	}

	again := OverloadBench(7)
	for _, r := range []*OverloadResult{&res, &again} {
		r.DurationSec, r.RSSBytes = 0, 0
	}
	if res != again {
		t.Fatalf("two runs with one seed differ:\n%s\n%s", res.JSON(), again.JSON())
	}
}
