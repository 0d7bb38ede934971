package core

import (
	"testing"
	"time"
)

const pageDoc = "<html><head><title>x</title></head><body><p>hello</p></body></html>"

// TestPreparePageZeroAlloc gates the zero-copy serve path at zero
// allocations per page view: numeric key issue and in-place fragment
// composition. The warmup takes the client past the keystore's per-client
// batch cap, so the gate measures the eviction steady state.
func TestPreparePageZeroAlloc(t *testing.T) {
	e := New(Config{Seed: 25, ObfuscateJS: true, Shards: 1})
	var ps PageState
	for i := 0; i < 600; i++ {
		prep := e.PreparePage("10.9.0.1", "Firefox/1.5", "/warm.html", &ps)
		_ = prep
	}
	allocs := testing.AllocsPerRun(300, func() {
		e.PreparePage("10.9.0.1", "Firefox/1.5", "/hot.html", &ps)
	})
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("PreparePage allocated %.2f/op, want 0", allocs)
	}
}

// TestStartRotator exercises both rotation triggers.
func TestStartRotator(t *testing.T) {
	e := New(Config{Seed: 29})
	before := e.Telemetry().ScriptRotations.Value()
	stop := e.StartRotator(5*time.Millisecond, 0)
	deadline := time.Now().Add(2 * time.Second)
	for e.Telemetry().ScriptRotations.Value() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if e.Telemetry().ScriptRotations.Value() == before {
		t.Fatal("interval rotator never rotated")
	}

	// The inert configuration must return a working no-op stop.
	e.StartRotator(0, 0)()
}

// TestSweeperPassFitsIdleTimeout pins the sweeper's derived step: at every
// shard count a full pass over the table fits four times into the idle
// timeout (botproxy's old fixed minute made a pass of 512 shards take 8.5
// hours against a one-hour timeout), unless the one-second floor is what
// stretches it.
func TestSweeperPassFitsIdleTimeout(t *testing.T) {
	for _, shards := range []int{1, 8, 512} {
		e := New(Config{Seed: 29, Shards: shards})
		step := e.sweepInterval()
		if pass := step * time.Duration(e.ShardCount()); pass > e.cfg.SessionIdleTimeout/4 && step != time.Second {
			t.Errorf("%d shards: step %v, a pass takes %v against an idle timeout of %v", shards, step, pass, e.cfg.SessionIdleTimeout)
		}
	}
	if step := New(Config{Seed: 29, Shards: 512, SessionIdleTimeout: time.Minute}).sweepInterval(); step != time.Second {
		t.Errorf("step %v, want the one-second floor", step)
	}
	stop := New(Config{Seed: 29}).StartSweeper()
	stop()
	stop() // idempotent, and returns only once the loop has exited
}
