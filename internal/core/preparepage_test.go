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
