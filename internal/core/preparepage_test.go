package core

import (
	"testing"
	"time"

	"botdetect/internal/session"
)

const pageDoc = "<html><head><title>x</title></head><body><p>hello</p></body></html>"

// TestPrepareZeroAlloc gates the zero-copy serve path at zero allocations
// per page view: the verdict read, numeric key issue and in-place fragment
// composition. The warmup takes the client past the keystore's per-client
// batch cap, so the gate measures the eviction steady state.
func TestPrepareZeroAlloc(t *testing.T) {
	e := New(Config{Seed: 25, ObfuscateJS: true, Shards: 1})
	var ps PageState
	for i := 0; i < 600; i++ {
		prepareFor(e, AdmitFull, "10.9.0.1", "Firefox/1.5", &ps)
	}
	allocs := testing.AllocsPerRun(300, func() {
		prepareFor(e, AdmitFull, "10.9.0.1", "Firefox/1.5", &ps)
	})
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("Decide+Prepare allocated %.2f/op, want 0", allocs)
	}
}

// TestPrepareLiteZeroAlloc gates a proven human's page views — seven in
// eight lite, the rest full — at zero allocations: the verdict read is a
// pooled Peek and a stored-verdict hit.
func TestPrepareLiteZeroAlloc(t *testing.T) {
	e, vc := newTestEngine(Config{Seed: 26, ObfuscateJS: true, Shards: 1})
	key := session.Key{IP: "10.9.0.2", UserAgent: "Firefox/1.5"}
	proveHuman(t, e, vc, key)
	var ps PageState
	for i := 0; i < 600; i++ {
		prepareFor(e, AdmitFull, key.IP, key.UserAgent, &ps)
	}
	before := e.Stats().PagesLite
	allocs := testing.AllocsPerRun(300, func() {
		prepareFor(e, AdmitFull, key.IP, key.UserAgent, &ps)
	})
	if lite := e.Stats().PagesLite - before; lite < 200 {
		t.Fatalf("%d of 301 views lite, want about seven in eight", lite)
	}
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("Decide+Prepare for a definite human allocated %.2f/op, want 0", allocs)
	}
}

// TestStartRotator exercises both rotation triggers on chosen tick times:
// the interval counts from one poll before the first tick, a page-count
// rotation restarts it, and neither fires early.
func TestStartRotator(t *testing.T) {
	e := New(Config{Seed: 29})
	rotations := func() int64 { return e.Telemetry().ScriptRotations.Value() }
	t0 := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)

	// Interval only: the poll is the interval, so the first tick rotates.
	step := e.rotatorStep(time.Minute, time.Minute, 0)
	before := rotations()
	step(t0)
	step(t0.Add(30 * time.Second))
	if got := rotations() - before; got != 1 {
		t.Fatalf("after the first tick and half an interval: %d rotations, want 1", got)
	}
	step(t0.Add(time.Minute))
	if got := rotations() - before; got != 2 {
		t.Fatalf("a full interval after the last rotation: %d rotations, want 2", got)
	}

	// Both triggers, polled every second against a one-minute interval.
	step = e.rotatorStep(time.Second, time.Minute, 3)
	before = rotations()
	step(t0)
	if got := rotations() - before; got != 0 {
		t.Fatalf("first poll, no pages, a second into the interval: %d rotations, want 0", got)
	}
	var ps PageState
	for i := 0; i < 3; i++ {
		prepareFor(e, AdmitFull, "10.9.0.2", "Firefox/1.5", &ps)
		e.RecordInstrumented(len(pageDoc), 1)
	}
	step(t0.Add(50 * time.Second))
	if got := rotations() - before; got != 1 {
		t.Fatalf("three pages instrumented: %d rotations, want 1", got)
	}
	step(t0.Add(70 * time.Second)) // a minute after the start, 20 s after the page-count rotation
	if got := rotations() - before; got != 1 {
		t.Fatalf("the page-count rotation did not restart the interval: %d rotations, want 1", got)
	}
	step(t0.Add(110 * time.Second))
	if got := rotations() - before; got != 2 {
		t.Fatalf("a full interval after the page-count rotation: %d rotations, want 2", got)
	}

	// The inert configuration must return a working no-op stop.
	e.StartRotator(0, 0)()
}

// TestEvery checks the one loop behind the rotator, the trainer and the
// sweeper: it ticks, hands the tick's time over, and stop is idempotent and
// returns only once the loop has exited.
func TestEvery(t *testing.T) {
	ticks := make(chan time.Time, 1)
	stop := every(time.Nanosecond, func(tick time.Time) {
		select {
		case ticks <- tick:
		default:
		}
	})
	if tick := <-ticks; tick.IsZero() {
		t.Fatal("every handed its step a zero tick time")
	}
	stop()
	stop()
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
