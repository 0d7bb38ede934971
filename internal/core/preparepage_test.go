package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"botdetect/internal/htmlmod"
)

const pageDoc = "<html><head><title>x</title></head><body><p>hello</p></body></html>"

// TestPreparePageMatchesPrepareInstrumentation proves the numeric zero-copy
// path is observationally identical to the legacy string path: same keys,
// same injected fragments, same script bodies.
func TestPreparePageMatchesPrepareInstrumentation(t *testing.T) {
	a := New(Config{Seed: 21, ObfuscateJS: true})
	b := New(Config{Seed: 21, ObfuscateJS: true})

	var ps PageState
	for i := 0; i < 40; i++ {
		ip := fmt.Sprintf("10.7.0.%d", i%5)
		page := fmt.Sprintf("/p%d.html", i)

		prepA, instA := a.PrepareInstrumentation(ip, "Firefox/1.5", page)
		outA := prepA.Rewrite([]byte(pageDoc))
		prepA.Release()

		prepB := b.PreparePage(ip, "Firefox/1.5", page, &ps)
		outB := prepB.Rewrite([]byte(pageDoc))
		prepB.Release() // caller-owned: must be a no-op

		if !bytes.Equal(outA.HTML, outB.HTML) {
			t.Fatalf("page %d: PreparePage HTML diverged from PrepareInstrumentation:\n%q\nvs\n%q", i, outA.HTML, outB.HTML)
		}
		got := ps.Keys().Issued()
		if got.Key != instA.Issued.Key || got.CSSToken != instA.Issued.CSSToken ||
			got.ScriptToken != instA.Issued.ScriptToken || got.HiddenToken != instA.Issued.HiddenToken ||
			fmt.Sprint(got.Decoys) != fmt.Sprint(instA.Issued.Decoys) {
			t.Fatalf("page %d: keys diverged: %+v vs %+v", i, got, instA.Issued)
		}

		respA, _ := a.HandleBeacon(ip, "Firefox/1.5", instA.ScriptPath)
		respB, _ := b.HandleBeacon(ip, "Firefox/1.5", instA.ScriptPath)
		if !bytes.Equal(respA.Body, respB.Body) {
			t.Fatalf("page %d: script bodies diverged", i)
		}
		respA.Done()
		respB.Done()
	}
}

// TestPrepareInstrumentationBatchMatchesSequential proves the batched
// keystore pass issues the same keys and composes the same fragments as
// one-at-a-time preparation.
func TestPrepareInstrumentationBatchMatchesSequential(t *testing.T) {
	seq := New(Config{Seed: 23, ObfuscateJS: true})
	bat := New(Config{Seed: 23, ObfuscateJS: true})

	pages := []string{"/a.html", "/b.html", "/c.html", "/d.html", "/e.html"}

	var wantHTML [][]byte
	var wantScripts []string
	for _, p := range pages {
		prep, inst := seq.PrepareInstrumentation("10.8.0.1", "Firefox/1.5", p)
		wantHTML = append(wantHTML, prep.Rewrite([]byte(pageDoc)).HTML)
		wantScripts = append(wantScripts, inst.ScriptPath)
		prep.Release()
	}

	preps, insts := bat.PrepareInstrumentationBatch("10.8.0.1", "Firefox/1.5", pages, nil)
	if len(preps) != len(pages) || len(insts) != len(pages) {
		t.Fatalf("batch returned %d preps, %d insts; want %d", len(preps), len(insts), len(pages))
	}
	for i, prep := range preps {
		if got := prep.Rewrite([]byte(pageDoc)).HTML; !bytes.Equal(got, wantHTML[i]) {
			t.Fatalf("page %d: batch HTML diverged from sequential", i)
		}
		if insts[i].ScriptPath != wantScripts[i] {
			t.Fatalf("page %d: batch script path %q, sequential %q", i, insts[i].ScriptPath, wantScripts[i])
		}
		prep.Release()
	}

	// Both engines must serve identical scripts for identical tokens.
	for _, path := range wantScripts {
		ra, _ := seq.HandleBeacon("10.8.0.1", "Firefox/1.5", path)
		rb, _ := bat.HandleBeacon("10.8.0.1", "Firefox/1.5", path)
		if !bytes.Equal(ra.Body, rb.Body) {
			t.Fatalf("script %q: batch body diverged from sequential", path)
		}
		ra.Done()
		rb.Done()
	}
}

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

	// Released Prepareds from the pooled wrapper recycle their PageStates;
	// sanity-check the pool round-trips one.
	prep, _ := e.PrepareInstrumentation("10.11.0.1", "Firefox/1.5", "/x.html")
	var got *htmlmod.Prepared = prep
	got.Release()
}
