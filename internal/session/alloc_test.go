package session

import (
	"fmt"
	"testing"
)

// TestObserveQuietPeekZeroAlloc gates the steady-state request path the
// million-session engine is built around: once a session exists and its path
// table has grown to cover the working set, observing a request, peeking the
// snapshot and releasing it must allocate nothing. The run crosses
// power-of-two epoch bumps.
func TestObserveQuietPeekZeroAlloc(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	key := Key{IP: "9.9.9.9", UserAgent: "Firefox"}

	// Warm up: create the session and insert the full working set of paths
	// so the path set is done growing before measurement.
	for i := 0; i < 64; i++ {
		tr.ObserveQuiet(entry("9.9.9.9", "Firefox", "GET", fmt.Sprintf("/p%d.html", i%8), 200, "", now))
	}

	e := entry("9.9.9.9", "Firefox", "GET", "/p0.html", 200, "", now)
	allocs := testing.AllocsPerRun(500, func() {
		tr.ObserveQuiet(e)
		snap, ok := tr.Peek(key)
		if !ok {
			t.Fatal("session vanished mid-run")
		}
		if snap.Counts.Total == 0 {
			t.Fatal("empty snapshot")
		}
		snap.Release()
	})
	if raceEnabled {
		t.Skip("alloc ceiling not meaningful under -race")
	}
	if allocs != 0 {
		t.Errorf("steady-state observe+peek = %v allocs/op, want 0", allocs)
	}
}
