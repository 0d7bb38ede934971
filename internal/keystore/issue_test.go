package keystore

import (
	"fmt"
	"testing"
	"time"

	"botdetect/internal/clock"
)

// TestClientStateRecycling hammers the client-cap eviction path: an evicted
// client's keys must never validate for the next occupant of its slot.
func TestClientStateRecycling(t *testing.T) {
	s := capClients(New(Config{Decoys: 2, Shards: 1}), 4)
	for round := 0; round < 6; round++ {
		for i := 0; i < 8; i++ {
			ip := fmt.Sprintf("10.1.%d.%d", round, i)
			iss := s.Issue(ip, "/x.html")
			if v := s.Validate(ip, iss.Key); v != Human {
				t.Fatalf("round %d client %d: verdict %v", round, i, v)
			}
			// A stale key from an evicted state must not leak into the new
			// occupant.
			if v := s.Validate(ip, "0000000000"); v == Human || v == Decoy {
				t.Fatalf("recycled state leaked a key: %v", v)
			}
		}
		if c := s.Clients(); c > 4 {
			t.Fatalf("clients = %d, want <= 4", c)
		}
	}
	if ev := s.Stats().EvictedClients; ev == 0 {
		t.Fatal("expected evictions")
	}
}

// TestExpirySkipStaysCorrect drives the oldest-key fast path across TTL
// boundaries with a fake clock: keys must still expire exactly, and the
// skip must never mask an expiry.
func TestExpirySkipStaysCorrect(t *testing.T) {
	fc := clock.NewVirtual(time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC))
	s := New(Config{Decoys: 1, TTL: 10 * time.Minute, Clock: fc, Shards: 1})

	first := s.Issue("10.2.0.1", "/a.html")
	fc.Advance(9 * time.Minute)
	second := s.Issue("10.2.0.1", "/b.html") // skip path: nothing expired yet
	if n := s.OutstandingKeys("10.2.0.1"); n != 4 {
		t.Fatalf("outstanding = %d, want 4", n)
	}
	fc.Advance(2 * time.Minute) // first batch now expired, second alive
	third := s.Issue("10.2.0.1", "/c.html")
	_ = third
	if v := s.Validate("10.2.0.1", first.Key); v != Unknown {
		t.Fatalf("expired key = %v, want Unknown", v)
	}
	if v := s.Validate("10.2.0.1", second.Key); v != Human {
		t.Fatalf("live key = %v, want Human", v)
	}
	// After the scan the bound is exact: another TTL-1 of quiet issuing
	// must keep the remaining keys alive.
	fc.Advance(9 * time.Minute)
	if v := s.Validate("10.2.0.1", third.Key); v != Human {
		t.Fatalf("third key = %v, want Human", v)
	}
}

// TestIssueAllocCeiling pins the allocation budget of the hot-path Issue:
// the key and token strings it must hand out, the decoy slice, and nothing
// else at steady state (the key log is compacted in place, candidate draws use
// a stack buffer).
func TestIssueAllocCeiling(t *testing.T) {
	s := New(Config{Decoys: 4, KeyDigits: 10})
	// Warm the client so the log's capacity settles at the per-client cap.
	for i := 0; i < 200; i++ {
		s.Issue("10.3.0.1", "/warm.html")
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.Issue("10.3.0.1", "/hot.html")
	})
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	// 5 key strings + 3 token strings + 1 decoy slice = 9 unavoidable
	// allocations; allow some slack.
	const ceiling = 14
	if allocs > ceiling {
		t.Fatalf("Issue allocated %.1f/op, ceiling %d", allocs, ceiling)
	}
}

// TestIssuePageZeroAlloc pins the numeric issue path at zero allocations
// per page at steady state: tokens are drawn straight into the caller-owned
// PageKeys and the client's log is compacted in place.
func TestIssuePageZeroAlloc(t *testing.T) {
	s := New(Config{Decoys: 4, KeyDigits: 10})
	var pk PageKeys
	// Warm until the per-client cap (64 batches) cycles and every backing
	// array has reached its steady-state capacity.
	for i := 0; i < 300; i++ {
		s.IssuePage("10.4.0.1", "/warm.html", &pk)
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.IssuePage("10.4.0.1", "/hot.html", &pk)
	})
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("IssuePage allocated %.1f/op, want 0", allocs)
	}
}

// TestIssuePageMatchesIssue pins the string wrapper to the numeric path:
// same seed, same sequence, Issue must format exactly the digits IssuePage
// and the script download's PageKeysFor draw.
func TestIssuePageMatchesIssue(t *testing.T) {
	a := New(Config{Seed: 9, Decoys: 3, KeyDigits: 12})
	b := New(Config{Seed: 9, Decoys: 3, KeyDigits: 12})
	var pk PageKeys
	for i := 0; i < 10; i++ {
		iss := a.Issue("10.5.0.1", "/p.html")
		b.IssuePage("10.5.0.1", "/p.html", &pk)
		download(t, b, "10.5.0.1", &pk)
		got := pk.Issued()
		if got.Key != iss.Key || got.CSSToken != iss.CSSToken ||
			got.ScriptToken != iss.ScriptToken || got.HiddenToken != iss.HiddenToken {
			t.Fatalf("issue %d: numeric path differs from string path:\n%+v\n%+v", i, got, iss)
		}
		if len(got.Decoys) != 3 || len(iss.Decoys) != 3 {
			t.Fatalf("issue %d: decoys %v vs %v, want 3 each", i, got.Decoys, iss.Decoys)
		}
		for j := range iss.Decoys {
			if got.Decoys[j] != iss.Decoys[j] {
				t.Fatalf("issue %d decoy %d differs: %q vs %q", i, j, got.Decoys[j], iss.Decoys[j])
			}
		}
		if len(iss.Key) != 12 {
			t.Fatalf("key %q not 12 digits", iss.Key)
		}
		// Both stores must agree on validation, including leading zeros.
		if va, vb := a.Validate("10.5.0.1", iss.Key), b.Validate("10.5.0.1", iss.Key); va != Human || vb != Human {
			t.Fatalf("issue %d: verdicts %v/%v, want Human", i, va, vb)
		}
	}
	// Wrong-width keys never validate, so "007" and "7" cannot collide.
	if v := a.Validate("10.5.0.1", "7"); v != Unknown {
		t.Fatalf("short key = %v, want Unknown", v)
	}
}
