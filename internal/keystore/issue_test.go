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
			iss := issue(t, s, ip, "/x.html")
			if v := s.Validate(ip, wire(iss, iss.Key)); v != Human {
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

	first := issue(t, s, "10.2.0.1", "/a.html")
	fc.Advance(9 * time.Minute)
	second := issue(t, s, "10.2.0.1", "/b.html") // skip path: nothing expired yet
	if n := s.OutstandingKeys("10.2.0.1"); n != 4 {
		t.Fatalf("outstanding = %d, want 4", n)
	}
	fc.Advance(2 * time.Minute) // first batch now expired, second alive
	third := issue(t, s, "10.2.0.1", "/c.html")
	if v := s.ValidateValue("10.2.0.1", first.Key); v != Unknown {
		t.Fatalf("expired key = %v, want Unknown", v)
	}
	if v := s.ValidateValue("10.2.0.1", second.Key); v != Human {
		t.Fatalf("live key = %v, want Human", v)
	}
	// After the scan the bound is exact: another TTL-1 of quiet issuing
	// must keep the remaining keys alive.
	fc.Advance(9 * time.Minute)
	if v := s.ValidateValue("10.2.0.1", third.Key); v != Human {
		t.Fatalf("third key = %v, want Human", v)
	}
}

// TestIssueAllocCeiling pins the allocation budget of a page view whose
// script is downloaded and whose keys come back — IssuePage, the PageKeysFor
// that derives its keys, then ValidateValue of the real key and of a decoy —
// at zero once the client's window and the caller's decoy buffer have grown:
// the window drops its oldest page view in place, and the permutation works
// in the shard's own AES block.
func TestIssueAllocCeiling(t *testing.T) {
	s := New(Config{Decoys: 4, KeyDigits: 10})
	var pk PageKeys
	view := func() {
		s.IssuePage("10.3.0.1", "/hot.html", &pk)
		pk.Key, pk.Decoys, _ = s.PageKeysFor("10.3.0.1", pk.ScriptToken, pk.Decoys[:0])
		if s.ValidateValue("10.3.0.1", pk.Key) != Human || s.ValidateValue("10.3.0.1", pk.Decoys[0]) != Decoy {
			t.Fatal("the downloaded keys do not validate")
		}
	}
	// Warm the client so the log's capacity settles at the per-client cap.
	for i := 0; i < 300; i++ {
		view()
	}
	allocs := testing.AllocsPerRun(200, view)
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 || len(pk.Decoys) != 4 || s.Stats().Drawn != s.Stats().Issued {
		t.Fatalf("issue + draw allocated %.1f/op, want 0 (decoys %d, drawn %d of %d)", allocs, len(pk.Decoys), s.Stats().Drawn, s.Stats().Issued)
	}
}

// TestIssuePageZeroAlloc pins the numeric issue path at zero allocations
// per page at steady state: tokens are derived straight into the
// caller-owned PageKeys and the client's window drops from its front in
// place.
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
