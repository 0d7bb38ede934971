package session

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCapacityEvictionPrefersAnonymous pins the overload guarantee: a full
// shard never evicts an evidence-bearing session while an anonymous victim
// is within the scan window, even when the evidence session is the strict
// LRU tail — the exact position a flood of brand-new clients would wash out
// under plain LRU.
func TestCapacityEvictionPrefersAnonymous(t *testing.T) {
	var mu sync.Mutex
	var gone []Key
	tr, vc := newTestTracker(Config{MaxSessions: 4, Shards: 1, Evicted: func(s Snapshot) {
		mu.Lock()
		gone = append(gone, s.Key)
		mu.Unlock()
	}})
	now := vc.Now()

	tr.Observe(entry("10.0.0.1", "UA", "GET", "/a.html", 200, "", now))
	if !tr.Mark(Key{IP: "10.0.0.1", UserAgent: "UA"}, SignalMouse) {
		t.Fatal("Mark on tracked session failed")
	}
	// Later activity on three anonymous sessions pushes the evidence
	// session to the LRU tail.
	for i, ip := range []string{"10.0.0.2", "10.0.0.3", "10.0.0.4"} {
		tr.Observe(entry(ip, "UA", "GET", "/a.html", 200, "", now.Add(time.Duration(i+1)*time.Minute)))
	}

	// The fifth session overflows the cap. The tail (10.0.0.1) carries a
	// signal, so the scan must skip it and evict the oldest anonymous
	// session (10.0.0.2) instead.
	tr.Observe(entry("10.0.0.5", "UA", "GET", "/a.html", 200, "", now.Add(10*time.Minute)))

	if _, ok := peekCopy(tr, Key{IP: "10.0.0.1", UserAgent: "UA"}); !ok {
		t.Fatal("evidence-bearing LRU-tail session was evicted; want an anonymous victim")
	}
	if _, ok := peekCopy(tr, Key{IP: "10.0.0.2", UserAgent: "UA"}); ok {
		t.Fatal("oldest anonymous session still tracked; want it evicted")
	}
	if got := tr.EvictedByReason(EvictCapacityAnonymous); got != 1 {
		t.Fatalf("EvictCapacityAnonymous = %d, want 1", got)
	}
	if got := tr.EvictedByReason(EvictCapacityEvidence); got != 0 {
		t.Fatalf("EvictCapacityEvidence = %d, want 0", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gone) != 1 || gone[0] != (Key{IP: "10.0.0.2", UserAgent: "UA"}) {
		t.Fatalf("Evicted callback saw %v, want exactly [{10.0.0.2 UA}]", gone)
	}
}

// TestCapacityEvictionAllEvidenceBouncesNewcomer: when every established
// session carries evidence, the anonymous newcomer that caused the overflow
// is itself the best victim in the scan window — a flood of fresh clients
// can cycle through the one spare slot forever without displacing a single
// evidence-bearing session. Only an *evidence-bearing* newcomer forces the
// strict-LRU fallback, reported under its own reason so operators can see
// the bound was genuinely exceeded.
func TestCapacityEvictionAllEvidenceBouncesNewcomer(t *testing.T) {
	tr, vc := newTestTracker(Config{MaxSessions: 3, Shards: 1})
	now := vc.Now()
	for i := 0; i < 3; i++ {
		ip := fmt.Sprintf("10.0.1.%d", i+1)
		at := now.Add(time.Duration(i) * time.Minute)
		tr.Observe(entry(ip, "UA", "GET", "/a.html", 200, "", at))
		if !tr.Mark(Key{IP: ip, UserAgent: "UA"}, SignalJS) {
			t.Fatalf("Mark(%s) failed", ip)
		}
	}

	// Anonymous overflow: the newcomer bounces, everyone with evidence stays.
	tr.Observe(entry("10.0.1.99", "UA", "GET", "/a.html", 200, "", now.Add(time.Hour/2)))
	if _, ok := peekCopy(tr, Key{IP: "10.0.1.99", UserAgent: "UA"}); ok {
		t.Fatal("anonymous newcomer admitted into an all-evidence table; want it bounced")
	}
	for i := 0; i < 3; i++ {
		ip := fmt.Sprintf("10.0.1.%d", i+1)
		if _, ok := peekCopy(tr, Key{IP: ip, UserAgent: "UA"}); !ok {
			t.Fatalf("evidence session %s displaced by an anonymous newcomer", ip)
		}
	}
	if got := tr.EvictedByReason(EvictCapacityAnonymous); got != 1 {
		t.Fatalf("EvictCapacityAnonymous = %d, want 1 (the bounced newcomer)", got)
	}

	// An evidence-bearing newcomer (Mark creates the session) leaves no
	// anonymous victim anywhere: strict LRU evicts the tail.
	if !tr.Mark(Key{IP: "10.0.1.50", UserAgent: "UA"}, SignalMouse) {
		t.Fatal("Mark on a new key did not create the session")
	}
	if _, ok := peekCopy(tr, Key{IP: "10.0.1.1", UserAgent: "UA"}); ok {
		t.Fatal("LRU tail survived an all-evidence overflow; want strict-LRU fallback")
	}
	if got := tr.EvictedByReason(EvictCapacityEvidence); got != 1 {
		t.Fatalf("EvictCapacityEvidence = %d, want 1", got)
	}
}

// TestEvictionStatsRollup: the aggregate view and the per-reason counters
// must agree, and idle expiry must not masquerade as capacity pressure.
func TestEvictionStatsRollup(t *testing.T) {
	tr, vc := newTestTracker(Config{MaxSessions: 2, Shards: 1, IdleTimeout: time.Hour})
	now := vc.Now()
	tr.Observe(entry("10.9.0.1", "UA", "GET", "/a.html", 200, "", now))
	tr.Observe(entry("10.9.0.2", "UA", "GET", "/a.html", 200, "", now.Add(time.Minute)))
	tr.Observe(entry("10.9.0.3", "UA", "GET", "/a.html", 200, "", now.Add(2*time.Minute))) // capacity
	vc.Advance(3 * time.Hour)
	expireAll(tr, vc.Now()) // idle
	tr.Observe(entry("10.9.0.4", "UA", "GET", "/a.html", 200, "", vc.Now()))
	tr.FlushAll() // flush

	st := tr.Evictions()
	if st.CapacityAnonymous != 1 || st.CapacityEvidence != 0 {
		t.Fatalf("capacity counts = %+v", st)
	}
	if st.Idle != 2 {
		t.Fatalf("Idle = %d, want 2", st.Idle)
	}
	if st.Flush != 1 {
		t.Fatalf("Flush = %d, want 1", st.Flush)
	}
	total := st.Idle + st.CapacityAnonymous + st.CapacityEvidence + st.Flush
	if got := tr.Evictions(); got != st {
		t.Fatalf("Evictions not stable: %+v vs %+v", got, st)
	}
	if total != 4 {
		t.Fatalf("total evictions = %d, want 4", total)
	}
}

// TestSweepFollowsMovedNeighbour pins the idle sweep's walk over a table that
// keeps its records dense: removing a session copies the shard's last record
// into the freed slot, and the sweep holds the next session to visit across
// the removal. Three sessions a, b and c take slots 1 to 3 in that order.
// When the walk's saved neighbour is the record that moved (b observed again,
// so c sits between a and b in LRU order: removing a moves c), the walk must
// follow it into a's slot; when the removed session is itself the last
// record and has no neighbour to save (every session expired: c is the head
// and last), nothing moved and the walk must end. Either way exactly the idle
// sessions end, tail first, and the rest stay tracked.
func TestSweepFollowsMovedNeighbour(t *testing.T) {
	for _, tc := range []struct {
		name  string
		touch bool // observe b again, after the sweep's idle deadline
		ended []string
	}{
		{"neighbour in the last slot", true, []string{"a", "c"}},
		{"head in the last slot", false, []string{"a", "b", "c"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ended []string
			tr := NewTracker(Config{Shards: 1, IdleTimeout: time.Hour, Evicted: func(s Snapshot) { ended = append(ended, s.Key.UserAgent) }})
			start := time.Unix(1136073600, 0)
			for _, ua := range []string{"a", "b", "c"} {
				tr.ObserveQuiet(entry("10.0.0.1", ua, "GET", "/", 200, "", start))
			}
			if tc.touch {
				tr.ObserveQuiet(entry("10.0.0.1", "b", "GET", "/", 200, "", start.Add(40*time.Minute)))
			}
			if n := tr.SweepStep(start.Add(90 * time.Minute)); n != len(tc.ended) || fmt.Sprint(ended) != fmt.Sprint(tc.ended) {
				t.Fatalf("the sweep ended %d sessions, %v; want %v", n, ended, tc.ended)
			}
			if want := 3 - len(tc.ended); tr.Active() != want {
				t.Fatalf("%d sessions tracked after the sweep, want %d", tr.Active(), want)
			}
			if _, ok := peekCopy(tr, Key{IP: "10.0.0.1", UserAgent: "b"}); ok != tc.touch {
				t.Fatalf("b tracked: %v, want %v", ok, tc.touch)
			}
		})
	}
}
