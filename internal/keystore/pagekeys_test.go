package keystore

import (
	"slices"
	"testing"
	"time"
)

// TestPageKeysForFollowsBatchesThroughCompaction issues page views of
// differing decoy counts, downloads their scripts out of issue order (some at
// once, some only after neighbours were dropped), kills some by TTL — one at
// the window's front, one behind it that keeps its slot — and some by the
// per-client cap, and checks that every survivor is still found under its
// script token with exactly the keys its first download handed out: headers
// are indexed by page-view number minus the window's first, so a drop that
// drifts by one hands a page view its neighbour's header.
func TestPageKeysForFollowsBatchesThroughCompaction(t *testing.T) {
	const ip = "10.0.0.1"
	s, vc := newTestStore(t, Config{Decoys: 4, TTL: time.Hour, Shards: 1})
	type page struct {
		token  uint64
		owed   int // decoys
		drawn  bool
		key    uint64
		decoys []uint64
	}
	var issued []*page
	issue := func(decoys int, ttl time.Duration) {
		var pk PageKeys
		s.IssuePageDegraded(ip, "/p.html", decoys, ttl, &pk)
		if pk.Key != 0 || len(pk.Decoys) != 0 {
			t.Fatalf("issue handed out keys: %+v", pk)
		}
		issued = append(issued, &page{token: pk.ScriptToken, owed: decoys})
	}
	check := func(i int, wantLive bool) {
		t.Helper()
		p := issued[i]
		key, decoys, ok := s.PageKeysFor(ip, p.token, nil)
		if ok != wantLive {
			t.Fatalf("batch %d: live = %v, want %v", i, ok, wantLive)
		}
		if !ok {
			return
		}
		if !p.drawn {
			if len(decoys) != p.owed {
				t.Fatalf("batch %d: drew %d decoys, owed %d", i, len(decoys), p.owed)
			}
			p.drawn, p.key, p.decoys = true, key, decoys
		}
		if key != p.key || !slices.Equal(decoys, p.decoys) {
			t.Fatalf("batch %d: got key %d decoys %v, first download drew key %d decoys %v", i, key, decoys, p.key, p.decoys)
		}
	}
	outstanding := func(want int) {
		t.Helper()
		if n := s.outstandingKeys(ip); n != want {
			t.Fatalf("outstanding keys = %d, want %d", n, want)
		}
	}

	issue(3, 10*time.Minute) // 0: dies by TTL
	issue(1, 0)              // 1
	issue(4, 10*time.Minute) // 2: dies by TTL
	issue(0, 0)              // 3
	issue(2, 0)              // 4
	outstanding(0)
	for _, i := range []int{3, 0, 4} { // out of issue order: 0's run is inserted before 3's
		check(i, true)
	}
	outstanding(1 + 4 + 3)
	for i, p := range issued {
		if _, _, ok := s.PageKeysFor("10.0.0.2", p.token, nil); ok {
			t.Fatalf("batch %d found under another client's address", i)
		}
	}
	outstanding(1 + 4 + 3) // a stranger's request draws nothing

	vc.Advance(11 * time.Minute)
	check(0, false) // drawn, expired but not yet dropped: liveness must not wait for the drop
	check(2, false) // never drawn and now expired: an expired page view is never drawn
	outstanding(1 + 4 + 3)
	issue(4, 0) // 5: the issue drops 0 from the front; 2 keeps its slot, lapsed
	outstanding(1 + 3)
	for i, live := range []bool{false, true, false, true, true, true} {
		check(i, live) // 1 and 5 are drawn here, around the survivors
	}
	outstanding(2 + 1 + 3 + 5)

	issue(3, 0) // 6
	issue(1, 0) // 7
	for len(issued) < maxPerClient+3 {
		issue(2, 0) // the window is the last 64 issues, so 1 and 2 fall to the cap
	}
	outstanding(1 + 3 + 5)
	for i := range issued {
		check(i, i >= 3)
	}

	if v := s.ValidateValue(ip, issued[3].key); v != Human {
		t.Fatalf("validate = %v", v)
	}
	check(3, true) // a consumed key is still a live batch: the script re-renders
	if st := s.Stats(); st.Issued != maxPerClient+3 || st.Drawn != maxPerClient+2 {
		t.Fatalf("stats = %+v, want 67 issued, 66 drawn (batch 2 died undrawn)", st)
	}
}

// TestNoKeyBeforeScriptRequest pins the lazy draw's security property: until
// a page's script is requested the page has no key, so the value that request
// would draw proves nothing beforehand — and proves a human right after.
func TestNoKeyBeforeScriptRequest(t *testing.T) {
	const ip = "10.0.0.1"
	cfg := Config{Seed: 5, Decoys: 3, Shards: 1}
	// An oracle store with the same seed and history tells us which values
	// the download is going to draw.
	oracle, _ := newTestStore(t, cfg)
	s, _ := newTestStore(t, cfg)
	var want, pk PageKeys
	oracle.IssuePage(ip, "/p.html", &want)
	download(t, oracle, ip, &want)
	s.IssuePage(ip, "/p.html", &pk)
	if pk.ScriptToken != want.ScriptToken {
		t.Fatalf("stores diverged: token %d vs %d", pk.ScriptToken, want.ScriptToken)
	}

	for _, k := range append([]uint64{want.Key, 0}, want.Decoys...) {
		if v := s.ValidateValue(ip, k); v != Unknown {
			t.Fatalf("key %d before any script request = %v, want Unknown", k, v)
		}
	}
	if n := s.outstandingKeys(ip); n != 0 {
		t.Fatalf("outstanding keys before any script request = %d, want 0", n)
	}
	download(t, s, ip, &pk)
	if pk.Key != want.Key || !slices.Equal(pk.Decoys, want.Decoys) {
		t.Fatalf("download drew (%d, %v), oracle (%d, %v)", pk.Key, pk.Decoys, want.Key, want.Decoys)
	}
	if v := s.ValidateValue(ip, pk.Key); v != Human {
		t.Fatalf("key after the script request = %v, want Human", v)
	}
	if st := s.Stats(); st.Issued != 1 || st.Drawn != 1 || st.UnknownHits != 5 || st.HumanHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestForeignScriptTokenServesNoKeys pins what replaced the script-token
// tag: a token names a page view only under the tweak it was issued under,
// the presenting client's address and incarnation. The same page-view
// numbers held by another client, by the same address after an eviction, or
// by the same client after it ran out of numbers and took a fresh
// incarnation, answer a foreign or earlier token with no keys and draw
// nothing; the earlier incarnation's keys are Unknown, and the current
// page views still serve theirs.
func TestForeignScriptTokenServesNoKeys(t *testing.T) {
	const a, b = "10.0.0.1", "10.0.0.2"
	s := capClients(New(Config{Seed: 2, Decoys: 2, Shards: 1}), 2)
	issueN := func(ip string, n int) []*PageKeys {
		var pages []*PageKeys
		for range n {
			pk := new(PageKeys)
			s.IssuePage(ip, "/p.html", pk)
			pages = append(pages, pk)
		}
		return pages
	}
	refused := func(when, ip string, pages []*PageKeys) {
		t.Helper()
		drawn := s.Stats().Drawn
		for i, pk := range pages {
			if key, decoys, ok := s.PageKeysFor(ip, pk.ScriptToken, nil); ok {
				t.Fatalf("%s: page view %d's token served %s (%d, %v)", when, i, ip, key, decoys)
			}
			if pk.Key != 0 {
				if v := s.ValidateValue(ip, pk.Key); v != Unknown {
					t.Fatalf("%s: page view %d's key = %v for %s, want Unknown", when, i, v, ip)
				}
			}
		}
		if s.Stats().Drawn != drawn {
			t.Fatalf("%s: a refused token drew a page view", when)
		}
	}
	served := func(when, ip string, pages []*PageKeys) {
		t.Helper()
		for i, pk := range pages {
			download(t, s, ip, pk)
			if len(pk.Decoys) != 2 {
				t.Fatalf("%s: page view %d served %d decoys", when, i, len(pk.Decoys))
			}
		}
	}

	// The same numbers 0..7 at two addresses.
	pagesA, pagesB := issueN(a, 8), issueN(b, 8)
	refused("another client", b, pagesA)
	refused("another client", a, pagesB)
	served("the owner", a, pagesA)
	served("the owner", b, pagesB)

	// a is evicted by a third client, then comes back with numbers 0..7.
	s.IssuePage("10.0.0.3", "/p.html", new(PageKeys))
	s.IssuePage(b, "/p.html", new(PageKeys))
	if s.outstandingKeys(a) != 0 || s.Stats().EvictedClients != 1 {
		t.Fatalf("a was not evicted: %+v", s.Stats())
	}
	again := issueN(a, 8)
	refused("an earlier incarnation", a, pagesA)
	served("the re-created client", a, again)

	// a runs out of numbers: the ninth issue takes a fresh incarnation.
	s.views = 8
	wrapped := issueN(a, 1)
	refused("before the wrap", a, again)
	served("after the wrap", a, wrapped)
	if got := s.incarnations.Load(); got != 5 {
		t.Fatalf("incarnations = %d, want 5 (a, b, the third client, a again, a wrapped)", got)
	}
}
