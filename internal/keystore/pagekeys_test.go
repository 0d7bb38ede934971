package keystore

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"
)

// TestPageKeysForFollowsBatchesThroughCompaction issues batches of differing
// decoy counts, draws their keys out of issue order (some at once, some only
// after neighbours were swept), kills some by TTL and some by the per-client
// cap, and checks that every survivor is still found under its script token
// with exactly the keys its first download drew — runs are located by running
// sum, so an insertion or compaction that drifts by one count hands a batch
// its neighbour's keys.
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
		if n := s.OutstandingKeys(ip); n != want {
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
	check(0, false) // drawn, expired but not yet swept: liveness must not wait for the sweep
	check(2, false) // never drawn and now expired: no keys are drawn for a dead page
	outstanding(1 + 4 + 3)
	issue(4, 0) // 5: the issue sweeps 0 and 2 out of the headers and the arena
	outstanding(1 + 3)
	for i, live := range []bool{false, true, false, true, true, true} {
		check(i, live) // 1 and 5 are drawn here, around the survivors
	}
	outstanding(2 + 1 + 3 + 5)

	issue(3, 0) // 6
	issue(1, 0) // 7
	for len(issued) < maxPerClient+3 {
		issue(2, 0) // the last makes 65 batches against the cap of 64, so batch 1 is evicted
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
	if n := s.OutstandingKeys(ip); n != 0 {
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

// TestTokenTagCollision pins what the 32-bit tokenTag costs: two script tokens
// of one client that share a tag are one batch as far as the script download
// can tell. With 64 live batches a client meets that by chance about once in
// 2^21 logs, so the pair is made: the second page's token is replaced by the
// first's nearest tag-mate (the Fibonacci multiplier is odd, hence invertible
// mod 2^64). The first live batch answers both tokens, so exactly one run is
// drawn, its key proves a human once, and the shadowed batch stays undrawn.
func TestTokenTagCollision(t *testing.T) {
	const ip = "10.0.0.1"
	s, _ := newTestStore(t, Config{Seed: 2, Decoys: 2, Shards: 1})
	var pk PageKeys
	s.IssuePage(ip, "/p.html", &pk)
	first := pk.ScriptToken
	const fib = 0x9e3779b97f4a7c15
	inv := uint64(fib) // Newton: each step doubles the correct low bits
	for i := 0; i < 6; i++ {
		inv *= 2 - fib*inv
	}
	second := (first*fib ^ 1) * inv
	if second == first || tokenTag(second) != tokenTag(first) {
		t.Fatalf("tokens %d and %d: tags %#x and %#x", first, second, tokenTag(first), tokenTag(second))
	}
	s.IssuePage(ip, "/p.html", &pk)
	sh, h := s.locate(ip)
	l := sh.lookup(h, ip).log
	binary.LittleEndian.PutUint32(l[l.headers()+headerBytes+hdrTag:], tokenTag(second))

	key2, decoys2, ok2 := s.PageKeysFor(ip, second, nil) // the later page's script is asked for first
	key1, decoys1, ok1 := s.PageKeysFor(ip, first, nil)
	if !ok1 || !ok2 || key1 != key2 || !slices.Equal(decoys1, decoys2) {
		t.Fatalf("downloads differ: (%d, %v, %v) vs (%d, %v, %v)", key1, decoys1, ok1, key2, decoys2, ok2)
	}
	if st := s.Stats(); st.Drawn != 1 {
		t.Fatalf("drawn = %d, want 1", st.Drawn)
	}
	if n := s.OutstandingKeys(ip); n != 3 {
		t.Fatalf("outstanding keys = %d, want one run of 3", n)
	}
	if v := s.ValidateValue(ip, key1); v != Human {
		t.Fatalf("first validation = %v, want Human", v)
	}
	if v := s.ValidateValue(ip, key1); v != Replayed {
		t.Fatalf("second validation = %v, want Replayed", v)
	}
	for _, d := range decoys1 {
		if v := s.ValidateValue(ip, d); v != Decoy {
			t.Fatalf("decoy = %v", v)
		}
	}
}
