package keystore

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/shard"
)

func newTestStore(t *testing.T, cfg Config) (*Store, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(time.Time{})
	cfg.Clock = vc
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return New(cfg), vc
}

// capClients lowers s's client cap to n (distributed over the shards as New
// distributes the real one) for the tests that churn through the cap many
// times over: the recycling hammer and the reference differential. The
// eviction-order and bound tests run at the real maxClients.
func capClients(s *Store, n int) *Store {
	for i := range s.clients.Shards() {
		s.clients.SetShardCap(i, shard.PerShardCap(n, s.clients.Shards()))
	}
	return s
}

// shardClients is the client count summed shard by shard under each shard's
// lock, against which the lock-free Clients is checked.
func shardClients(s *Store) int {
	n := 0
	for i := range s.clients.Shards() {
		have, _ := s.ShardFill(i)
		n += have
	}
	return n
}

// manyIP is the i-th of up to 2^24 distinct client addresses, for the tests
// that fill the table to maxClients.
func manyIP(i int) string { return fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&0xff, i&0xff) }

// download fills pk's keys the way a client learns them: by asking for the
// page's script.
func download(t *testing.T, s *Store, ip string, pk *PageKeys) {
	t.Helper()
	var ok bool
	if pk.Key, pk.Decoys, ok = s.PageKeysFor(ip, pk.ScriptToken, pk.Decoys[:0]); !ok {
		t.Fatalf("no live batch for %s under script token %d", ip, pk.ScriptToken)
	}
}

// issue issues one page view to ip and downloads its script: the one way a
// page's keys come to exist.
func issue(t *testing.T, s *Store, ip, page string) *PageKeys {
	t.Helper()
	pk := new(PageKeys)
	s.IssuePage(ip, page, pk)
	download(t, s, ip, pk)
	return pk
}

// wire spells v the way a beacon request carries it.
func wire(pk *PageKeys, v uint64) string { return string(pk.AppendKey(nil, v)) }

// outstandingKeys returns the number of keys of the drawn page views the
// client's window holds, real plus decoys, expired or not.
func (s *Store) outstandingKeys(clientIP string) int {
	sh, _ := s.clients.Locate(clientIP)
	sh.Lock()
	defer sh.Unlock()
	w := s.windowOf(clientIP)
	n := 0
	for h := logPrefixBytes; h < len(w); h += headerBytes {
		if w[h+hdrFlags]&flagDrawn != 0 {
			n += 1 + int(w[h+hdrDecoys])
		}
	}
	return n
}

// windowOf returns clientIP's window, nil when the store holds no such
// client. The caller holds the client's shard lock, or the store has no
// other user.
func (s *Store) windowOf(clientIP string) window {
	sh, hash := s.clients.Locate(clientIP)
	if cs := s.getLocked(sh, hash, clientIP); cs != nil {
		return s.logOf(sh, cs)
	}
	return nil
}

func TestIssueShape(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 5, KeyDigits: 12})
	iss := issue(t, s, "10.0.0.1", "/index.html")
	if iss.Page != "/index.html" {
		t.Fatalf("Page = %q", iss.Page)
	}
	if iss.Digits != 12 || len(wire(iss, iss.Key)) != 12 || iss.Key >= 1e12 {
		t.Fatalf("key %d at width %d, want 12 digits", iss.Key, iss.Digits)
	}
	if len(iss.Decoys) != 5 {
		t.Fatalf("decoys = %d", len(iss.Decoys))
	}
	if iss.CSSToken == iss.ScriptToken || iss.ScriptToken == iss.HiddenToken || iss.CSSToken == iss.HiddenToken {
		t.Fatalf("object tokens not distinct: %d %d %d", iss.CSSToken, iss.ScriptToken, iss.HiddenToken)
	}
	seen := map[uint64]bool{iss.Key: true}
	for _, d := range iss.Decoys {
		if seen[d] {
			t.Fatal("duplicate key among real+decoys")
		}
		seen[d] = true
	}
}

func TestValidateRealKeyOnceOnly(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	iss := issue(t, s, "10.0.0.1", "/a.html")
	key := wire(iss, iss.Key)
	if v := s.Validate("10.0.0.1", key); v != Human {
		t.Fatalf("first validation = %v", v)
	}
	if v := s.Validate("10.0.0.1", key); v != Replayed {
		t.Fatalf("second validation = %v", v)
	}
	st := s.Stats()
	if st.HumanHits != 1 || st.ReplayHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValidateDecoy(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 3})
	iss := issue(t, s, "10.0.0.1", "/a.html")
	for _, d := range iss.Decoys {
		if v := s.Validate("10.0.0.1", wire(iss, d)); v != Decoy {
			t.Fatalf("decoy validation = %v", v)
		}
	}
	if s.Stats().DecoyHits != 3 {
		t.Fatalf("DecoyHits = %d", s.Stats().DecoyHits)
	}
}

func TestValidateUnknownAndWrongClient(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	iss := issue(t, s, "10.0.0.1", "/a.html")
	if v := s.Validate("10.0.0.1", "0000000000"); v != Unknown {
		t.Fatalf("guessed key = %v", v)
	}
	if v := s.Validate("10.0.0.9", wire(iss, iss.Key)); v != Unknown {
		t.Fatalf("key from wrong client = %v", v)
	}
	// Wrong-width keys never validate, so "007" and "7" cannot collide.
	for _, k := range []string{wire(iss, iss.Key)[1:], "0" + wire(iss, iss.Key), "7"} {
		if v := s.Validate("10.0.0.1", k); v != Unknown {
			t.Fatalf("key %q at the wrong width = %v", k, v)
		}
	}
	if v := s.Validate("192.168.0.5", "1234"); v != Unknown {
		t.Fatalf("unknown client = %v", v)
	}
}

func TestTTLExpiry(t *testing.T) {
	s, vc := newTestStore(t, Config{TTL: 30 * time.Minute})
	iss := issue(t, s, "10.0.0.1", "/a.html")
	vc.Advance(31 * time.Minute)
	if v := s.Validate("10.0.0.1", wire(iss, iss.Key)); v != Unknown {
		t.Fatalf("expired key verdict = %v", v)
	}
	// The keys count as expired once, when the window drops their page view:
	// the next issue drops it from the front.
	if n := s.Stats().ExpiredDropped; n != 0 {
		t.Fatalf("a validation counted %d expired keys, want 0", n)
	}
	s.IssuePage("10.0.0.1", "/b.html", new(PageKeys))
	if n := s.Stats().ExpiredDropped; n != int64(1+len(iss.Decoys)) {
		t.Fatalf("expired keys counted %d, want %d", n, 1+len(iss.Decoys))
	}
}

func TestTTLExpiryOnIssue(t *testing.T) {
	s, vc := newTestStore(t, Config{TTL: 10 * time.Minute, Decoys: 2})
	issue(t, s, "10.0.0.1", "/a.html")
	before := s.outstandingKeys("10.0.0.1")
	if before != 3 {
		t.Fatalf("outstanding = %d, want 3", before)
	}
	vc.Advance(11 * time.Minute)
	issue(t, s, "10.0.0.1", "/b.html")
	// The previous issue should have been purged; only the new 3 remain.
	if got := s.outstandingKeys("10.0.0.1"); got != 3 {
		t.Fatalf("outstanding after expiry = %d, want 3", got)
	}
}

func TestPerClientCapEvictsOldest(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 2})
	var issued []*PageKeys
	for i := 0; i < maxPerClient+16; i++ {
		issued = append(issued, issue(t, s, "10.0.0.1", fmt.Sprintf("/p%d.html", i)))
	}
	// 64 outstanding issues * (1 real + 2 decoys) keys each.
	if got := s.outstandingKeys("10.0.0.1"); got != maxPerClient*3 {
		t.Fatalf("outstanding = %d, want %d", got, maxPerClient*3)
	}
	if v := s.ValidateValue("10.0.0.1", issued[15].Key); v != Unknown {
		t.Fatalf("evicted key verdict = %v", v)
	}
	if v := s.ValidateValue("10.0.0.1", issued[16].Key); v != Human {
		t.Fatalf("oldest surviving key verdict = %v", v)
	}
}

func TestClientCapEvictsLRU(t *testing.T) {
	// Shards: 1 pins every client to one shard so the global LRU eviction
	// order is exact; with more shards the cap is distributed per shard.
	s, _ := newTestStore(t, Config{Shards: 1})
	ip := manyIP
	var pk PageKeys
	for i := 0; i < maxClients+15; i++ {
		s.IssuePage(ip(i), "/a.html", &pk)
		if i == 14 || i == 15 || i == maxClients+14 {
			download(t, s, ip(i), &pk)
		}
	}
	if got := s.Clients(); got != maxClients {
		t.Fatalf("Clients = %d, want %d", got, maxClients)
	}
	if s.Stats().EvictedClients != 15 {
		t.Fatalf("EvictedClients = %d", s.Stats().EvictedClients)
	}
	// The most recent clients should still be tracked.
	if s.outstandingKeys(ip(maxClients+14)) == 0 {
		t.Fatal("most recent client was evicted")
	}
	if s.outstandingKeys(ip(15)) == 0 {
		t.Fatal("the oldest client inside the cap was evicted")
	}
	if s.outstandingKeys(ip(14)) != 0 {
		t.Fatal("the newest client outside the cap should have been evicted")
	}
}

func TestShardedClientCapBoundsTotal(t *testing.T) {
	// With the default shard count the client bound is distributed over the
	// shards; the total never exceeds the distributed bound.
	s, _ := newTestStore(t, Config{})
	var pk PageKeys
	for i := 0; i < maxClients+maxClients/4; i++ {
		s.IssuePage(manyIP(i), "/a.html", &pk)
	}
	shards := s.clients.Shards()
	perShard := (maxClients + shards - 1) / shards
	if got := s.Clients(); got > perShard*shards {
		t.Fatalf("Clients = %d exceeds distributed bound %d", got, perShard*shards)
	}
	if s.Stats().EvictedClients == 0 {
		t.Fatal("no clients evicted despite exceeding the cap")
	}
}

func TestLRUTouchOnValidate(t *testing.T) {
	s, _ := newTestStore(t, Config{Shards: 1})
	a := issue(t, s, "1.1.1.1", "/a.html")
	issue(t, s, "2.2.2.2", "/a.html")
	var pk PageKeys
	for i := 2; i < maxClients; i++ { // fill the table to its cap behind the two
		s.IssuePage(manyIP(i), "/a.html", &pk)
	}
	// Touch client 1 so client 2 becomes the LRU victim.
	if v := s.ValidateValue("1.1.1.1", a.Key); v != Human {
		t.Fatalf("validate = %v", v)
	}
	issue(t, s, "3.3.3.3", "/a.html")
	if s.outstandingKeys("1.1.1.1") == 0 {
		t.Fatal("recently validated client evicted")
	}
	if s.outstandingKeys("2.2.2.2") != 0 {
		t.Fatal("stale client not evicted")
	}
}

func TestKeysUniqueAcrossIssues(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 3, KeyDigits: 10})
	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		iss := issue(t, s, "10.0.0.1", "/a.html")
		for _, k := range append([]uint64{iss.Key}, iss.Decoys...) {
			if len(wire(iss, k)) != 10 || k >= 1e10 {
				t.Fatalf("key %d is not 10 digits", k)
			}
		}
		if seen[iss.Key] {
			t.Fatal("real key collided with an earlier key")
		}
		seen[iss.Key] = true
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{Human: "human", Decoy: "decoy", Replayed: "replayed", Unknown: "unknown", Verdict(99): "unknown"}
	for v, want := range cases {
		if v.String() != want {
			t.Fatalf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestConcurrentIssueValidate(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ip := fmt.Sprintf("10.1.0.%d", g)
			var pk PageKeys
			for i := 0; i < 200; i++ {
				s.IssuePage(ip, "/p.html", &pk)
				key, _, _ := s.PageKeysFor(ip, pk.ScriptToken, nil)
				if v := s.ValidateValue(ip, key); v != Human {
					t.Errorf("goroutine %d: verdict %v", g, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Stats().HumanHits != 8*200 {
		t.Fatalf("HumanHits = %d", s.Stats().HumanHits)
	}
}

func TestConcurrentOverlappingClients(t *testing.T) {
	// Goroutines share client IPs, so shard mutexes are genuinely contended
	// and real keys race to be consumed (run with -race): every real key
	// must validate as Human exactly once across all goroutines.
	// Each round's three addresses see exactly maxPerClient issues between
	// them all (8 goroutines x 24 iterations / 3 addresses), so a descheduled
	// goroutine's key can never be evicted by the others' issues before it
	// validates.
	s, _ := newTestStore(t, Config{Decoys: 2})
	const rounds, perRound = 6, 3 * maxPerClient / 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pk PageKeys
			for i := 0; i < rounds*perRound; i++ {
				ip := fmt.Sprintf("10.2.%d.%d", i/perRound, (g+i)%3)
				s.IssuePage(ip, "/p.html", &pk)
				key, _, _ := s.PageKeysFor(ip, pk.ScriptToken, nil)
				if v := s.ValidateValue(ip, key); v != Human {
					t.Errorf("goroutine %d: first validation = %v", g, v)
					return
				}
				if v := s.ValidateValue(ip, key); v != Replayed {
					t.Errorf("goroutine %d: second validation = %v", g, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if want := int64(8 * rounds * perRound); st.HumanHits != want || st.ReplayHits != want {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPropertyRealAndDecoysDisjointAndValid(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 6})
	f := func(ipByte uint8, pageID uint16) bool {
		ip := fmt.Sprintf("10.9.0.%d", ipByte)
		iss := issue(t, s, ip, fmt.Sprintf("/q%d.html", pageID))
		// Real key must validate as Human exactly once; every decoy as Decoy.
		if s.Validate(ip, wire(iss, iss.Key)) != Human {
			return false
		}
		for _, d := range iss.Decoys {
			if d == iss.Key {
				return false
			}
			if s.Validate(ip, wire(iss, d)) != Decoy {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecoysAccessor(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 7})
	if n := len(issue(t, s, "10.0.0.1", "/a.html").Decoys); n != 7 {
		t.Fatalf("decoys per page = %d, want 7", n)
	}
	d, _ := newTestStore(t, Config{})
	if n := len(issue(t, d, "10.0.0.1", "/a.html").Decoys); n != 4 {
		t.Fatalf("default decoys per page = %d, want 4", n)
	}
}
