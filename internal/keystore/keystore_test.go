package keystore

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"botdetect/internal/clock"
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

// download fills pk's keys the way a client learns them: by asking for the
// page's script.
func download(t *testing.T, s *Store, ip string, pk *PageKeys) {
	t.Helper()
	var ok bool
	if pk.Key, pk.Decoys, ok = s.PageKeysFor(ip, pk.ScriptToken, pk.Decoys[:0]); !ok {
		t.Fatalf("no live batch for %s under script token %d", ip, pk.ScriptToken)
	}
}

func TestIssueShape(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 5, KeyDigits: 12})
	iss := s.Issue("10.0.0.1", "/index.html")
	if iss.Page != "/index.html" {
		t.Fatalf("Page = %q", iss.Page)
	}
	if len(iss.Key) != 12 {
		t.Fatalf("key length = %d", len(iss.Key))
	}
	if len(iss.Decoys) != 5 {
		t.Fatalf("decoys = %d", len(iss.Decoys))
	}
	if iss.CSSToken == "" || iss.ScriptToken == "" || iss.HiddenToken == "" {
		t.Fatal("object tokens missing")
	}
	seen := map[string]bool{iss.Key: true}
	for _, d := range iss.Decoys {
		if seen[d] {
			t.Fatal("duplicate key among real+decoys")
		}
		seen[d] = true
	}
}

func TestValidateRealKeyOnceOnly(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	iss := s.Issue("10.0.0.1", "/a.html")
	if v := s.Validate("10.0.0.1", iss.Key); v != Human {
		t.Fatalf("first validation = %v", v)
	}
	if v := s.Validate("10.0.0.1", iss.Key); v != Replayed {
		t.Fatalf("second validation = %v", v)
	}
	st := s.Stats()
	if st.HumanHits != 1 || st.ReplayHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValidateDecoy(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 3})
	iss := s.Issue("10.0.0.1", "/a.html")
	for _, d := range iss.Decoys {
		if v := s.Validate("10.0.0.1", d); v != Decoy {
			t.Fatalf("decoy validation = %v", v)
		}
	}
	if s.Stats().DecoyHits != 3 {
		t.Fatalf("DecoyHits = %d", s.Stats().DecoyHits)
	}
}

func TestValidateUnknownAndWrongClient(t *testing.T) {
	s, _ := newTestStore(t, Config{})
	iss := s.Issue("10.0.0.1", "/a.html")
	if v := s.Validate("10.0.0.1", "0000000000"); v != Unknown {
		t.Fatalf("guessed key = %v", v)
	}
	if v := s.Validate("10.0.0.9", iss.Key); v != Unknown {
		t.Fatalf("key from wrong client = %v", v)
	}
	if v := s.Validate("192.168.0.5", "1234"); v != Unknown {
		t.Fatalf("unknown client = %v", v)
	}
}

func TestTTLExpiry(t *testing.T) {
	s, vc := newTestStore(t, Config{TTL: 30 * time.Minute})
	iss := s.Issue("10.0.0.1", "/a.html")
	vc.Advance(31 * time.Minute)
	if v := s.Validate("10.0.0.1", iss.Key); v != Unknown {
		t.Fatalf("expired key verdict = %v", v)
	}
	if s.Stats().ExpiredDropped == 0 {
		t.Fatal("expired key not counted")
	}
}

func TestTTLExpiryOnIssue(t *testing.T) {
	s, vc := newTestStore(t, Config{TTL: 10 * time.Minute, Decoys: 2})
	s.Issue("10.0.0.1", "/a.html")
	before := s.OutstandingKeys("10.0.0.1")
	if before != 3 {
		t.Fatalf("outstanding = %d, want 3", before)
	}
	vc.Advance(11 * time.Minute)
	s.Issue("10.0.0.1", "/b.html")
	// The previous issue should have been purged; only the new 3 remain.
	if got := s.OutstandingKeys("10.0.0.1"); got != 3 {
		t.Fatalf("outstanding after expiry = %d, want 3", got)
	}
}

func TestPerClientCapEvictsOldest(t *testing.T) {
	s, _ := newTestStore(t, Config{MaxPerClient: 5, Decoys: 2})
	var first Issued
	for i := 0; i < 20; i++ {
		iss := s.Issue("10.0.0.1", fmt.Sprintf("/p%d.html", i))
		if i == 0 {
			first = iss
		}
	}
	// Max 5 outstanding issues * (1 real + 2 decoys) keys each.
	if got := s.OutstandingKeys("10.0.0.1"); got > 5*3 {
		t.Fatalf("outstanding = %d, want <= 15", got)
	}
	if v := s.Validate("10.0.0.1", first.Key); v != Unknown {
		t.Fatalf("evicted key verdict = %v", v)
	}
}

func TestClientCapEvictsLRU(t *testing.T) {
	// Shards: 1 pins every client to one shard so the global LRU eviction
	// order is exact; with more shards the cap is distributed per shard.
	s, _ := newTestStore(t, Config{MaxClients: 10, Shards: 1})
	for i := 0; i < 25; i++ {
		s.Issue(fmt.Sprintf("10.0.0.%d", i), "/a.html")
	}
	if got := s.Clients(); got != 10 {
		t.Fatalf("Clients = %d, want 10", got)
	}
	if s.Stats().EvictedClients != 15 {
		t.Fatalf("EvictedClients = %d", s.Stats().EvictedClients)
	}
	// The most recent clients should still be tracked.
	if s.OutstandingKeys("10.0.0.24") == 0 {
		t.Fatal("most recent client was evicted")
	}
	if s.OutstandingKeys("10.0.0.0") != 0 {
		t.Fatal("oldest client should have been evicted")
	}
}

func TestShardedClientCapBoundsTotal(t *testing.T) {
	// With the default shard count the MaxClients bound is distributed over
	// the shards; the total never exceeds the distributed bound.
	s, _ := newTestStore(t, Config{MaxClients: 64})
	for i := 0; i < 1000; i++ {
		s.Issue(fmt.Sprintf("10.8.%d.%d", i/250, i%250), "/a.html")
	}
	perShard := (64 + s.ShardCount() - 1) / s.ShardCount()
	if got := s.Clients(); got > perShard*s.ShardCount() {
		t.Fatalf("Clients = %d exceeds distributed bound %d", got, perShard*s.ShardCount())
	}
	if s.Stats().EvictedClients == 0 {
		t.Fatal("no clients evicted despite exceeding the cap")
	}
}

func TestLRUTouchOnValidate(t *testing.T) {
	s, _ := newTestStore(t, Config{MaxClients: 2, Shards: 1})
	a := s.Issue("1.1.1.1", "/a.html")
	s.Issue("2.2.2.2", "/a.html")
	// Touch client 1 so client 2 becomes the LRU victim.
	if v := s.Validate("1.1.1.1", a.Key); v != Human {
		t.Fatalf("validate = %v", v)
	}
	s.Issue("3.3.3.3", "/a.html")
	if s.OutstandingKeys("1.1.1.1") == 0 {
		t.Fatal("recently validated client evicted")
	}
	if s.OutstandingKeys("2.2.2.2") != 0 {
		t.Fatal("stale client not evicted")
	}
}

func TestKeysUniqueAcrossIssues(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 3, KeyDigits: 10})
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		iss := s.Issue("10.0.0.1", "/a.html")
		all := append([]string{iss.Key}, iss.Decoys...)
		for _, k := range all {
			if len(k) != 10 {
				t.Fatalf("key length %d", len(k))
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
			for i := 0; i < 200; i++ {
				iss := s.Issue(ip, "/p.html")
				if v := s.Validate(ip, iss.Key); v != Human {
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
	// MaxPerClient is raised so a descheduled goroutine's key cannot be
	// evicted by the others' issues before it validates.
	s, _ := newTestStore(t, Config{Decoys: 2, MaxPerClient: 100000})
	ips := []string{"10.2.0.1", "10.2.0.2", "10.2.0.3"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				ip := ips[(g+i)%len(ips)]
				iss := s.Issue(ip, "/p.html")
				if v := s.Validate(ip, iss.Key); v != Human {
					t.Errorf("goroutine %d: first validation = %v", g, v)
					return
				}
				if v := s.Validate(ip, iss.Key); v != Replayed {
					t.Errorf("goroutine %d: second validation = %v", g, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.HumanHits != 8*150 || st.ReplayHits != 8*150 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPropertyRealAndDecoysDisjointAndValid(t *testing.T) {
	s, _ := newTestStore(t, Config{Decoys: 6})
	f := func(ipByte uint8, pageID uint16) bool {
		ip := fmt.Sprintf("10.9.0.%d", ipByte)
		iss := s.Issue(ip, fmt.Sprintf("/q%d.html", pageID))
		// Real key must validate as Human exactly once; every decoy as Decoy.
		if s.Validate(ip, iss.Key) != Human {
			return false
		}
		for _, d := range iss.Decoys {
			if d == iss.Key {
				return false
			}
			if s.Validate(ip, d) != Decoy {
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
	if s.Decoys() != 7 {
		t.Fatalf("Decoys() = %d", s.Decoys())
	}
	d, _ := newTestStore(t, Config{})
	if d.Decoys() != 4 {
		t.Fatalf("default Decoys() = %d", d.Decoys())
	}
}
