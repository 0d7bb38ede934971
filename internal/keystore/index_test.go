package keystore

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"botdetect/internal/clock"
)

// TestKeystoreCollisionChainMatchesSeededIndex drives two stores through the
// same 20,000 seeded operations on 1,000 addresses: one indexes by its seeded
// hash, the other hashes every address to one of two values, so its clients
// share two collision chains and every lookup, insert and eviction walks one.
// Issues, degraded issues, script downloads, validations of real, decoy,
// guessed and foreign keys, TTL expiry and client-cap eviction (64 clients on
// one shard) must give the same draws, verdicts, Stats, Clients,
// OutstandingKeys and MemoryEstimate on both, and the chains must hold
// exactly the clients the shard counts. A chain's head is its newest client
// and the LRU victim is never the client an issue just created, so one chain
// would never lose its head: the second, short one (addresses ending in 7)
// does, when its newest client goes idle while older ones stay busy — which
// the walk ends by doing on purpose.
func TestKeystoreCollisionChainMatchesSeededIndex(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1136073600, 0))
	cfg := Config{Seed: 27, Decoys: 3, TTL: 10 * time.Minute, Shards: 1, Clock: vc}
	seeded, chained := capClients(New(cfg), 64), capClients(New(cfg), 64)
	chained.hash = func(ip string) uint64 {
		if ip[len(ip)-1] == '7' {
			return 1
		}
		return 0
	}

	ips := make([]string, 1000)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.9.%d.%d", i/250, i%250)
	}
	// Per address, the page views it was issued and those whose script it
	// downloaded, newest last.
	owned, learned := map[string][]*PageKeys{}, map[string][]*PageKeys{}
	r := rand.New(rand.NewPCG(27, 0))
	recent := func(pages []*PageKeys) *PageKeys { return pages[len(pages)-1-r.IntN(min(len(pages), 6))] }
	pickIP := func() string {
		if r.IntN(8) > 0 { // a hot set, so clients live long enough to download and validate
			return ips[r.IntN(24)]
		}
		return ips[r.IntN(len(ips))]
	}

	// heads are the chained store's chain heads before an operation and
	// behind their successors: a head gone from the index afterwards, with
	// its successor now first, was evicted from the head of a longer chain.
	var heads, behind [2]*clientState
	headEvictions, longest := 0, 0
	check := func(step int, ip string) {
		t.Helper()
		if a, b := seeded.Stats(), chained.Stats(); a != b {
			t.Fatalf("step %d: stats %+v, chained %+v", step, a, b)
		}
		if a, b := seeded.MemoryEstimate(), chained.MemoryEstimate(); a != b || seeded.Clients() != chained.Clients() {
			t.Fatalf("step %d: estimate %d vs %d, clients %d vs %d", step, a, b, seeded.Clients(), chained.Clients())
		}
		if a, b := seeded.OutstandingKeys(ip), chained.OutstandingKeys(ip); a != b {
			t.Fatalf("step %d: OutstandingKeys(%s) %d, chained %d", step, ip, a, b)
		}
		sh := chained.shards[0]
		total := 0
		for h, first := range sh.index {
			n := 0
			for cs := first; cs != nil; cs = cs.hnext {
				if chained.indexHash(cs.ip) != h || sh.lookup(h, cs.ip) != cs {
					t.Fatalf("step %d: %s is chained under %d, or shadowed", step, cs.ip, h)
				}
				n++
			}
			total += n
			longest = max(longest, n)
		}
		if total != sh.count {
			t.Fatalf("step %d: the chains hold %d clients, the shard counts %d", step, total, sh.count)
		}
		for i, head := range heads {
			if head != nil && behind[i] != nil && sh.lookup(uint64(i), head.ip) != head && sh.index[uint64(i)] == behind[i] {
				headEvictions++
			}
			heads[i] = sh.index[uint64(i)]
			if behind[i] = nil; heads[i] != nil {
				behind[i] = heads[i].hnext
			}
		}
	}

	for step := 0; step < 20000; step++ {
		ip := pickIP()
		switch op := r.IntN(100); {
		case op < 35:
			var a, b PageKeys
			if r.IntN(4) == 0 {
				decoys, ttl := r.IntN(4), time.Duration(1+r.IntN(12))*time.Minute
				seeded.IssuePageDegraded(ip, "/deg.html", decoys, ttl, &a)
				chained.IssuePageDegraded(ip, "/deg.html", decoys, ttl, &b)
			} else {
				seeded.IssuePage(ip, "/p.html", &a)
				chained.IssuePage(ip, "/p.html", &b)
			}
			if a.CSSToken != b.CSSToken || a.ScriptToken != b.ScriptToken || a.HiddenToken != b.HiddenToken {
				t.Fatalf("step %d: issued %+v, chained %+v", step, a, b)
			}
			owned[ip] = append(owned[ip], &a)
		case op < 60:
			token := r.Uint64N(1e10)
			var pk *PageKeys
			if pages := owned[ip]; len(pages) > 0 && r.IntN(8) > 0 {
				pk = recent(pages)
				token = pk.ScriptToken
			}
			ka, da, oka := seeded.PageKeysFor(ip, token, nil)
			kb, db, okb := chained.PageKeysFor(ip, token, nil)
			if ka != kb || oka != okb || !slices.Equal(da, db) {
				t.Fatalf("step %d: PageKeysFor(%s) (%d, %v, %v), chained (%d, %v, %v)", step, ip, ka, da, oka, kb, db, okb)
			}
			if pk != nil && oka && pk.Key == 0 {
				pk.Key, pk.Decoys = ka, da
				learned[ip] = append(learned[ip], pk)
			}
		case op < 90:
			key := r.Uint64N(1e10)
			if pages := learned[ip]; len(pages) > 0 && r.IntN(6) > 0 {
				pk := recent(pages)
				key = pk.Key
				if len(pk.Decoys) > 0 && r.IntN(3) == 0 {
					key = pk.Decoys[r.IntN(len(pk.Decoys))]
				}
				if r.IntN(8) == 0 { // someone else presents it
					ip = pickIP()
				}
			}
			if a, b := seeded.ValidateValue(ip, key), chained.ValidateValue(ip, key); a != b {
				t.Fatalf("step %d: ValidateValue(%s, %d) = %v, chained %v", step, ip, key, a, b)
			}
		default:
			vc.Advance(time.Duration(r.IntN(90)) * time.Second)
		}
		check(step, ip)
		if step%1000 == 999 {
			for _, ip := range ips {
				if a, b := seeded.OutstandingKeys(ip), chained.OutstandingKeys(ip); a != b {
					t.Fatalf("step %d: OutstandingKeys(%s) %d, chained %d", step, ip, a, b)
				}
			}
		}
	}

	// The short chain's newest client b goes idle while its older a stays
	// busy and new clients on the long chain push b out from the LRU tail.
	a, b := "10.9.9.7", "10.9.9.17"
	issueBoth := func(ip string) {
		var x, y PageKeys
		seeded.IssuePage(ip, "/p.html", &x)
		chained.IssuePage(ip, "/p.html", &y)
		if x.ScriptToken != y.ScriptToken {
			t.Fatalf("issued %+v, chained %+v", x, y)
		}
		check(-1, ip)
	}
	issueBoth(a)
	issueBoth(b)
	before := headEvictions
	for i := 0; i < 100; i++ {
		if ip := fmt.Sprintf("10.9.8.%d", i); ip[len(ip)-1] != '7' {
			issueBoth(a)
			issueBoth(ip)
		}
	}
	if headEvictions == before || chained.shards[0].index[1] == nil || chained.shards[0].index[1].ip != a {
		t.Fatalf("%s did not lose its place at the head of the short chain to %s", b, a)
	}

	st := seeded.Stats()
	t.Logf("longest chain %d; %d clients evicted from the head of a longer chain; %+v", longest, headEvictions, st)
	if longest < 30 || st.EvictedClients <= int64(headEvictions) || st.HumanHits == 0 || st.DecoyHits == 0 ||
		st.ReplayHits == 0 || st.ExpiredDropped == 0 {
		t.Fatal("the run never built a long chain, never evicted from a chain's middle, or never reached every verdict and expiry: it tests nothing")
	}
}
