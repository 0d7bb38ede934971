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
// outstandingKeys and MemoryEstimate on both. A chain's head is its newest
// client and the LRU victim is never the client an issue just created, so one
// chain would never lose its head: the second, short one (addresses ending in
// 7) does, when its newest client goes idle while older ones stay busy — which
// the walk ends by doing on purpose. Where in a chain each removal happens is
// shard.TestTableEnumerated's to check; here only the outcomes are compared.
func TestKeystoreCollisionChainMatchesSeededIndex(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1136073600, 0))
	cfg := Config{Seed: 27, Decoys: 3, TTL: 10 * time.Minute, Shards: 1, Clock: vc}
	seeded, chained := capClients(New(cfg), 64), capClients(New(cfg), 64)
	chained.clients.HashHook = func(ip string) uint64 {
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

	// fullest is the most clients the chained store held at once, every one
	// of them in one of its two chains.
	fullest := 0
	check := func(step int, ip string) {
		t.Helper()
		if a, b := seeded.Stats(), chained.Stats(); a != b {
			t.Fatalf("step %d: stats %+v, chained %+v", step, a, b)
		}
		if a, b := seeded.MemoryEstimate(), chained.MemoryEstimate(); a != b || seeded.Clients() != chained.Clients() {
			t.Fatalf("step %d: estimate %d vs %d, clients %d vs %d", step, a, b, seeded.Clients(), chained.Clients())
		}
		if a, b := seeded.outstandingKeys(ip), chained.outstandingKeys(ip); a != b {
			t.Fatalf("step %d: outstandingKeys(%s) %d, chained %d", step, ip, a, b)
		}
		fullest = max(fullest, chained.Clients())
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
				if a, b := seeded.outstandingKeys(ip), chained.outstandingKeys(ip); a != b {
					t.Fatalf("step %d: outstandingKeys(%s) %d, chained %d", step, ip, a, b)
				}
			}
		}
	}

	// The short chain's newest client b goes idle while its older a stays
	// busy and new clients on the long chain push b out from the LRU tail: b
	// leaves from the head of its chain, and a, behind it, must stay found.
	a, b := "10.9.9.7", "10.9.9.17"
	issueBoth := func(ip string) uint64 {
		var x, y PageKeys
		seeded.IssuePage(ip, "/p.html", &x)
		chained.IssuePage(ip, "/p.html", &y)
		if x.ScriptToken != y.ScriptToken {
			t.Fatalf("issued %+v, chained %+v", x, y)
		}
		check(-1, ip)
		return x.ScriptToken
	}
	aToken := issueBoth(a)
	bToken := issueBoth(b)
	for i := 0; i < 100; i++ {
		if ip := fmt.Sprintf("10.9.8.%d", i); ip[len(ip)-1] != '7' {
			aToken = issueBoth(a)
			issueBoth(ip)
		}
	}
	for _, c := range []struct {
		ip    string
		token uint64
		live  bool
	}{{a, aToken, true}, {b, bToken, false}} {
		ka, da, oka := seeded.PageKeysFor(c.ip, c.token, nil)
		kb, db, okb := chained.PageKeysFor(c.ip, c.token, nil)
		if ka != kb || oka != okb || !slices.Equal(da, db) || oka != c.live {
			t.Fatalf("PageKeysFor(%s) (%d, %v, %v), chained (%d, %v, %v), want live %v", c.ip, ka, da, oka, kb, db, okb, c.live)
		}
		check(-1, c.ip)
	}

	st := seeded.Stats()
	t.Logf("at most %d clients in two chains; %+v", fullest, st)
	if fullest < 60 || st.EvictedClients == 0 || st.HumanHits == 0 || st.DecoyHits == 0 ||
		st.ReplayHits == 0 || st.ExpiredDropped == 0 {
		t.Fatal("the run never built long chains, never evicted, or never reached every verdict and expiry: it tests nothing")
	}
}
