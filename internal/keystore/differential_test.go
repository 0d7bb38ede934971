package keystore

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"testing"
	"time"

	"botdetect/internal/clock"
)

// TestDifferentialAgainstRefStore drives the byte window and the queue-based
// reference model with the same seeded random operation sequences and
// requires them to be indistinguishable through the public surface: every
// issued token and every key a download hands out (so every page-view number
// and incarnation behind them), every verdict, every PageKeysFor answer, and
// the counters after every single operation. Keys are learned the way a client
// learns them — by downloading the page's script (PageKeysFor) — in and out of
// issue order, repeatedly, after TTL expiry and eviction, for degraded page
// views and from other addresses. Half the runs lower the page-view numbers
// an incarnation has on both stores (to 100 or 300), so clients run out of
// them and take fresh incarnations many times a run.
func TestDifferentialAgainstRefStore(t *testing.T) {
	seeds := 240
	if testing.Short() {
		seeds = 40
	}
	for seed := 1; seed <= seeds; seed++ {
		diffRun(t, uint64(seed), rand.New(rand.NewPCG(uint64(seed), 0x6b657973)), []int{6, 7, 10, 19}, 400)
	}
}

// FuzzStoreMatchesReference is the differential with fuzz bytes making every
// choice (diffChoices): the operation, the address, the page, the key
// presented and the clock's step. The key width is one of eight digit counts
// from the floor to MaxKeyDigits, odd and even, so every split of the digits
// into the permutation's two halves meets the reference.
func FuzzStoreMatchesReference(f *testing.F) {
	for seed := range uint64(8) {
		seeded := make([]byte, 1200)
		r := rand.New(rand.NewPCG(seed, 0x6b657973))
		for i := range seeded {
			seeded[i] = byte(r.Uint32())
		}
		seeded[2], seeded[3] = 0, byte(seed) // the second choice is KeyDigits: one seed for each
		f.Add(seeded)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seed := uint64(len(data))
		if len(data) > 0 {
			seed = uint64(data[0])
		}
		diffRun(t, seed, &diffChoices{data}, []int{6, 7, 9, 10, 12, 14, 16, 19}, min(len(data)/3, 400))
	})
}

// diffChoices answers diffRun's choices from fuzz bytes, two at a time, and
// with zeros once they run out.
type diffChoices struct{ b []byte }

func (c *diffChoices) Uint64N(n uint64) uint64 {
	var v uint64
	for range 2 {
		if len(c.b) > 0 {
			v = v<<8 | uint64(c.b[0])
			c.b = c.b[1:]
		}
	}
	return v % n
}

func (c *diffChoices) IntN(n int) int { return int(c.Uint64N(uint64(n))) }

// issuedPage remembers what one issue handed out and to whom, and — once the
// owner has downloaded the page's script — the keys that download drew.
type issuedPage struct {
	ip    string
	pk    PageKeys
	owed  int // decoys
	drawn bool
}

// diffRun drives a Store and a refStore through steps operations chosen by
// r, with KeyDigits one of digits, and fails at the first difference.
func diffRun(t *testing.T, seed uint64, r interface {
	IntN(int) int
	Uint64N(uint64) uint64
}, digits []int, steps int) {
	const ttl = time.Hour
	cfg := Config{
		Seed:      seed,
		TTL:       ttl,
		Decoys:    1 + r.IntN(4),
		KeyDigits: digits[r.IntN(len(digits))],
		Shards:    []int{1, 2}[r.IntN(2)],
	}
	// Eight addresses never reach the real client cap; lower it on both.
	clients := []int{2, 5, 1000}[r.IntN(3)]
	vcA, vcB := clock.NewVirtual(time.Time{}), clock.NewVirtual(time.Time{})
	cfgA, cfgB := cfg, cfg
	cfgA.Clock, cfgB.Clock = vcA, vcB
	got, want := capClients(New(cfgA), clients), newRefStore(cfgB, clients)
	if views := []uint32{0, 0, 100, 300}[r.IntN(4)]; views > 0 {
		got.views, want.views = views, uint64(views)
	}

	ips := make([]string, 8)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.0.%d.%d", seed%200, i)
	}
	// The first address is hot; bursts of issues (below) take a log past the
	// per-client cap before the clock expires it.
	pickIP := func() string {
		if r.IntN(2) == 0 {
			return ips[0]
		}
		return ips[r.IntN(len(ips))]
	}
	var history []*issuedPage
	pickIssued := func() (*issuedPage, bool) {
		if len(history) == 0 {
			return &issuedPage{}, false
		}
		if r.IntN(3) == 0 { // anywhere in the past: expired, evicted, consumed
			return history[r.IntN(len(history))], true
		}
		return history[len(history)-1-r.IntN(min(len(history), 12))], true
	}

	op := ""
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d cfg %+v clients %d: after %s: %s", seed, cfg, clients, op, fmt.Sprintf(format, args...))
	}
	samePage := func(a, b *PageKeys) {
		t.Helper()
		if a.Page != b.Page || a.Key != b.Key || a.CSSToken != b.CSSToken || a.ScriptToken != b.ScriptToken ||
			a.HiddenToken != b.HiddenToken || a.Digits != b.Digits || !a.IssuedAt.Equal(b.IssuedAt) || !slices.Equal(a.Decoys, b.Decoys) {
			fail("issued keys differ:\n got %+v\nwant %+v", *a, *b)
		}
	}
	remember := func(ip string, pk *PageKeys, owed int) {
		if pk.Key != 0 || len(pk.Decoys) != 0 {
			fail("issue handed out keys before any script download: %+v", *pk)
		}
		history = append(history, &issuedPage{ip: ip, pk: *pk, owed: owed})
	}
	// download asks both stores for the script keys of token as ip, and
	// remembers what the owner of iss (nil for a made-up token) learned.
	download := func(iss *issuedPage, ip string, token uint64) {
		t.Helper()
		ka, da, oka := got.PageKeysFor(ip, token, nil)
		kb, db, okb := want.PageKeysFor(ip, token, nil)
		if ka != kb || oka != okb || !slices.Equal(da, db) {
			fail("got (%d, %v, %v), reference (%d, %v, %v)", ka, da, oka, kb, db, okb)
		}
		if iss == nil || !oka {
			return
		}
		// Ten-digit tokens do not collide within a run, so a script is never
		// served to another address and a live one always comes back with the
		// keys it was first rendered from.
		wide := cfg.KeyDigits >= 10
		if ip != iss.ip {
			if wide {
				fail("script of %s served to another address", iss.ip)
			}
			return
		}
		if wide && len(da) != iss.owed {
			fail("drew %d decoys, the page was owed %d", len(da), iss.owed)
		}
		if wide && iss.drawn && (ka != iss.pk.Key || !slices.Equal(da, iss.pk.Decoys)) {
			fail("re-download changed the keys: (%d, %v), first (%d, %v)", ka, da, iss.pk.Key, iss.pk.Decoys)
		}
		iss.pk.Key, iss.pk.Decoys, iss.drawn = ka, da, true
	}

	for step := 0; step < steps; step++ {
		switch k := r.IntN(20); {
		case k < 6:
			ip, page, n := pickIP(), fmt.Sprintf("/p%d.html", r.IntN(5)), 1
			if r.IntN(12) == 0 { // a burst: the oldest pages fall to the per-client cap
				n = maxPerClient/2 + r.IntN(maxPerClient)
			}
			op = fmt.Sprintf("step %d %d x IssuePage(%s)", step, n, ip)
			for ; n > 0; n-- {
				var a, b PageKeys
				got.IssuePage(ip, page, &a)
				want.IssuePage(ip, page, &b)
				samePage(&a, &b)
				remember(ip, &a, cfg.Decoys)
			}
		case k < 8:
			ip, decoys := pickIP(), r.IntN(5)
			short := []time.Duration{0, 5 * time.Minute, 20 * time.Minute, 2 * ttl}[r.IntN(4)]
			op = fmt.Sprintf("step %d IssuePageDegraded(%s, %d decoys, %v)", step, ip, decoys, short)
			var a, b PageKeys
			got.IssuePageDegraded(ip, "/deg.html", decoys, short, &a)
			want.IssuePageDegraded(ip, "/deg.html", decoys, short, &b)
			samePage(&a, &b)
			remember(ip, &a, decoys)
		case k < 14:
			ip, key := pickIP(), ""
			iss, ok := pickIssued()
			if ok && !iss.drawn && r.IntN(2) == 0 {
				op = fmt.Sprintf("step %d PageKeysFor(%s, %d) before Validate", step, iss.ip, iss.pk.ScriptToken)
				download(iss, iss.ip, iss.pk.ScriptToken)
			}
			switch kind := r.IntN(8); {
			case !ok || kind == 0: // a guess
				key = fmt.Sprintf("%0*d", cfg.KeyDigits, r.Uint64N(1000))
			case kind == 1: // malformed
				key = []string{"", "12a", "7", "00000000000000000000000", "-1", " 12"}[r.IntN(6)]
			case kind == 2: // someone else's real key
				key = wire(&iss.pk, iss.pk.Key)
			case kind <= 5: // the owner's real key (fresh, replayed, expired or evicted)
				ip, key = iss.ip, wire(&iss.pk, iss.pk.Key)
			case len(iss.pk.Decoys) > 0: // the owner's decoy
				ip, key = iss.ip, wire(&iss.pk, iss.pk.Decoys[r.IntN(len(iss.pk.Decoys))])
			}
			op = fmt.Sprintf("step %d Validate(%s, %q)", step, ip, key)
			a, b := got.Validate(ip, key), want.Validate(ip, key)
			if a != b {
				fail("verdict %v, reference %v", a, b)
			}
			if a == Human && cfg.KeyDigits >= 10 && !(ok && iss.drawn && ip == iss.ip) {
				fail("Human for a key no script download of %s handed out", ip)
			}
		case k == 14:
			ip, key := pickIP(), []uint64{got.limit - 1, 1 << 63, 0, got.limit}[r.IntN(4)]
			if iss, ok := pickIssued(); ok && r.IntN(2) == 0 { // a key plus a multiple of the domain
				ip, key = iss.ip, iss.pk.Key+uint64(1+r.IntN(3))*got.limit
			}
			op = fmt.Sprintf("step %d ValidateValue(%s, %d)", step, ip, key)
			if a, b := got.ValidateValue(ip, key), want.ValidateValue(ip, key); a != b {
				fail("verdict %v, reference %v", a, b)
			}
		case k < 18:
			ip, token := pickIP(), r.Uint64N(1000)
			iss, ok := pickIssued()
			if ok && r.IntN(5) > 0 {
				token = iss.pk.ScriptToken
				if r.IntN(4) > 0 {
					ip = iss.ip
				}
			} else {
				iss = nil
			}
			op = fmt.Sprintf("step %d PageKeysFor(%s, %d)", step, ip, token)
			download(iss, ip, token)
		default:
			d := []time.Duration{time.Second, 4 * time.Minute, 16 * time.Minute, 50 * time.Minute, ttl + time.Minute}[r.IntN(5)]
			op = fmt.Sprintf("step %d advance %v", step, d)
			vcA.Advance(d)
			vcB.Advance(d)
		}

		if a, b := got.Stats(), want.stats; a != b {
			fail("stats %+v, reference %+v", a, b)
		}
		if got.incarnations.Load() != want.incarnation {
			fail("incarnation %d, reference %d", got.incarnations.Load(), want.incarnation)
		}
		if a, b := got.Clients(), want.Clients(); a != b || a != shardClients(got) {
			fail("Clients %d (shard by shard %d), reference %d", a, shardClients(got), b)
		}
		for _, ip := range ips {
			if a, b := got.outstandingKeys(ip), want.outstandingKeys(ip); a != b {
				fail("outstandingKeys(%s) %d, reference %d", ip, a, b)
			}
		}
	}
}

// FuzzValidate throws attacker-controlled addresses and key strings at a
// store with live batches: nothing may panic, and Human comes back only for
// an unconsumed real key presented by the client it was issued to — once —
// and only for a key whose page's script was requested before the key is
// presented.
func FuzzValidate(f *testing.F) {
	const owner, other, digits = "10.0.0.1", "10.0.0.2", 6
	// build returns a store in which owner holds 64 live batches (two more
	// were evicted by the per-client cap), sixty with their script downloaded
	// (one real key of those is consumed) and four nobody has asked for yet;
	// the real keys of owner that can prove a human right now; and the script
	// tokens of the four undrawn pages.
	build := func() (*Store, map[string]bool, []uint64) {
		s := New(Config{Seed: 11, KeyDigits: digits})
		var fresh []string
		var undrawn []uint64
		var pk PageKeys
		for i := 0; i < maxPerClient+2; i++ {
			s.IssuePage(owner, "/p.html", &pk)
			if i < maxPerClient-2 {
				key, _, _ := s.PageKeysFor(owner, pk.ScriptToken, nil)
				fresh = append(fresh, wire(&pk, key))
			} else {
				undrawn = append(undrawn, pk.ScriptToken)
			}
			s.IssuePage(other, "/p.html", &pk)
		}
		fresh = fresh[2:] // evicted
		s.Validate(owner, fresh[0])
		set := map[string]bool{}
		for _, k := range fresh[1:] {
			set[k] = true
		}
		return s, set, undrawn
	}
	s, fresh, undrawn := build()
	for k := range fresh {
		f.Add(owner, k, uint64(0))
		f.Add(other, k, s.limit-1)
	}
	f.Add("", "", uint64(1<<63))
	f.Add(owner, "12345a", uint64(999999))
	f.Add("10.0.0.3", "0000000", uint64(1000000))
	for _, token := range undrawn { // the keys the late downloads are going to draw
		key, _, _ := s.PageKeysFor(owner, token, nil)
		f.Add(owner, fmt.Sprintf("%0*d", digits, key), key)
	}
	// The values past the domain: a live key plus a multiple of 10^6, all-ones
	// in every byte width and the first value past every digit count must all
	// be refused before P is inverted.
	for w := 1; w <= 8; w++ {
		f.Add(owner, "", ^uint64(0)>>(64-8*w))
	}
	for d := 1; d <= MaxKeyDigits; d++ {
		f.Add(owner, fmt.Sprint(pow10(d)), pow10(d))
	}
	for k := range fresh {
		live, _ := strconv.ParseUint(k, 10, 64)
		for _, high := range []uint64{1, 2, 1 << 20, (1<<64-1)/s.limit - 1} {
			f.Add(owner, "", live+high*s.limit)
		}
		break
	}

	f.Fuzz(func(t *testing.T, ip, key string, raw uint64) {
		s, fresh, undrawn := build()
		v := s.Validate(ip, key)
		if want := ip == owner && fresh[key]; (v == Human) != want {
			t.Fatalf("Validate(%q, %q) = %v; a human's key: %v", ip, key, v, want)
		}
		if v == Human {
			if again := s.Validate(ip, key); again != Replayed {
				t.Fatalf("second Validate(%q, %q) = %v, want Replayed", ip, key, again)
			}
			delete(fresh, key)
		}
		want := ip == owner && raw < 1e6 && fresh[fmt.Sprintf("%0*d", digits, raw)]
		if v := s.ValidateValue(ip, raw); (v == Human) != want {
			t.Fatalf("ValidateValue(%q, %d) = %v; a human's key: %v", ip, raw, v, want)
		}
		// Whatever was presented above came before these scripts were asked
		// for, so none of it was Human on their account (the checks above hold
		// fresh to the downloaded pages only); once asked for, each key proves
		// its owner human exactly as an early download's does.
		for _, token := range undrawn {
			late, _, ok := s.PageKeysFor(owner, token, nil)
			if !ok {
				t.Fatalf("no script for live token %d", token)
			}
			if v := s.ValidateValue(other, late); v == Human {
				t.Fatalf("late key %d = Human for another address", late)
			}
			if v := s.ValidateValue(owner, late); v != Human {
				t.Fatalf("late key %d = %v after its script download, want Human", late, v)
			}
		}
	})
}
