package keystore

import (
	"fmt"
	"testing"
	"time"

	"botdetect/internal/clock"
)

// TestNarrowKeyDigitsAreRaised: a width whose 10^d cannot give a page view
// its distinct keys (1 and 2 digits against 256 keys a page) is raised to
// MinKeyDigits, so issuing, downloading and validating finish — a store that
// kept the width could only answer by looping forever, which the deadline
// turns into a failure — and every key has six digits.
func TestNarrowKeyDigitsAreRaised(t *testing.T) {
	const ip = "10.0.0.1"
	for _, digits := range []int{1, 2} {
		done := make(chan error, 1)
		go func() {
			s := New(Config{KeyDigits: digits, Decoys: 255, Seed: 1})
			var pk PageKeys
			s.IssuePage(ip, "/p.html", &pk)
			key, decoys, ok := s.PageKeysFor(ip, pk.ScriptToken, nil)
			switch {
			case !ok || len(decoys) != 255:
				done <- fmt.Errorf("download: ok %v, %d decoys", ok, len(decoys))
			case pk.Digits != MinKeyDigits || len(wire(&pk, key)) != MinKeyDigits || key >= pow10(MinKeyDigits):
				done <- fmt.Errorf("key %d at width %d, want %d digits", key, pk.Digits, MinKeyDigits)
			case s.Validate(ip, wire(&pk, key)) != Human || s.Validate(ip, wire(&pk, decoys[254])) != Decoy:
				done <- fmt.Errorf("the downloaded keys do not validate")
			default:
				done <- nil
			}
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("KeyDigits %d: %v", digits, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("KeyDigits %d: issue, download and validate did not finish in 10s", digits)
		}
	}
}

// TestEveryKeyInTheDomain validates every one of the 10^6 values of the
// six-digit domain against a client holding 64 page views — most downloaded,
// some of those consumed, some not downloaded, one degraded and live, one
// degraded and expired behind the window's front — and checks the forgery
// bound by construction: exactly the live downloaded real keys give Human
// (Replayed once consumed), exactly their decoys give Decoy, and every other
// value gives Unknown. It does the same for a second client, and for the
// first after it was evicted and re-created with the same page-view numbers:
// no key of its earlier incarnation may validate.
func TestEveryKeyInTheDomain(t *testing.T) {
	const a, b, c = "10.0.0.1", "10.0.0.2", "10.0.0.3"
	vc := clock.NewVirtual(time.Time{})
	s := capClients(New(Config{Seed: 9, KeyDigits: 6, Decoys: 3, TTL: time.Hour, Shards: 1, Clock: vc}), 2)

	// fill issues 64 page views to ip at the current time and returns what
	// every domain value must give for it ten minutes later (the zero
	// Verdict is Unknown) and every key it handed out.
	fill := func(ip string) (want map[uint64]Verdict, keys []uint64) {
		want = map[uint64]Verdict{}
		for i := range maxPerClient {
			var pk PageKeys
			switch i {
			case 10: // expired by the sweep, behind a live front
				s.IssuePageDegraded(ip, "/p.html", 3, 5*time.Minute, &pk)
			case 20: // degraded and live
				s.IssuePageDegraded(ip, "/p.html", 2, 30*time.Minute, &pk)
			default:
				s.IssuePage(ip, "/p.html", &pk)
			}
			if i%4 == 3 {
				continue // never downloaded: its keys are Unknown
			}
			download(t, s, ip, &pk)
			keys = append(append(keys, pk.Key), pk.Decoys...)
			if i == 10 {
				continue
			}
			want[pk.Key] = Human
			if i%8 == 1 {
				if v := s.ValidateValue(ip, pk.Key); v != Human {
					t.Fatalf("%s page view %d: first validation %v", ip, i, v)
				}
				want[pk.Key] = Replayed
			}
			for _, d := range pk.Decoys {
				want[d] = Decoy
			}
		}
		return want, keys
	}
	sweep := func(when, ip string, want map[uint64]Verdict) map[Verdict]int {
		t.Helper()
		seen := map[Verdict]int{}
		for v := range pow10(6) {
			got := s.ValidateValue(ip, v)
			if got != want[v] {
				t.Fatalf("%s: %s presenting %06d = %v, want %v", when, ip, v, got, want[v])
			}
			seen[got]++
		}
		return seen
	}

	wantA, keysA := fill(a)
	wantB, _ := fill(b)
	vc.Advance(10 * time.Minute)
	for _, cl := range []struct {
		ip   string
		want map[uint64]Verdict
	}{{a, wantA}, {b, wantB}} {
		seen := sweep("first incarnation", cl.ip, cl.want)
		t.Logf("%s: %v", cl.ip, seen)
		// 48 downloaded page views, one of them expired: 47 live, 8 consumed,
		// 46 x 3 + 2 decoys.
		if seen[Human] != 39 || seen[Replayed] != 8 || seen[Decoy] != 140 {
			t.Fatalf("%s: verdict counts %v, want 39 human, 8 replayed, 140 decoy", cl.ip, seen)
		}
	}

	// b stays recent; c evicts a, and a comes back with numbers 0..63 again.
	s.IssuePage(c, "/p.html", new(PageKeys))
	if s.outstandingKeys(a) != 0 || s.Stats().EvictedClients != 1 {
		t.Fatalf("a was not evicted: %+v", s.Stats())
	}
	s.IssuePage(b, "/p.html", new(PageKeys))
	wantA2, _ := fill(a)
	vc.Advance(10 * time.Minute)
	shared := 0 // values that are keys in both incarnations, by chance
	for _, k := range keysA {
		if _, ok := wantA2[k]; ok {
			shared++
		}
	}
	if shared > 4 {
		t.Fatalf("%d of the earlier incarnation's %d keys are keys again: the incarnation does not reach the tweak", shared, len(keysA))
	}
	sweep("re-created", a, wantA2)
}
