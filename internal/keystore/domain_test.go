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
	s := capClients(New(Config{Seed: 9, KeyDigits: 6, Decoys: 8, TTL: time.Hour, Shards: 1, Clock: vc}), 2)

	// fill issues 64 page views to each of ips in turn, with the clock six
	// minutes later from the twelfth on, and returns what every domain value
	// must give each client ten minutes after that (the zero Verdict is
	// Unknown) and every key each was handed. The eleventh, degraded, is then
	// 16 minutes old, past its 15-minute TTL behind a live front; the 21st,
	// degraded too, is 10 minutes old and live.
	fill := func(ips ...string) (want map[string]map[uint64]Verdict, keys map[string][]uint64) {
		want, keys = map[string]map[uint64]Verdict{}, map[string][]uint64{}
		for _, ip := range ips {
			want[ip] = map[uint64]Verdict{}
		}
		for i := range maxPerClient {
			if i == 11 {
				vc.Advance(6 * time.Minute)
			}
			for _, ip := range ips {
				var pk PageKeys
				if i == 10 || i == 20 {
					s.IssuePageDegraded(ip, "/p.html", &pk)
				} else {
					s.IssuePage(ip, "/p.html", &pk)
				}
				if i%4 == 3 {
					continue // never downloaded: its keys are Unknown
				}
				download(t, s, ip, &pk)
				keys[ip] = append(append(keys[ip], pk.Key), pk.Decoys...)
				if i == 10 {
					continue
				}
				want[ip][pk.Key] = Human
				if i%8 == 1 {
					if v := s.ValidateValue(ip, pk.Key); v != Human {
						t.Fatalf("%s page view %d: first validation %v", ip, i, v)
					}
					want[ip][pk.Key] = Replayed
				}
				for _, d := range pk.Decoys {
					want[ip][d] = Decoy
				}
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

	want, keys := fill(a, b)
	vc.Advance(10 * time.Minute)
	for _, ip := range []string{a, b} {
		seen := sweep("first incarnation", ip, want[ip])
		t.Logf("%s: %v", ip, seen)
		// 48 downloaded page views, one of them expired: 47 live, 8 consumed,
		// 46 x 8 + 2 decoys.
		if seen[Human] != 39 || seen[Replayed] != 8 || seen[Decoy] != 370 {
			t.Fatalf("%s: verdict counts %v, want 39 human, 8 replayed, 370 decoy", ip, seen)
		}
	}

	// b stays recent; c evicts a, and a comes back with numbers 0..63 again.
	s.IssuePage(c, "/p.html", new(PageKeys))
	if s.outstandingKeys(a) != 0 || s.Stats().EvictedClients != 1 {
		t.Fatalf("a was not evicted: %+v", s.Stats())
	}
	s.IssuePage(b, "/p.html", new(PageKeys))
	again, _ := fill(a)
	vc.Advance(10 * time.Minute)
	shared := 0 // values that are keys in both incarnations, by chance
	for _, k := range keys[a] {
		if _, ok := again[a][k]; ok {
			shared++
		}
	}
	if shared > 4 {
		t.Fatalf("%d of the earlier incarnation's %d keys are keys again: the incarnation does not reach the tweak", shared, len(keys[a]))
	}
	sweep("re-created", a, again[a])
}
