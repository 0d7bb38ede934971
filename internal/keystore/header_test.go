package keystore

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"botdetect/internal/clock"
)

// lapsedTick stands in headerTicks for the tick of a lapsed header, which
// the window no longer keeps.
const lapsedTick = math.MaxUint32

// headerTicks reconstructs the issue tick of every header ip's window holds,
// in issue order (lapsedTick for a lapsed one), and checks the offset
// invariant on the way: no live tick is more than ttlTicks past the base (an
// unsigned offset cannot be below it).
func headerTicks(t *testing.T, s *Store, ip string) []uint32 {
	t.Helper()
	sh, hash := s.clients.Locate(ip)
	cs := sh.Get(hash, ip)
	if cs == nil {
		return nil
	}
	w := cs.log
	var ticks []uint32
	for h := logPrefixBytes; h < len(w); h += headerBytes {
		if w[h+hdrFlags]&flagLapsed != 0 {
			ticks = append(ticks, lapsedTick)
			continue
		}
		if off := uint32(binary.LittleEndian.Uint16(w[h:])); off > s.ttlTicks || w.base() > math.MaxUint32-off {
			t.Fatalf("header offset %d from base %d: past ttlTicks (%d) or the tick space", off, w.base(), s.ttlTicks)
		}
		ticks = append(ticks, w.tick(h))
	}
	return ticks
}

// TestHeaderTickOffsetAtTTLEdge holds the 16-bit tick offset where it is
// widest. At each TTL — the default hour, one nanosecond past it (where
// ttlTicks rounds up), 32,767ns (under tickResolution, so the tick unit is
// floored at 1ns), 65,535ns (the most ticks any TTL spans: 2^16-1) and 1ns —
// the oldest page view is exactly ttlTicks old when a normal issue lands (its
// offset is ttlTicks, the most a live header holds) and then a degraded one
// backdated as far as it goes; later, after everything expired, a degraded
// issue lands below the base and rebases the live header to the same
// distance. After every step each reconstructed tick (or, for a header the
// window marked lapsed, the reference's page view being past its TTL), each
// script download and each verdict must equal the reference store's.
func TestHeaderTickOffsetAtTTLEdge(t *testing.T) {
	const ip = "10.0.0.1"
	for _, ttl := range []time.Duration{time.Hour, time.Hour + 1, 32767, 65535, 1} {
		t.Run(fmt.Sprint(ttl), func(t *testing.T) {
			vcA, vcB := clock.NewVirtual(time.Time{}), clock.NewVirtual(time.Time{})
			got := New(Config{Seed: 5, TTL: ttl, Decoys: 2, Shards: 1, Clock: vcA})
			want := newRefStore(Config{Seed: 5, TTL: ttl, Decoys: 2, Shards: 1, Clock: vcB}, maxClients)
			unit := got.tickUnit
			edge := time.Duration(got.ttlTicks) * unit
			if got.ttlTicks > 1<<16-1 {
				t.Fatalf("ttlTicks %d does not fit a 16-bit offset", got.ttlTicks)
			}
			advance := func(d time.Duration) {
				if d > 0 {
					vcA.Advance(d)
					vcB.Advance(d)
				}
			}
			var tokens []uint64
			// issue issues one page view to both stores, degraded to a TTL of
			// short when short > 0.
			issue := func(short time.Duration) {
				t.Helper()
				var a, b PageKeys
				if short > 0 {
					got.IssuePageDegraded(ip, "/p.html", 1, short, &a)
					want.IssuePageDegraded(ip, "/p.html", 1, short, &b)
				} else {
					got.IssuePage(ip, "/p.html", &a)
					want.IssuePage(ip, "/p.html", &b)
				}
				if a.ScriptToken != b.ScriptToken {
					t.Fatalf("script token %d, reference %d", a.ScriptToken, b.ScriptToken)
				}
				tokens = append(tokens, a.ScriptToken)
			}
			check := func(when string) {
				t.Helper()
				var ref []uint32
				if cs, ok := want.shard(ip).clients[ip]; ok {
					ticks := headerTicks(t, got, ip)
					nowTick := want.tick(vcB.Now())
					for i, v := range cs.views {
						if i < len(ticks) && ticks[i] == lapsedTick && want.expired(nowTick, v.tick) {
							ref = append(ref, lapsedTick)
						} else {
							ref = append(ref, v.tick)
						}
					}
				}
				if ticks := headerTicks(t, got, ip); !slices.Equal(ticks, ref) {
					t.Fatalf("%s: header ticks %v, reference %v", when, ticks, ref)
				}
				for _, token := range tokens {
					ka, da, oka := got.PageKeysFor(ip, token, nil)
					kb, db, okb := want.PageKeysFor(ip, token, nil)
					if ka != kb || oka != okb || !slices.Equal(da, db) {
						t.Fatalf("%s: script %d: (%d, %v, %v), reference (%d, %v, %v)", when, token, ka, da, oka, kb, db, okb)
					}
					for _, d := range da {
						if a, b := got.ValidateValue(ip, d), want.ValidateValue(ip, d); a != b {
							t.Fatalf("%s: decoy %d: %v, reference %v", when, d, a, b)
						}
					}
				}
				if a, b := got.Stats(), want.stats; a != b {
					t.Fatalf("%s: stats %+v, reference %+v", when, a, b)
				}
			}

			issue(0)
			check("first issue")
			advance(edge)
			issue(0)
			check("an issue exactly ttlTicks after the base")
			if ticks := headerTicks(t, got, ip); ticks[1]-ticks[0] != got.ttlTicks {
				t.Fatalf("the second issue is %d ticks after the first, want %d", ticks[1]-ticks[0], got.ttlTicks)
			}
			issue(1) // backdated by all of the TTL but a nanosecond
			check("a degraded issue at the edge")
			advance(unit)
			check("one tick past the first page view's life")
			issue(0)
			check("the expiry scan")

			advance(2 * ttl)
			issue(0)
			issue(1)
			check("a degraded issue below the base")
			if ttl > 1 { // a 1ns TTL cannot be shortened
				ticks := headerTicks(t, got, ip)
				if n := len(ticks); ticks[n-1] >= ticks[n-2] || ticks[n-2]-ticks[n-1] < got.ttlTicks-1 {
					t.Fatalf("degraded tick %d against %d: not backdated about ttlTicks (%d) below the base", ticks[n-1], ticks[n-2], got.ttlTicks)
				}
			}
			for _, d := range []time.Duration{unit, unit, edge - 3*unit, unit, unit, unit} {
				advance(d)
				check(fmt.Sprintf("advance %v", d))
			}
			issue(0)
			check("the last issue")
			for _, token := range tokens {
				key, _, _ := got.PageKeysFor(ip, token, nil)
				if a, b := got.ValidateValue(ip, key), want.ValidateValue(ip, key); a != b {
					t.Fatalf("real key %d: %v, reference %v", key, a, b)
				}
			}
		})
	}
}
