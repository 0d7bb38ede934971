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
	w := s.windowOf(ip)
	if w == nil {
		return nil
	}
	var ticks []uint32
	for h := logPrefixBytes; h < len(w); h += headerBytes {
		if w.has(h, flagLapsed) {
			ticks = append(ticks, lapsedTick)
			continue
		}
		if off := uint32(w.header(h) & maxOffset); off > s.ttlTicks || w.base() > math.MaxUint32-off {
			t.Fatalf("header offset %d from base %d: past ttlTicks (%d) or the tick space", off, w.base(), s.ttlTicks)
		}
		ticks = append(ticks, w.tick(h))
	}
	return ticks
}

// TestHeaderTickOffsetAtTTLEdge holds the 12-bit tick offset where it is
// widest. At each TTL — the default hour, one nanosecond past it (where
// ttlTicks rounds up), 65,535ns and 32,767ns (a tick unit of 31 and 15ns,
// 2,115 and 2,185 ticks: from about 4ms up a TTL spans at most 2,049),
// 2,047ns (under tickResolution, so the tick unit is floored at 1ns), 4,095ns
// (the most ticks any TTL spans: 2^12-1) and 1ns — the oldest page view is
// exactly ttlTicks old when a normal issue lands (its offset is ttlTicks, the
// most a live header holds) and then a degraded one, backdated by three
// quarters of the TTL; later, after everything expired, a degraded issue
// lands below the base and rebases the live header to that distance. The
// degraded page views carry the flag just above the offset. After every step
// each reconstructed tick (or, for a header the window marked lapsed, the
// reference's page view being past its TTL), each script download and each
// verdict must equal the reference store's.
func TestHeaderTickOffsetAtTTLEdge(t *testing.T) {
	const ip = "10.0.0.1"
	for _, ttl := range []time.Duration{time.Hour, time.Hour + 1, 65535, 32767, 2047, 4095, 1} {
		t.Run(fmt.Sprint(ttl), func(t *testing.T) {
			vcA, vcB := clock.NewVirtual(time.Time{}), clock.NewVirtual(time.Time{})
			got := New(Config{Seed: 5, TTL: ttl, Decoys: 2, Shards: 1, Clock: vcA})
			want := newRefStore(Config{Seed: 5, TTL: ttl, Decoys: 2, Shards: 1, Clock: vcB}, maxClients)
			unit := got.tickUnit
			edge := time.Duration(got.ttlTicks) * unit
			if got.ttlTicks > maxOffset {
				t.Fatalf("ttlTicks %d does not fit a 12-bit offset", got.ttlTicks)
			}
			advance := func(d time.Duration) {
				if d > 0 {
					vcA.Advance(d)
					vcB.Advance(d)
				}
			}
			var tokens []uint64
			// issue issues one page view to both stores, degraded or not.
			issue := func(degraded bool) {
				t.Helper()
				var a, b PageKeys
				if degraded {
					got.IssuePageDegraded(ip, "/p.html", &a)
					want.IssuePageDegraded(ip, "/p.html", &b)
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

			issue(false)
			check("first issue")
			advance(edge)
			issue(false)
			check("an issue exactly ttlTicks after the base")
			if ticks := headerTicks(t, got, ip); ticks[1]-ticks[0] != got.ttlTicks {
				t.Fatalf("the second issue is %d ticks after the first, want %d", ticks[1]-ticks[0], got.ttlTicks)
			}
			issue(true)
			check("a degraded issue at the edge")
			advance(unit)
			check("one tick past the first page view's life")
			issue(false)
			check("the expiry scan")

			advance(2 * ttl)
			issue(false)
			issue(true)
			check("a degraded issue below the base")
			if ttl >= degradedShare { // a TTL under 4ns cannot be shortened
				ticks := headerTicks(t, got, ip)
				now := vcA.Now()
				back := got.tick(now) - got.tick(now.Add(ttl/degradedShare-ttl))
				if n := len(ticks); ticks[n-2]-ticks[n-1] != back || back < 3*got.ttlTicks/4-1 {
					t.Fatalf("degraded tick %d against %d: not backdated by %d ticks, about 3/4 of ttlTicks (%d)", ticks[n-1], ticks[n-2], back, got.ttlTicks)
				}
			}
			w := got.windowOf(ip)
			if hdr := w.header(len(w) - headerBytes); hdr != flagDegraded|flagDrawn {
				t.Fatalf("the degraded header, downloaded, at the base, reads %#04x, want %#04x", hdr, flagDegraded|flagDrawn)
			}
			for _, d := range []time.Duration{unit, unit, edge - 3*unit, unit, unit, unit} {
				advance(d)
				check(fmt.Sprintf("advance %v", d))
			}
			issue(false)
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

// TestRebaseSaturatesAtTheOffsetWidth: a rebase that would carry an offset
// past 12 bits — only a clock running backwards does that — stops it at
// maxOffset and leaves the flags above it alone, and a lapsed header keeps
// its bits.
func TestRebaseSaturatesAtTheOffsetWidth(t *testing.T) {
	hdrs := []uint16{0, flagDrawn | 100, flagDrawn | flagConsumed | maxOffset, flagDegraded | 95, flagLapsed | flagDrawn | 7}
	want := []uint16{4000, flagDrawn | maxOffset, flagDrawn | flagConsumed | maxOffset, flagDegraded | 4095, flagLapsed | flagDrawn | 7}
	w := make(window, logPrefixBytes+len(hdrs)*headerBytes)
	binary.LittleEndian.PutUint32(w, 10000)
	for i, hdr := range hdrs {
		binary.LittleEndian.PutUint16(w[logPrefixBytes+i*headerBytes:], hdr)
	}
	w.rebase(6000)
	for i := range hdrs {
		if got := w.header(logPrefixBytes + i*headerBytes); got != want[i] {
			t.Errorf("header %d: %#04x rebased by 4,000 ticks reads %#04x, want %#04x", i, hdrs[i], got, want[i])
		}
	}
	if w.base() != 6000 {
		t.Errorf("base %d, want 6000", w.base())
	}
}
