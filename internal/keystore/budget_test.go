package keystore

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestKeystoreStructBudgets pins the log's layout: a tracked client is one
// 64-byte node (address, log, LRU and index-chain links); one outstanding page
// view costs an 8-byte header (a u16 tick offset, a u32 token tag, a u8 decoy
// count, drawn and consumed bits) and nothing else until its script is
// requested, then keyWidth(KeyDigits) bytes per key. The offset must hold the
// TTL in ticks at every TTL. Every width must leave
// room for the dead sentinel: 10^d-1 below all-ones in keyWidth(d) bytes, so no
// key of d digits spells it. A failure means a field was added without
// re-deriving the budget.
func TestKeystoreStructBudgets(t *testing.T) {
	if got := unsafe.Sizeof(clientState{}); got > 64 {
		t.Errorf("clientState = %d bytes, exceeds the 64-byte budget", got)
	}
	if headerBytes != 8 || hdrTag != 2 || hdrDecoys != 6 || hdrFlags != 7 {
		t.Errorf("header = %d bytes (tag at %d, decoys at %d, flags at %d), want 8: offset, tag, decoys, flags", headerBytes, hdrTag, hdrDecoys, hdrFlags)
	}
	for _, ttl := range []time.Duration{1, tickResolution - 1, tickResolution, 2*tickResolution - 1, 2 * tickResolution, time.Second, time.Hour + 1, 1 << 62} {
		if s := New(Config{TTL: ttl}); s.ttlTicks > math.MaxUint16 {
			t.Errorf("TTL %v is %d ticks, past a 16-bit offset", ttl, s.ttlTicks)
		}
	}
	widths := [MaxKeyDigits + 1]int{1: 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5, 6, 6, 7, 7, 8, 8, 8}
	for d := 1; d <= MaxKeyDigits; d++ {
		w := keyWidth(d)
		if w != widths[d] {
			t.Errorf("keyWidth(%d) = %d, want %d", d, w, widths[d])
		}
		s := New(Config{KeyDigits: d})
		if s.width != w || s.limit != pow10(d) || s.dead != ^uint64(0)>>(64-8*w) {
			t.Errorf("%d digits: store width %d limit %d sentinel %#x", d, s.width, s.limit, s.dead)
		}
		if pow10(d)-1 >= s.dead {
			t.Errorf("%d digits: the largest key %d is not below the %d-byte sentinel %#x", d, pow10(d)-1, w, s.dead)
		}
	}
}

// heapClients is the heap a store pins, and its MemoryEstimate, after
// 20,000 clients each viewed pages pages, with the script of every every-th
// page view downloaded (0: none).
func heapClients(pages, every int) (heap, est int64, s *Store) {
	const clients = 20000
	live := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	s = New(Config{Seed: 3})
	ips := make([]string, clients) // the store pins its clients' address strings
	for i := range ips {
		ips[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
	}
	var pk PageKeys
	for p := 0; p < pages; p++ {
		for i, ip := range ips {
			s.IssuePage(ip, "/index.html", &pk)
			if every > 0 && (p+i)%every == 0 {
				_, pk.Decoys, _ = s.PageKeysFor(ip, pk.ScriptToken, pk.Decoys[:0])
			}
		}
	}
	clear(ips)
	heap, est = live()-before, s.MemoryEstimate()
	runtime.KeepAlive(s)
	return heap / clients, est / clients, s
}

// TestMemoryEstimateCoversHeap holds MemoryEstimate against the heap the
// store really pins: 20,000 clients at 1, 4, 17, 64, 65 and 200 outstanding
// pages (a one-page visitor, a short visit, a longer one, the per-client cap,
// one past it and far past it), with every page's script
// downloaded (pages=N: headers plus full key runs), none (undrawn: headers
// only — what a robot that never runs scripts costs) and every other one
// (half: runs inserted between undrawn neighbours). The estimate feeds the
// admission ladder, so it may never read below the heap — and
// bytes_per_session is computed from it, so it may not drift far above either.
func TestMemoryEstimateCoversHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	for _, draw := range []struct {
		suffix string
		every  int // download the script of every n-th page view; 0 = never
	}{{"", 1}, {",undrawn", 0}, {",half", 2}} {
		for _, pages := range []int{1, 4, 17, 64, 65, 200} {
			t.Run(fmt.Sprintf("pages=%d%s", pages, draw.suffix), func(t *testing.T) {
				got, est, s := heapClients(pages, draw.every)
				t.Logf("%d pages: heap %d B/client, estimate %d B/client (%.2fx), %d of %d drawn",
					pages, got, est, float64(est)/float64(got), s.Stats().Drawn, s.Stats().Issued)
				if est < got {
					t.Errorf("estimate %d B < heap %d B: MemoryEstimate under-counts", est, got)
				}
				if est*4 > got*5 {
					t.Errorf("estimate %d B > 1.25 x heap %d B", est, got)
				}
			})
		}
	}
}

// TestKeyLogNeverOutgrowsTheCap pins the per-client cap in bytes, not just in
// page views: a client past maxPerClient page views holds no more heap than
// one at it (+16 B for the allocator's noise), with no script downloaded and
// with every one. A log that appends the new page view before it drops the
// oldest outgrows its cap-sized array once and keeps the larger one; that
// measured 1,691 against 923 B/client undrawn and 4,763 against 3,996 drawn.
// With 8-byte headers in size-class arrays both sides measure 685 B undrawn
// and 2,413 B drawn (1,005 and 2,797 with 11-byte headers and doubling).
func TestKeyLogNeverOutgrowsTheCap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	for _, every := range []int{0, 1} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			atCap, _, _ := heapClients(maxPerClient, every)
			past, _, _ := heapClients(200, every)
			t.Logf("heap per client: %d B at %d page views, %d B at 200", atCap, maxPerClient, past)
			if past > atCap+16 {
				t.Errorf("a client at 200 page views holds %d B, at the %d-view cap %d B: the log outgrew the cap", past, maxPerClient, atCap)
			}
		})
	}
}
