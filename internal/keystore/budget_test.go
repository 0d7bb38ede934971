package keystore

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// TestKeystoreStructBudgets pins the flat log's layout: one outstanding page
// view costs a 12-byte header (issue tick, token tag, decoy count, drawn and
// consumed bits) and nothing else until its script is requested, then one
// 8-byte arena word per key; one tracked client stays within a
// cache-line-and-a-half. A failure means a field was added without re-deriving
// the budget.
func TestKeystoreStructBudgets(t *testing.T) {
	if got := unsafe.Sizeof(batch{}); got > 12 {
		t.Errorf("batch = %d bytes, exceeds the 12-byte header budget", got)
	}
	if got := unsafe.Sizeof(clientState{}); got > 96 {
		t.Errorf("clientState = %d bytes, exceeds the 96-byte budget", got)
	}
}

// TestMemoryEstimateCoversHeap holds MemoryEstimate against the heap the
// store really pins: 20,000 clients at 1, 4, 17 and 64 outstanding pages (a
// one-page visitor, a short visit, a slice just past a doubling, and the
// per-client cap), with every page's script downloaded (pages=N: headers plus
// full key runs), none (undrawn: headers only — what a robot that never runs
// scripts costs) and every other one (half: runs inserted between undrawn
// neighbours). The estimate feeds the admission ladder, so it may never read
// below the heap — and bytes_per_session is computed from it, so it may not
// drift far above either.
func TestMemoryEstimateCoversHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	const clients = 20000
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, draw := range []struct {
		suffix string
		every  int // download the script of every n-th page view; 0 = never
	}{{"", 1}, {",undrawn", 0}, {",half", 2}} {
		for _, pages := range []int{1, 4, 17, 64} {
			t.Run(fmt.Sprintf("pages=%d%s", pages, draw.suffix), func(t *testing.T) {
				before := heap()
				s := New(Config{Seed: 3})
				ips := make([]string, clients) // the store pins its clients' address strings
				for i := range ips {
					ips[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
				}
				var pk PageKeys
				for p := 0; p < pages; p++ {
					for i, ip := range ips {
						s.IssuePage(ip, "/index.html", &pk)
						if draw.every > 0 && (p+i)%draw.every == 0 {
							_, pk.Decoys, _ = s.PageKeysFor(ip, pk.ScriptToken, pk.Decoys[:0])
						}
					}
				}
				clear(ips)
				got, est := heap()-before, s.MemoryEstimate()
				runtime.KeepAlive(s)
				t.Logf("%d pages: heap %d B/client, estimate %d B/client (%.2fx), %d of %d drawn",
					pages, got/clients, est/clients, float64(est)/float64(got), s.Stats().Drawn, s.Stats().Issued)
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
