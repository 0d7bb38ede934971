package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"botdetect/internal/logfmt"
	"botdetect/internal/session"
	"botdetect/internal/shard/shardtest"
)

// TestMemoryCeilingPerSession is the e2e gate for the million-session memory
// engine: after a realistic serve pattern — one instrumented page issue plus
// a few observed requests per client — the engine's own MemoryEstimate must
// come in at or under 280 B per tracked session at 8 shards, and at or under
// 296 B at 512, the most shard.AutoShards picks for any core count. It
// measured 274.1 B at 8 shards: a 192-byte session record holding its
// address and its three path fingerprints, and an undownloaded page's
// 64-byte keystore record holding its address and its window, a 12-byte
// prefix and one 4-byte header — 256 B and no pointer — plus both tables'
// unfilled chunk slots, chunk directories and bucket arrays, and the
// arenas' bookkeeping, 256 B a 256 KiB block (0.26 B a session; 273.8 B
// before the arenas). It measured 274.0 to 283.9 B at 16 to 256 shards
// before the arenas and 294.8 B at 512 (294.5 B before), where 39 sessions
// a shard leave a last chunk half empty in both tables. The ceiling stood at
// 304 B at any shard count while each table kept a directory of record
// pointers as long as its bucket array (296 B at 8 shards, 293 to 301 B at 8
// to 512), at 384 B while the records held their addresses as strings, their
// links as pointers and the path set as a slice (378 B, 377 to 383 B across
// shard counts), at 460 B while each table charged a 42-byte map slot per
// entry (436 B; 8-byte headers, size-class growth and derived keys had each
// left that at 436 B, because a one-page window and a three-path set already
// sit in their smallest classes), at 520 B while the number was 472, at 640 B
// while it was 572, and at 2 KiB while it was 684. The estimate is the same
// number admission control budgets against and the serve benchmark reports
// as bytes_per_session, so this pins the plan's core arithmetic: 1M clients
// fit in well under 1 GB.
func TestMemoryCeilingPerSession(t *testing.T) {
	for _, c := range []struct {
		shards  int
		ceiling int64
	}{{8, 280}, {512, 296}} {
		const clients = 20000
		e := New(Config{Seed: 11, MaxSessions: clients * 2, Shards: c.shards})
		base := time.Unix(1136073600, 0)
		ps := &PageState{}
		for i := 0; i < clients; i++ {
			ip := fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
			ua := fmt.Sprintf("Mozilla/5.0 (bench; rv:%d)", i%64) // 64 distinct UAs, like real traffic
			prepareFor(e, AdmitFull, ip, ua, ps)
			for r := 0; r < 3; r++ {
				e.ObserveRequestQuiet(logfmt.Entry{
					Time: base.Add(time.Duration(r) * time.Second), ClientIP: ip, UserAgent: ua,
					Method: "GET", Path: fmt.Sprintf("/doc/%d.html", r), Status: 200, Bytes: 1200,
					ContentType: "text/html",
				})
			}
		}

		n := e.SessionCount()
		if n < clients*99/100 {
			t.Fatalf("tracked sessions = %d, want ~%d", n, clients)
		}
		perSession := e.MemoryEstimate() / int64(n)
		t.Logf("%d shards: engine estimate: %d sessions, %d B total, %d B/session", c.shards, n, e.MemoryEstimate(), perSession)
		sess, keys, interned := e.MemoryBreakdown()
		t.Logf("breakdown: sessions=%d keys=%d interned=%d", sess, keys, interned)
		if perSession > c.ceiling {
			t.Fatalf("engine memory at %d shards = %d B/session, exceeds the %d B ceiling", c.shards, perSession, c.ceiling)
		}
	}
}

// TestEngineMemoryEstimateCoversHeap holds the engine's MemoryEstimate — the
// number admission control budgets against — between 1.00x and 1.25x of the
// memory its sessions really pin, on the heap and in the tables' arenas
// outside it: 50,000 sessions observed once each, then
// either left alone or read once through Decide. A verdict lives in the
// session record, so reading one may not grow the heap past the estimate;
// while a verdict was two heap objects beside the record (96 B) the Decided
// case measured 0.90x.
func TestEngineMemoryEstimateCoversHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	// One P while the heap is measured: a thread the runtime starts meanwhile
	// puts its own 5.5 KB on the heap (runtime.allocm), none of it the engine's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sessions = 50000
	const ua = "Mozilla/5.0 (X11; Linux x86_64; rv:109.0) Gecko/20100101 Firefox/115.0"
	for _, decide := range []bool{false, true} {
		t.Run(fmt.Sprintf("decide=%v", decide), func(t *testing.T) {
			e := New(Config{Seed: 13})
			now := time.Unix(1136073600, 0)
			before, est0 := shardtest.SettledHeap(), e.MemoryEstimate()
			ips := make([]string, sessions) // the tracker pins its sessions' address strings
			for i := range ips {
				ips[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
			}
			for _, ip := range ips {
				e.ObserveRequestQuiet(logfmt.Entry{Time: now, ClientIP: ip, UserAgent: ua, Method: "GET",
					Path: "/index.html", Status: 200, ContentType: "text/html"})
				if decide {
					snap, _, ok := e.Decide(session.Key{IP: ip, UserAgent: ua})
					if !ok {
						t.Fatalf("session %s vanished", ip)
					}
					snap.Release()
				}
			}
			ips = nil
			got, est := shardtest.SettledHeap()-before, e.MemoryEstimate()-est0
			runtime.KeepAlive(e)
			t.Logf("heap %d B/session, estimate %d B/session (%.2fx)", got/sessions, est/sessions, float64(est)/float64(got))
			if est < got {
				t.Errorf("estimate %d B < heap %d B: MemoryEstimate under-counts", est, got)
			}
			if est*4 > got*5 {
				t.Errorf("estimate %d B > 1.25 x heap %d B", est, got)
			}
		})
	}
}

// TestMemoryCeilingUndownloadedPages pins "the memory is explained by the
// estimate" for the clients the paper is about: robots fetch pages and never
// the script. One page prepared for each of 50,000 never-seen clients, nothing
// downloaded — what the process then retains, on the heap and in the tables'
// arenas outside it, must be what MemoryEstimate (the number admission
// control budgets against) says it retains: between 0.9x and 1.3x of it,
// measured like TestEngineMemoryEstimateCoversHeap (shardtest.SettledHeap, one P), so
// that the tables earlier tests dropped cannot unmap their blocks inside the
// measurement (read once on each side, that made the ratio negative). A
// per-page structure the estimate cannot see, like a parked script body,
// fails this, and so does an estimate that charges for more than the pages
// hold. And the estimate itself is pinned: such a client costs its
// keystore entry and one 4-byte page-view header — measured 70 B, a 64-byte
// record holding its address and its window, and its share of the unfilled
// chunk slots, the chunk directory and the bucket array; 70.6 to 72.8 B at 8
// to 512 shards (79 B while the table kept a directory of record pointers;
// 106 B while the record pointed at an address string and a 16-byte window,
// though this pin stayed at 138 B; 138 B while the index was a map; 174 B
// while a client was a 96-byte struct behind a string-keyed slot) — because
// the store keeps no key; storing a page's keys at issue again (a 25-byte
// run per page) fails by number.
func TestMemoryCeilingUndownloadedPages(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const clients = 50000
	e := New(Config{Seed: 12})
	ps := &PageState{}
	prepareFor(e, AdmitFull, "10.255.255.1", "Firefox/1.5", ps) // warm ps and the interner

	before, est0 := shardtest.SettledHeap(), e.MemoryEstimate()
	for i := 0; i < clients; i++ {
		ip := fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
		prepareFor(e, AdmitFull, ip, "Firefox/1.5", ps)
	}
	heap, est := shardtest.SettledHeap()-before, e.MemoryEstimate()-est0
	runtime.KeepAlive(e)
	runtime.KeepAlive(ps)

	ratio := float64(heap) / float64(est)
	t.Logf("%d undownloaded page views: heap and arena +%d B (%d B/client), estimate +%d B (%d B/client), ratio %.2f",
		clients, heap, heap/clients, est, est/clients, ratio)
	if ratio > 1.3 {
		t.Fatalf("heap and arena grew %d B against an estimate of %d B (%.2fx): memory the estimate cannot see", heap, est, ratio)
	}
	if ratio < 0.9 {
		t.Fatalf("heap and arena grew %d B against an estimate of %d B (%.2fx): the estimate over-counts, or the measurement is broken", heap, est, ratio)
	}
	const measured = 70 // B/client
	if perClient := est / clients; perClient*100 > measured*105 {
		t.Fatalf("an undownloaded page view costs %d B/client by the estimate, measured %d B when this was pinned: are keys drawn before the script is asked for?", perClient, measured)
	}
}
