package keystore

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"
	"unsafe"

	"botdetect/internal/shard"
	"botdetect/internal/shard/shardtest"
)

// TestKeystoreStructBudgets pins the window's layout: a tracked client is one
// 64-byte record with no pointer (its 17-byte address, its LRU and
// index-chain links and slot hash, and 28 bytes of window: a prefix and eight
// headers), eight of which fill a 512-byte chunk of the table; its window is
// a 12-byte prefix (a u32 base tick, a u32 incarnation, a u24 first
// page-view number and a u8 count) and one 2-byte header per page view (a
// 12-bit tick offset, then degraded, drawn, consumed and lapsed bits), and no
// key and no decoy count. The offset must hold the TTL in ticks at every TTL,
// and at every width a page view's last key index must stay in the domain
// and its number in the u24; the count byte must be able to say spilled. A
// failure means a field was added without re-deriving the budget.
func TestKeystoreStructBudgets(t *testing.T) {
	if got := unsafe.Sizeof(clientState{}); got != 64 {
		t.Errorf("clientState = %d bytes: want 64, eight to a 512-byte chunk", got)
	}
	if reflect.TypeFor[clientState]().Size() != 64 || hasPointers(reflect.TypeFor[clientState]()) {
		t.Error("clientState holds a pointer: the collector scans every client again")
	}
	if inlineHeaders != 8 || len(clientState{}.log) != logPrefixBytes+8*headerBytes || spilled <= maxPerClient {
		t.Errorf("the record's window holds %d headers in %d bytes, spilled reads %d", inlineHeaders, len(clientState{}.log), spilled)
	}
	if logPrefixBytes != 12 || preIncarnation != 4 || preWindow != 8 {
		t.Errorf("prefix = %d bytes (incarnation at %d, window word at %d), want 12: base, incarnation, first|count", logPrefixBytes, preIncarnation, preWindow)
	}
	if headerBytes != 2 || maxOffset != 1<<12-1 || flagDegraded != 1<<12 || flagDrawn != 1<<13 || flagConsumed != 1<<14 || flagLapsed != 1<<15 {
		t.Errorf("header = %d bytes (offset mask %#x, flags %#x %#x %#x %#x), want 2: a 12-bit offset, degraded, drawn, consumed, lapsed",
			headerBytes, maxOffset, flagDegraded, flagDrawn, flagConsumed, flagLapsed)
	}
	if maxPerClient > math.MaxUint8 || MaxDecoys > 0xff {
		t.Errorf("a u8 count cannot hold %d page views, or a key index byte %d decoys", maxPerClient, MaxDecoys)
	}
	for _, ttl := range []time.Duration{1, tickResolution - 1, tickResolution, 2*tickResolution - 1, 2 * tickResolution, time.Second, time.Hour + 1, 1 << 62} {
		if s := New(Config{TTL: ttl}); s.ttlTicks > maxOffset {
			t.Errorf("TTL %v is %d ticks, past a 12-bit offset", ttl, s.ttlTicks)
		}
	}
	for d := MinKeyDigits; d <= MaxKeyDigits; d++ {
		s := New(Config{KeyDigits: d})
		if s.limit != pow10(d) || uint64(s.views) != min(maxViewNumbers, pow10(d)/256) {
			t.Errorf("%d digits: limit %d, %d page-view numbers", d, s.limit, s.views)
		}
		if last := uint64(s.views-1)<<8 | MaxDecoys; last >= s.limit || s.views >= 1<<24 || s.views < 2*maxPerClient {
			t.Errorf("%d digits: %d page-view numbers (last key index %d against the domain %d)", d, s.views, last, s.limit)
		}
	}
}

// heapClients is the memory a store pins beyond an empty one (what the
// estimate calls 0), heap and arena chunks, and its MemoryEstimate, after
// 20,000 clients each viewed
// pages pages, with the script of every every-th page view downloaded (0:
// none).
func heapClients(pages, every int) (heap, est int64, s *Store) {
	const clients = 20000
	s = New(Config{Seed: 3})
	before := shardtest.SettledHeap()
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
	heap, est = shardtest.SettledHeap()-before, s.MemoryEstimate()
	runtime.KeepAlive(s)
	return heap / clients, est / clients, s
}

// TestMemoryEstimateCoversHeap holds MemoryEstimate against the heap the
// store really pins: 20,000 clients at 1, 4, 17, 64, 65 and 200 outstanding
// pages (a one-page visitor, a short visit, a longer one, the per-client cap,
// one past it and far past it), with every page's script
// downloaded (pages=N), none (undrawn — what a robot that never runs scripts
// costs) and every other one
// (half: drawn and undrawn neighbours). The estimate feeds the
// admission ladder, so it may never read below the heap — and
// bytes_per_session is computed from it, so it may not drift far above either.
func TestMemoryEstimateCoversHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	// One P while the heap is measured: a thread the runtime starts meanwhile
	// puts its own 5.5 KB on the heap (runtime.allocm), none of it the store's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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

// hasPointers reports whether a value of type t holds a pointer the garbage
// collector follows.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.Slice, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestGCScanBytesPerClient holds what a client costs the garbage collector:
// 200,000 clients with one undownloaded page view each, on one P, may grow a
// full cycle's scan work by at most 4 B a client. A record holds no pointer,
// a window of up to eight page views sits in it, and the table keeps records
// by value in chunks of eight, so the work is the chunk directory, one 8-byte
// word per chunk: 1.3 B a client measured. While the table kept a directory
// of record pointers, one word per slot, it measured 10.5 B against a bound
// of 16; while a client was a node of three links, an address string and a
// window slice, the collector scanned 48 of its 64 bytes, 58.5 B a client
// with the bucket array of pointers.
func TestGCScanBytesPerClient(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory changes what the collector scans")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const clients = 200000
	scan := func() int64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
	s := New(Config{Seed: 5, Shards: 8})
	for i := range s.clients.Shards() {
		s.clients.SetShardCap(i, clients) // past maxClients: nothing is evicted
	}
	var pk PageKeys
	before := scan()
	for i := range clients {
		s.IssuePage(fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff), "/index.html", &pk)
	}
	per := float64(scan()-before) / clients
	runtime.KeepAlive(s)
	t.Logf("%d clients: the collector scans %.1f B a client", s.Clients(), per)
	if s.Clients() != clients || per > 4 {
		t.Fatalf("%d clients cost %.1f B of scan work each, over 4 B: a pointer is back in the record or the table", s.Clients(), per)
	}
}

// TestGCHeapBytesPerClient holds what a client adds to the live heap, which
// the collector doubles into its heap goal under GOGC=100: 200,000 clients
// with one undownloaded page view each, on one P, may grow it by at most
// 16 B a client. The records sit in the table's arena outside the heap, so
// what is left is the chunk directory and the bucket array: 6.6 B a client
// measured, against 70.6 B while the chunks were heap objects. Where the
// arena's blocks are heap arrays (under the race detector, and off unix)
// there is nothing to hold.
func TestGCHeapBytesPerClient(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const clients = 200000
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	s := New(Config{Seed: 5, Shards: 8})
	for i := range s.clients.Shards() {
		s.clients.SetShardCap(i, clients) // past maxClients: nothing is evicted
	}
	var pk PageKeys
	before := heap()
	for i := range clients {
		s.IssuePage(fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff), "/index.html", &pk)
	}
	if mapped, _ := shard.ArenaBytes(); mapped == 0 {
		t.Skip("the table's blocks are heap arrays here")
	}
	per := float64(heap()-before) / clients
	runtime.KeepAlive(s)
	t.Logf("%d clients: %.1f B of live heap a client", s.Clients(), per)
	if s.Clients() != clients || per > 16 {
		t.Fatalf("%d clients hold %.1f B of live heap each, over 16 B: the records are back on the heap", s.Clients(), per)
	}
}

// TestKeyLogNeverOutgrowsTheCap pins the per-client cap in bytes, not just in
// page views: a client's window at maxPerClient page views is 12 + 64*2 = 140
// bytes in the 144-byte size class, a client past the cap keeps exactly that
// array, and holds no more heap than one at it (+16 B for the allocator's
// noise), with no script downloaded and with every one — a derived key costs
// nothing, so both measure the same: 228 B per client at the cap and past
// it, every script downloaded or none (the record with its share of the
// table's index, 72 B, the spilled window and its spill-store slot), held
// under 240 B. 4-byte headers with a decoy byte measured 372 B in the
// 288-byte class; 385 B while the table kept a directory of record
// pointers, 383 B while the record pointed at an address string and a
// window slice, 397 B with a map slot per client. A log that appended the
// new page view before it dropped the oldest outgrew its cap-sized array
// once and kept the larger one (1,691 against 923 B/client undrawn, 4,763 against 3,996 drawn);
// 8-byte headers beside stored keys measured 685 B undrawn and 2,413 B drawn.
func TestKeyLogNeverOutgrowsTheCap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	const capBytes, class = logPrefixBytes + maxPerClient*headerBytes, 144
	if capBytes != 140 {
		t.Fatalf("a full window is %d bytes, want 140", capBytes)
	}
	logOf := func(s *Store) window { return s.windowOf("10.0.0.0") }
	for _, every := range []int{0, 1} {
		t.Run(fmt.Sprintf("every=%d", every), func(t *testing.T) {
			atCap, _, s := heapClients(maxPerClient, every)
			past, _, s200 := heapClients(200, every)
			t.Logf("heap per client: %d B at %d page views, %d B at 200", atCap, maxPerClient, past)
			for _, w := range []window{logOf(s), logOf(s200)} {
				if len(w) != capBytes || cap(w) != class {
					t.Errorf("a full window is %d bytes in a %d-byte array, want %d in %d", len(w), cap(w), capBytes, class)
				}
			}
			if atCap > 240 {
				t.Errorf("a client at the %d-view cap holds %d B, over 240 B: the window left the 144-byte class", maxPerClient, atCap)
			}
			if past > atCap+16 {
				t.Errorf("a client at 200 page views holds %d B, at the %d-view cap %d B: the log outgrew the cap", past, maxPerClient, atCap)
			}
		})
	}
}
