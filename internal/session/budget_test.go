package session

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"botdetect/internal/intern"
	"botdetect/internal/shard"
)

// TestSessionStructBudgets pins the memory layout the million-session plan is
// built on. A session is stored once — the record below, no embedded copies,
// its verdict a 12-byte value inside it, its key a 25-byte ID, its first
// three path fingerprints inline — and the budgets make the record 192 bytes,
// so that the table's chunk of eight fills the 1,536-byte allocator size
// class exactly, with no pointer for the garbage collector to scan. A
// session that has made one request sits in a newcomer record of at most 64
// bytes, 24 of which fill the same chunk. A failure here means a field was
// added (or widened) without re-deriving the budget — grow the budget
// consciously or shrink the struct, do not silently bump the number.
func TestSessionStructBudgets(t *testing.T) {
	budgets := []struct {
		name string
		size uintptr
		max  uintptr
	}{
		{"sessionState", unsafe.Sizeof(sessionState{}), 192},
		// A one-request session: the node, the request's time and path
		// fingerprint, and the request folded into 16 bits.
		{"newcomer", unsafe.Sizeof(newcomer{}), 64},
		// The key: a 17-byte address and an 8-byte handle, unpadded.
		{"sessionID", unsafe.Sizeof(sessionID{}), 25},
		// Counts went int64 → uint32: 16 counters in 64 bytes.
		{"Counts", unsafe.Sizeof(Counts{}), 64},
		// The stored verdict: two uint32s, a uint16 text number, two bytes.
		{"StoredVerdict", unsafe.Sizeof(StoredVerdict{}), 12},
		// Signals is a flat first-observation array, one uint32 per signal.
		{"Signals", unsafe.Sizeof(Signals{}), uintptr(4 * numSignals)},
		// The path set is a bare slice header: its len is the count.
		{"pathTable", unsafe.Sizeof(pathTable{}), 24},
	}
	for _, b := range budgets {
		if b.size > b.max {
			t.Errorf("%s = %d bytes, exceeds the %d-byte budget", b.name, b.size, b.max)
		}
	}
	// Snapshot is what Peek fills and Observe and Each copy out, on every
	// verdict read: the record's own state and no derived attribute vector.
	// Its size is pinned exactly, so that a field added to it is a choice.
	if size := unsafe.Sizeof(Snapshot{}); size != 208 {
		t.Errorf("Snapshot = %d bytes, want 208", size)
	}
	if hasPointers(reflect.TypeFor[sessionState]()) || hasPointers(reflect.TypeFor[newcomer]()) {
		t.Error("sessionState or newcomer holds a pointer: the collector scans every session again")
	}

	// The table charges a chunk of eight records as the size class the
	// allocator puts it in: a record that stops dividing 1,536 B wastes the
	// rest of every chunk.
	record := int64(unsafe.Sizeof(sessionState{}))
	if chunk := shard.AllocBytes(8 * record); chunk != 8*record {
		t.Errorf("eight %d-byte records take %d B: the chunk does not fill its size class", record, chunk)
	}
	// The steady-state budget is a one-page session: the record, whose path
	// set and address are inline, and its share of the index right after the
	// index doubled, two 4-byte buckets and two eighths of an 8-byte chunk
	// pointer (192 + 10 = 202 B; 216 B while the table kept a directory of
	// record pointers, 272 B while the record held an address string and a
	// path slice and the index was 8-byte buckets).
	steady := record + 2*4 + 2*8/8
	if steady > 208 {
		t.Errorf("one-page per-session estimate %d exceeds 208 B", steady)
	}
	// A newcomer shares the chunk: 24 of them take the room of eight full
	// records, 1,536 B, so a chunk a promotion empties serves either size.
	// A one-request session then costs its 64-byte record and the same
	// share of the index, two buckets and a 24th of a chunk pointer (72.3 B).
	nc := int64(unsafe.Sizeof(newcomer{}))
	if 24*nc != 1536 || 8*record != 1536 {
		t.Errorf("24 newcomers of %d B take %d B and 8 records of %d B take %d B, want both 1,536 B", nc, 24*nc, record, 8*record)
	}
	if oneRequest := float64(nc) + 2*4 + 8.0/24; oneRequest > 80 {
		t.Errorf("one-request per-session estimate %.1f exceeds 80 B", oneRequest)
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

// TestPathBytesPerEntry pins what a visited path costs: growth into the
// smallest size class that holds the set keeps the charged capacity under
// 4.75 B per path from 16 paths on (6.5 B with growth by half; the
// open-addressed 64-bit table cost 11-21 B), and a full set is exactly
// maxTrackedPaths entries, 8 KB. The worst count is 1,025, whose 4,100 B land
// in the 4,864-byte class: 4.745 B.
func TestPathBytesPerEntry(t *testing.T) {
	var pt pathTable
	worst, worstAt := 0.0, 0
	for n := 1; n <= maxTrackedPaths+10; n++ {
		pt.insert(fmt.Sprintf("/doc/%d.html", n))
		if len(pt.fps) < min(n, maxTrackedPaths) {
			continue // a fingerprint collision among the test's own paths
		}
		if per := float64(4*cap(pt.fps)) / float64(len(pt.fps)); n >= 16 && per > worst {
			worst, worstAt = per, n
		}
	}
	t.Logf("worst charged capacity from 16 paths on: %.3f B/path at %d paths", worst, worstAt)
	if worst >= 4.75 {
		t.Errorf("a visited path costs %.3f B at %d paths, over the 4.75 B budget", worst, worstAt)
	}
	if len(pt.fps) != maxTrackedPaths || cap(pt.fps) != maxTrackedPaths {
		t.Errorf("full set: len %d cap %d, want both %d", len(pt.fps), cap(pt.fps), maxTrackedPaths)
	}
}

// TestSessionMemoryEstimateCoversHeap holds MemoryEstimate against the
// memory the tracker really pins, on the heap and in its table's arena
// outside it: 50,000 sessions at 1, 12 and 200 distinct paths (a
// one-page client, a short visit, a crawler) and 2,000 at the 2,048-path cap
// (17 MB of heap, not 425). The estimate feeds the
// admission ladder, so it may never read below the heap — and
// bytes_per_session is computed from it, so it may not drift far above
// either. The heap is measured from an empty tracker, the state FlushAll
// returns to and the estimate calls 0, as the engine's gate measures from an
// empty engine: the shard records and the interner (4.2 KB, and the one
// User-Agent's entry, which the estimate now meets to the byte) are not a
// session's.
func TestSessionMemoryEstimateCoversHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	// One P while the heap is measured: a thread the runtime starts meanwhile
	// puts its own 5.5 KB on the heap (runtime.allocm), none of it the tracker's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		paths    int
		sessions int64
	}{{1, 50000}, {12, 50000}, {200, 50000}, {maxTrackedPaths, 2000}} {
		paths, sessions := tc.paths, tc.sessions
		t.Run(fmt.Sprintf("paths=%d", paths), func(t *testing.T) {
			pathNames := make([]string, paths)
			for p := range pathNames {
				pathNames[p] = fmt.Sprintf("/doc/%d.html", p)
			}
			// The User-Agent's one canonical copy is the interner's, which
			// its own estimate charges: it is on the heap before the baseline.
			const ua = "Mozilla/4.0 (compatible; MSIE 6.0)"
			in := intern.New(8)
			defer in.Release(in.Intern(ua))
			tr := NewTracker(Config{Interner: in})
			before := settledHeap()
			ips := make([]string, sessions) // the tracker pins its sessions' address strings
			for i := range ips {
				ips[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
			}
			now := time.Unix(1136073600, 0)
			for _, ip := range ips {
				for _, p := range pathNames {
					tr.ObserveQuiet(entry(ip, ua, "GET", p, 200, "", now))
				}
			}
			ips = nil
			got, est := settledHeap()-before, tr.MemoryEstimate()
			runtime.KeepAlive(tr)
			t.Logf("%d paths: heap %d B/session, estimate %d B/session (%.2fx)", paths, got/sessions, est/sessions, float64(est)/float64(got))
			if est < got {
				t.Errorf("estimate %d B < heap %d B: MemoryEstimate under-counts", est, got)
			}
			if est*4 > got*5 {
				t.Errorf("estimate %d B > 1.25 x heap %d B", est, got)
			}
		})
	}
}

// settledHeap is the heap in use after a full collection, plus the bytes of
// the arena chunks ever handed out, which sit outside the heap: the arena
// counts them where it maps and unmaps its blocks, apart from the estimate.
// The collections repeat until no dropped table's cleanup unmaps blocks
// meanwhile. Measure under GOMAXPROCS(1).
func settledHeap() int64 {
	runtime.GC()
	for {
		_, touched := shard.ArenaBytes()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if _, now := shard.ArenaBytes(); now == touched {
			return int64(ms.HeapAlloc) + now
		}
	}
}

// TestOneRequestMemoryEstimateCoversHeap holds MemoryEstimate between 1.0x
// and 1.3x of what 50,000 one-request sessions really pin, on the heap and
// in the table's arena, measured as TestSessionMemoryEstimateCoversHeap
// measures: the sessions sit in newcomer records, 24 to a chunk. It holds
// it again after every other session made a second request, which promoted
// it to a full record in the newcomer's place: the newcomer chunks the
// promotions emptied went back to the arena, which hands them to the next
// chunk of either size and charges them, as the measure counts them, until
// their block is unmapped.
func TestOneRequestMemoryEstimateCoversHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sessions = 50000
	const ua = "Mozilla/4.0 (compatible; MSIE 6.0)"
	in := intern.New(8)
	defer in.Release(in.Intern(ua))
	tr := NewTracker(Config{Interner: in})
	ips := make([]string, sessions) // on the heap before the baseline, as the User-Agent is
	for i := range ips {
		ips[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
	}
	before := settledHeap()
	now := time.Unix(1136073600, 0)
	for _, ip := range ips {
		tr.ObserveQuiet(entry(ip, ua, "GET", "/index.html", 200, "", now))
	}
	check := func(stage string, oneRequest int) {
		t.Helper()
		got, est := settledHeap()-before, tr.MemoryEstimate()
		t.Logf("%s: %d of %d sessions with one request; heap %d B/session, estimate %d B/session (%.2fx)",
			stage, tr.OneRequest(), tr.Active(), got/sessions, est/sessions, float64(est)/float64(got))
		if tr.Active() != sessions || tr.OneRequest() != oneRequest {
			t.Fatalf("%s: %d sessions, %d with one request; want %d and %d", stage, tr.Active(), tr.OneRequest(), sessions, oneRequest)
		}
		if est < got || est*10 > got*13 {
			t.Errorf("%s: estimate %d B is not within 1.0x to 1.3x of the heap and arena, %d B", stage, est, got)
		}
	}
	check("one request each", sessions)
	for i := 0; i < sessions; i += 2 {
		tr.ObserveQuiet(entry(ips[i], ua, "GET", "/next.html", 200, "", now.Add(time.Second)))
	}
	check("every other promoted", sessions/2)
	runtime.KeepAlive(tr)
	runtime.KeepAlive(ips)
}
