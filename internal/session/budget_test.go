package session

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"botdetect/internal/intern"
)

// TestSessionStructBudgets pins the memory layout the million-session plan is
// built on. A session is stored once — the record below, no embedded copies,
// its verdict a 12-byte value inside it, its key a 25-byte ID, its first
// three path fingerprints inline — and the budgets put the record exactly in
// the 192-byte allocator size class, with no pointer for the garbage
// collector to scan. A failure here means a field was added (or widened)
// without re-deriving the budget — grow the budget consciously or shrink the
// struct, do not silently bump the number.
func TestSessionStructBudgets(t *testing.T) {
	budgets := []struct {
		name string
		size uintptr
		max  uintptr
	}{
		{"sessionState", unsafe.Sizeof(sessionState{}), 192},
		// The key: a 17-byte address and an 8-byte handle, unpadded.
		{"sessionID", unsafe.Sizeof(sessionID{}), 25},
		// Snapshot is what Get/Each/Mark copy out and Peek fills.
		{"Snapshot", unsafe.Sizeof(Snapshot{}), 304},
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
	if hasPointers(reflect.TypeFor[sessionState]()) {
		t.Error("sessionState holds a pointer: the collector scans every session again")
	}

	// The MemoryEstimate constants must stay derived from the live layout:
	// the record is charged as the size class the allocator really puts it in.
	if got := int64(cap(append([]byte(nil), make([]byte, unsafe.Sizeof(sessionState{}))...))); sessionBaseBytes != got {
		t.Errorf("sessionBaseBytes = %d, but the allocator puts %d bytes in a %d-byte class",
			sessionBaseBytes, unsafe.Sizeof(sessionState{}), got)
	}
	// The steady-state budget is a one-page session: the record, whose path
	// set and address are inline, and its share of the index right after the
	// index doubled, two 8-byte directory slots and two 4-byte buckets
	// (192 + 24 = 216 B; 272 B while the record held an address string and a
	// path slice and the index was 8-byte buckets).
	steady := sessionBaseBytes + 2*8 + 2*4
	if steady > 216 {
		t.Errorf("one-page per-session estimate %d exceeds 216 B", steady)
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

// TestSessionMemoryEstimateCoversHeap holds MemoryEstimate against the heap
// the tracker really pins: 50,000 sessions at 1, 12 and 200 distinct paths (a
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
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
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
			before := heap()
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
			got, est := heap()-before, tr.MemoryEstimate()
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
