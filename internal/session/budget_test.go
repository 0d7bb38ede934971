package session

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestSessionStructBudgets pins the memory layout the million-session plan is
// built on. A session is stored once — the record below, no embedded copies,
// its verdict a 12-byte value inside it — and the budgets put the record
// exactly in the 224-byte allocator size class. A failure here means a field
// was added (or widened) without re-deriving the budget — grow the budget
// consciously or shrink the struct, do not silently bump the number.
func TestSessionStructBudgets(t *testing.T) {
	budgets := []struct {
		name string
		size uintptr
		max  uintptr
	}{
		{"sessionState", unsafe.Sizeof(sessionState{}), 224},
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

	// The MemoryEstimate constants must stay derived from the live layout:
	// the record is charged as the size class the allocator really puts it in.
	if got := int64(cap(append([]byte(nil), make([]byte, unsafe.Sizeof(sessionState{}))...))); sessionBaseBytes != got {
		t.Errorf("sessionBaseBytes = %d, but the allocator puts %d bytes in a %d-byte class",
			sessionBaseBytes, unsafe.Sizeof(sessionState{}), got)
	}
	for n := int64(32); n <= 512; n++ {
		if got, want := sizeClass(n), int64(cap(append([]byte(nil), make([]byte, n)...))); got != want {
			t.Fatalf("sizeClass(%d) = %d, the allocator's class is %d", n, got, want)
		}
	}
	// The steady-state budget is a one-page session: base + the address
	// string + the first path allocation + its share of the index right
	// after the index doubled, two 8-byte buckets (224 + 16 + 16 + 16 = 272 B).
	steady := sessionBaseBytes + 16 + int64(minPathSlots)*4 + 16
	if steady > 320 {
		t.Errorf("one-page per-session estimate %d exceeds 320 B", steady)
	}
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
		if per := float64(pt.footprintBytes()) / float64(len(pt.fps)); n >= 16 && per > worst {
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
// empty engine: the shard records and the private interner (4.2 KB) are not a
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
			tr := NewTracker(Config{})
			before := heap()
			ips := make([]string, sessions) // the tracker pins its sessions' address strings
			for i := range ips {
				ips[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
			}
			now := time.Unix(1136073600, 0)
			for _, ip := range ips {
				for _, p := range pathNames {
					tr.ObserveQuiet(entry(ip, "Mozilla/4.0 (compatible; MSIE 6.0)", "GET", p, 200, "", now))
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
