package session

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestSessionStructBudgets pins the memory layout the million-session plan is
// built on. A session is stored once — the record below, no embedded copies —
// and the budgets leave the record in the 320-byte allocator size class. A
// failure here means a field was added (or widened) without re-deriving the
// budget — grow the budget consciously or shrink the struct, do not silently
// bump the number.
func TestSessionStructBudgets(t *testing.T) {
	budgets := []struct {
		name string
		size uintptr
		max  uintptr
	}{
		{"sessionState", unsafe.Sizeof(sessionState{}), 320},
		// Snapshot is what Get/Each/Mark copy out and Peek fills.
		{"Snapshot", unsafe.Sizeof(Snapshot{}), 344},
		// Counts went int64 → uint32: 13 counters + Bytes in 72 bytes.
		{"Counts", unsafe.Sizeof(Counts{}), 72},
		// Signals is a flat first-observation array, one uint32 per signal.
		{"Signals", unsafe.Sizeof(Signals{}), uintptr(4 * numSignals)},
		{"pathTable", unsafe.Sizeof(pathTable{}), 32},
	}
	for _, b := range budgets {
		if b.size > b.max {
			t.Errorf("%s = %d bytes, exceeds the %d-byte budget", b.name, b.size, b.max)
		}
	}

	// The MemoryEstimate constants must stay derived from the live layout.
	if sessionStructBytes < int64(unsafe.Sizeof(sessionState{})) || sessionStructBytes%32 != 0 {
		t.Errorf("sessionStructBytes = %d, want unsafe.Sizeof(sessionState{}) = %d rounded up to 32",
			sessionStructBytes, unsafe.Sizeof(sessionState{}))
	}
	// The steady-state budget is a one-page session: base + the address
	// string + the first path table.
	steady := sessionBaseBytes + 16 + int64(minPathSlots)*8
	if steady > 512 {
		t.Errorf("one-page per-session estimate %d exceeds 512 B", steady)
	}
}

// TestSessionMemoryEstimateCoversHeap holds MemoryEstimate against the heap
// the tracker really pins: 50,000 sessions at 1, 12 and 200 distinct paths (a
// one-page client, a short visit, a crawler). The estimate feeds the
// admission ladder, so it may never read below the heap — and
// bytes_per_session is computed from it, so it may not drift far above
// either.
func TestSessionMemoryEstimateCoversHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	const sessions = 50000
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, paths := range []int{1, 12, 200} {
		t.Run(fmt.Sprintf("paths=%d", paths), func(t *testing.T) {
			pathNames := make([]string, paths)
			for p := range pathNames {
				pathNames[p] = fmt.Sprintf("/doc/%d.html", p)
			}
			before := heap()
			tr := NewTracker(Config{})
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
