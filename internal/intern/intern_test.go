package intern

import (
	"fmt"
	"sync"
	"testing"
)

func TestInternBasics(t *testing.T) {
	in := New(4)

	h1, c1 := in.Intern("Mozilla/5.0")
	if h1 == 0 || c1 != "Mozilla/5.0" {
		t.Fatalf("Intern = %v, %q", h1, c1)
	}
	h2, c2 := in.Intern("Mozilla/5.0")
	if h2 != h1 {
		t.Fatalf("second Intern handle = %v, want %v", h2, h1)
	}
	if &c1 == &c2 {
		t.Fatal("canonical strings should be the same backing value")
	}
	if got, ok := in.Lookup(h1); !ok || got != "Mozilla/5.0" {
		t.Fatalf("Lookup = %q, %v", got, ok)
	}

	st := in.Stats()
	if st.Entries != 1 || st.Bytes != int64(len("Mozilla/5.0")) {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hit/miss = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %v, want 0.5", hr)
	}

	// Two references: one Release keeps the entry live.
	in.Release(h1)
	if _, ok := in.Lookup(h2); !ok {
		t.Fatal("entry evicted while a reference remained")
	}
	in.Release(h2)
	if _, ok := in.Lookup(h1); ok {
		t.Fatal("entry survived its last Release")
	}
	if st := in.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Stats after eviction = %+v", st)
	}
}

func TestInternEmptyAndZeroHandle(t *testing.T) {
	in := New(0)
	h, c := in.Intern("")
	if h != 0 || c != "" {
		t.Fatalf("Intern(\"\") = %v, %q", h, c)
	}
	// All zero-handle operations are no-ops.
	in.Release(0)
	if _, ok := in.Lookup(0); ok {
		t.Fatal("Lookup(0) returned live")
	}
}

func TestInternStaleHandleFailsValidation(t *testing.T) {
	in := New(1)
	h, _ := in.Intern("alpha")
	in.Release(h) // evicts: slot recycled, generation bumped

	h2, _ := in.Intern("beta") // likely reuses the slot
	if s, ok := in.Lookup(h); ok {
		t.Fatalf("stale handle resolved to %q", s)
	}
	in.Release(h) // must be a no-op on the stale generation
	if s, ok := in.Lookup(h2); !ok || s != "beta" {
		t.Fatalf("live handle broken by stale ops: %q, %v", s, ok)
	}
}

func TestInternMemoryEstimateTracksLiveSet(t *testing.T) {
	in := New(4)
	var hs []Handle
	var want int64
	for i := 0; i < 100; i++ {
		s := fmt.Sprintf("/page/%03d.html", i)
		h, _ := in.Intern(s)
		hs = append(hs, h)
		want += int64(len(s))
	}
	if got := in.MemoryEstimate(); got != want+100*internEntryBytes {
		t.Fatalf("MemoryEstimate = %d, want %d", got, want+100*internEntryBytes)
	}
	for _, h := range hs {
		in.Release(h)
	}
	if got := in.MemoryEstimate(); got != 0 {
		t.Fatalf("MemoryEstimate after drain = %d, want 0", got)
	}
}

// TestInternHammer drives interleaved Intern/Retain/Release/Lookup cycles over
// a small shared working set from many goroutines; run under -race it is the
// memory-safety gate for the refcount protocol (CAS inc-if-positive vs
// eviction). The final balanced release must drain the table to empty.
func TestInternHammer(t *testing.T) {
	in := New(4)
	const goroutines = 16
	const rounds = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// 8 distinct strings: constant churn on shared entries.
				s := fmt.Sprintf("ua-%d", (g+i)%8)
				h, canon := in.Intern(s)
				if canon != s {
					t.Errorf("canonical mismatch: %q vs %q", canon, s)
					return
				}
				if i%3 == 0 {
					// A second holder of the same string retains the entry.
					if h2, _ := in.Intern(s); h2 != h {
						t.Errorf("second Intern(%q) = %v while %v is held", s, h2, h)
						return
					}
					if got, ok := in.Lookup(h); !ok || got != s {
						t.Errorf("Lookup while held twice = %q, %v", got, ok)
						return
					}
					in.Release(h)
				}
				in.Release(h)
			}
		}(g)
	}
	wg.Wait()
	if st := in.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("table not drained after balanced churn: %+v", st)
	}
	if in.MemoryEstimate() != 0 {
		t.Fatalf("MemoryEstimate = %d after drain", in.MemoryEstimate())
	}
}

func TestInternAllocFreeFastPath(t *testing.T) {
	in := New(4)
	h, _ := in.Intern("Mozilla/5.0 (X11; Linux x86_64)")
	defer in.Release(h)
	avg := testing.AllocsPerRun(1000, func() {
		hh, _ := in.Intern("Mozilla/5.0 (X11; Linux x86_64)")
		in.Release(hh)
	})
	if avg != 0 {
		t.Fatalf("interner fast path allocates %.2f allocs/op, want 0", avg)
	}
}
