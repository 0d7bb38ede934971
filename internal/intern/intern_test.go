package intern

import (
	"fmt"
	"sync"
	"testing"

	"botdetect/internal/shard"
)

// lookup resolves a handle to its canonical string, reporting whether the
// handle is live.
func (in *Interner) lookup(h Handle) (string, bool) {
	if h == 0 {
		return "", false
	}
	sh := &in.shards[h.shard()&int(in.mask)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	slot := h.slot()
	if int(slot) >= len(sh.entries) {
		return "", false
	}
	e := &sh.entries[slot]
	if e.gen != h.gen() || e.refs.Load() <= 0 {
		return "", false
	}
	return e.s, true
}

func TestInternBasics(t *testing.T) {
	in := New(4)

	h1 := in.Intern("Mozilla/5.0")
	if h1 == 0 || in.String(h1) != "Mozilla/5.0" {
		t.Fatalf("Intern = %v, %q", h1, in.String(h1))
	}
	h2 := in.Intern("Mozilla/5.0")
	if h2 != h1 {
		t.Fatalf("second Intern handle = %v, want %v", h2, h1)
	}
	if got, ok := in.lookup(h1); !ok || got != "Mozilla/5.0" {
		t.Fatalf("lookup = %q, %v", got, ok)
	}
	if got, ok := in.Lookup("Mozilla/5.0"); !ok || got != h1 {
		t.Fatalf("Lookup = %v, %v, want %v", got, ok, h1)
	}
	if _, ok := in.Lookup("Mozilla/4.0"); ok {
		t.Fatal("Lookup found a string never interned")
	}

	st := in.Stats()
	if st.Entries != 1 || st.Bytes != 16 { // 11 bytes, in the 16-byte size class
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
	if _, ok := in.lookup(h2); !ok {
		t.Fatal("entry evicted while a reference remained")
	}
	in.Release(h2)
	if _, ok := in.lookup(h1); ok {
		t.Fatal("entry survived its last Release")
	}
	if _, ok := in.Lookup("Mozilla/5.0"); ok || in.String(h1) != "" {
		t.Fatal("Lookup or String found a released string")
	}
	if st := in.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Stats after eviction = %+v", st)
	}
}

func TestInternEmptyAndZeroHandle(t *testing.T) {
	in := New(0)
	if h := in.Intern(""); h != 0 || in.String(h) != "" {
		t.Fatalf("Intern(\"\") = %v", h)
	}
	if h, ok := in.Lookup(""); h != 0 || !ok {
		t.Fatalf("Lookup(\"\") = %v, %v", h, ok)
	}
	// All zero-handle operations are no-ops.
	in.Release(0)
	if _, ok := in.lookup(0); ok {
		t.Fatal("lookup(0) returned live")
	}
}

func TestInternStaleHandleFailsValidation(t *testing.T) {
	in := New(1)
	h := in.Intern("alpha")
	in.Release(h) // evicts: slot recycled, generation bumped

	h2 := in.Intern("beta") // likely reuses the slot
	if s, ok := in.lookup(h); ok {
		t.Fatalf("stale handle resolved to %q", s)
	}
	in.Release(h) // must be a no-op on the stale generation
	if s, ok := in.lookup(h2); !ok || s != "beta" {
		t.Fatalf("live handle broken by stale ops: %q, %v", s, ok)
	}
}

func TestInternMemoryEstimateTracksLiveSet(t *testing.T) {
	in := New(4)
	var hs []Handle
	var want int64
	for i := 0; i < 100; i++ {
		s := fmt.Sprintf("/page/%03d.html", i)
		h := in.Intern(s)
		hs = append(hs, h)
		want += shard.AllocBytes(int64(len(s)))
	}
	if got := in.MemoryEstimate(); got != want+100*internEntryBytes+4*internShardBytes {
		t.Fatalf("MemoryEstimate = %d, want %d", got, want+100*internEntryBytes+4*internShardBytes)
	}
	for _, h := range hs {
		in.Release(h)
	}
	if got := in.MemoryEstimate(); got != 0 {
		t.Fatalf("MemoryEstimate after drain = %d, want 0", got)
	}
}

// TestInternHammer drives interleaved Intern/Retain/Release/lookup cycles over
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
				h := in.Intern(s)
				if canon := in.String(h); canon != s {
					t.Errorf("canonical mismatch: %q vs %q", canon, s)
					return
				}
				if i%3 == 0 {
					// A second holder of the same string retains the entry.
					if h2 := in.Intern(s); h2 != h {
						t.Errorf("second Intern(%q) = %v while %v is held", s, h2, h)
						return
					}
					if got, ok := in.lookup(h); !ok || got != s {
						t.Errorf("lookup while held twice = %q, %v", got, ok)
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
	h := in.Intern("Mozilla/5.0 (X11; Linux x86_64)")
	defer in.Release(h)
	avg := testing.AllocsPerRun(1000, func() {
		hh := in.Intern("Mozilla/5.0 (X11; Linux x86_64)")
		in.Release(hh)
		if _, ok := in.Lookup("Mozilla/5.0 (X11; Linux x86_64)"); !ok {
			panic("lost")
		}
		if _, ok := in.LookupAddr("10.1.2.3"); !ok {
			panic("not an address")
		}
	})
	if avg != 0 {
		t.Fatalf("interner fast path allocates %.2f allocs/op, want 0", avg)
	}
}
