// Package intern implements a sharded, refcounted string interner. Real
// traffic concentrates on a few hundred User-Agent strings, yet every tracked
// session used to carry its own copy (raw and normalized). The interner
// collapses those copies to 8-byte handles:
// the first Intern of a string stores one canonical copy, later Interns of
// equal strings return the same handle and canonical string, and Release
// drops a reference — the canonical copy is evicted when the last holder
// releases it, so the table tracks the live working set, not history.
//
// The fast path (a string already interned) takes a shard read-lock, one map
// lookup and one compare-and-swap on the entry's reference count; it
// allocates nothing. Only the first Intern of a new string (or a
// resurrection racing an eviction) takes the shard write-lock.
package intern

import (
	"strings"
	"sync"
	"sync/atomic"

	"botdetect/internal/shard"
)

// Handle identifies one interned string. The zero Handle is "no string":
// Release and Lookup treat it as a no-op/miss, so zero-valued records are
// safe. A handle encodes shard, slot and a per-slot generation; a stale
// handle (its string already evicted and the slot reused) fails validation
// instead of resolving to the wrong string.
type Handle uint64

const (
	handleShardBits = 8
	handleGenBits   = 24
	handleSlotBits  = 32

	maxShards = 1 << handleShardBits
	genMask   = (1 << handleGenBits) - 1
	slotMask  = (1 << handleSlotBits) - 1
)

// makeHandle biases the slot by one so that no live handle ever encodes as
// the zero ("no string") Handle — shard 0 / generation 0 / slot 0 would
// otherwise collide with it.
func makeHandle(shardIdx int, gen uint32, slot uint32) Handle {
	return Handle(uint64(shardIdx)<<(handleGenBits+handleSlotBits) |
		uint64(gen&genMask)<<handleSlotBits |
		uint64(slot+1))
}

func (h Handle) shard() int   { return int(uint64(h) >> (handleGenBits + handleSlotBits)) }
func (h Handle) gen() uint32  { return uint32(uint64(h)>>handleSlotBits) & genMask }
func (h Handle) slot() uint32 { return uint32(uint64(h)&slotMask) - 1 }

// entry is one interned string. refs counts live handles; the CAS-based
// inc-if-positive in Intern means a reader can never resurrect an entry whose
// count a concurrent eviction already saw hit zero. gen advances on every
// eviction so stale handles fail validation.
type entry struct {
	s    string
	refs atomic.Int32
	gen  uint32
}

type internShard struct {
	mu      sync.RWMutex
	byStr   map[string]uint32 // canonical string -> slot
	entries []entry
	free    []uint32 // recycled slots
}

// Stats is a point-in-time summary of the interner.
type Stats struct {
	// Entries is the number of live interned strings.
	Entries int64
	// Bytes is the total length of live interned strings.
	Bytes int64
	// Hits and Misses count Intern calls that found / did not find the
	// string already interned.
	Hits   int64
	Misses int64
}

// HitRate returns Hits/(Hits+Misses), 0 when nothing was interned yet.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Interner is a sharded refcounted string table. It is safe for concurrent
// use. The zero value is not usable; call New.
type Interner struct {
	shards []internShard
	mask   uint64

	entries atomic.Int64
	bytes   atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
}

// New creates an Interner with the given shard count (rounded up to a power
// of two, default 8, capped at 256 by the handle encoding).
func New(shards int) *Interner {
	if shards <= 0 {
		shards = 8
	}
	shards = shard.Normalize(shards)
	if shards > maxShards {
		shards = maxShards
	}
	in := &Interner{shards: make([]internShard, shards), mask: uint64(shards - 1)}
	for i := range in.shards {
		in.shards[i].byStr = make(map[string]uint32)
	}
	return in
}

// Intern returns a handle for s plus the canonical copy of s. The caller owns
// one reference, released with Release. The canonical string should replace
// the caller's copy of s, so equal strings across sessions share one backing
// array. Interning the empty string returns the zero Handle and "".
func (in *Interner) Intern(s string) (Handle, string) {
	if s == "" {
		return 0, ""
	}
	idx := int(shard.HashString(s) & in.mask)
	sh := &in.shards[idx]

	sh.mu.RLock()
	if slot, ok := sh.byStr[s]; ok {
		e := &sh.entries[slot]
		if incIfPositive(&e.refs) {
			h := makeHandle(idx, e.gen, slot)
			canon := e.s
			sh.mu.RUnlock()
			in.hits.Add(1)
			return h, canon
		}
	}
	sh.mu.RUnlock()

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if slot, ok := sh.byStr[s]; ok {
		// Present (another goroutine interned it, or an eviction lost the
		// race to remove it): under the write lock a plain increment is safe.
		e := &sh.entries[slot]
		e.refs.Add(1)
		in.hits.Add(1)
		return makeHandle(idx, e.gen, slot), e.s
	}
	var slot uint32
	if n := len(sh.free); n > 0 {
		slot = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		if len(sh.entries) >= slotMask {
			// Table exhausted (~4G strings per shard): serve the string
			// unshared rather than corrupting handles.
			return 0, strings.Clone(s)
		}
		sh.entries = append(sh.entries, entry{})
		slot = uint32(len(sh.entries) - 1)
	}
	e := &sh.entries[slot]
	e.s = strings.Clone(s) // do not pin the caller's (possibly huge) backing array
	e.refs.Store(1)
	sh.byStr[e.s] = slot
	in.misses.Add(1)
	in.entries.Add(1)
	in.bytes.Add(int64(len(e.s)))
	return makeHandle(idx, e.gen, slot), e.s
}

// incIfPositive increments refs only if it is currently positive, so a
// resurrection can never race an eviction that already observed zero.
func incIfPositive(refs *atomic.Int32) bool {
	for {
		r := refs.Load()
		if r <= 0 {
			return false
		}
		if refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops one reference. When the count reaches zero the canonical
// string is evicted and the slot recycled (its generation advances, so any
// leaked handle to it becomes invalid rather than dangling). Release of the
// zero Handle or a stale handle is a no-op.
func (in *Interner) Release(h Handle) {
	if h == 0 {
		return
	}
	sh := &in.shards[h.shard()&int(in.mask)]
	sh.mu.RLock()
	slot := h.slot()
	if int(slot) >= len(sh.entries) {
		sh.mu.RUnlock()
		return
	}
	e := &sh.entries[slot]
	if e.gen != h.gen() {
		sh.mu.RUnlock()
		return
	}
	zero := e.refs.Add(-1) == 0
	sh.mu.RUnlock()
	if !zero {
		return
	}

	sh.mu.Lock()
	defer sh.mu.Unlock()
	e = &sh.entries[slot]
	// Recheck under the write lock: a concurrent Intern may have taken the
	// write-lock path and revived the entry (plain Add on a zero count).
	if e.gen != h.gen() || e.refs.Load() != 0 {
		return
	}
	delete(sh.byStr, e.s)
	in.entries.Add(-1)
	in.bytes.Add(-int64(len(e.s)))
	e.s = ""
	e.gen = (e.gen + 1) & genMask
	sh.free = append(sh.free, slot)
}

// Lookup resolves a handle to its canonical string, reporting whether the
// handle is live. Diagnostics only — the canonical string is already in the
// caller's hands from Intern on every hot path.
func (in *Interner) Lookup(h Handle) (string, bool) {
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

// Stats returns a point-in-time summary (lock-free).
func (in *Interner) Stats() Stats {
	return Stats{
		Entries: in.entries.Load(),
		Bytes:   in.bytes.Load(),
		Hits:    in.hits.Load(),
		Misses:  in.misses.Load(),
	}
}

// internEntryBytes is the approximate per-entry overhead beyond the string
// bytes themselves: the entry struct, its share of the byStr map and the
// entries/free slices.
const internEntryBytes = 96

// MemoryEstimate returns the interner's approximate live footprint in bytes
// (canonical string bytes plus per-entry overhead). Lock-free.
func (in *Interner) MemoryEstimate() int64 {
	return in.bytes.Load() + in.entries.Load()*internEntryBytes
}
