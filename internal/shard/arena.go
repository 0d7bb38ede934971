package shard

import (
	"cmp"
	"fmt"
	"math/bits"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// arenaBlockBytes is the most an arena's block holds, a multiple of
	// every page size: 170 chunks of 8 sessions (1,024 B of the block never
	// written) or 512 of 8 keystore clients.
	arenaBlockBytes = 256 << 10
	// blockChunks is the most chunks a block holds, which its bitmap of
	// chunks in use fits; a block of smaller chunks is smaller.
	blockChunks = 512
	// blockHeapBytes is what the arena charges for a block's bookkeeping on
	// the heap: its 112-byte record, its place in the arena's list, and its
	// entry in the syscall package's table of mappings (TestArenaBookkeeping
	// measures 161 B at 1,000 blocks; the table's growth steps move it).
	blockHeapBytes = 256
)

// offHeap counts the blocks every arena in the process mapped outside the Go
// heap and the chunks handed out from them; ArenaBytes reads it.
var offHeap struct{ mapped, touched atomic.Int64 }

// ArenaBytes returns the bytes of the blocks every table in the process has
// mapped outside the Go heap for its records, and the bytes of the chunks
// handed out from them so far, the part of a block that was ever written.
// Both are 0 where blocks come from the heap (under the race detector, and
// off unix), whose statistics count them.
func ArenaBytes() (mapped, touched int64) {
	return offHeap.mapped.Load(), offHeap.touched.Load()
}

// arena hands one table's shards their chunks. It carves them from blocks
// of arenaBlockBytes that mapBlock maps and unmapBlock unmaps: anonymous
// mappings on unix, which the garbage collector neither scans nor counts
// towards its heap goal, and heap arrays under the race detector (which
// then sees every record) and elsewhere. A chunk comes out zeroed: a fresh
// block is zero, and a shard zeroes every slot before it gives its chunk
// back. An allocation takes the lowest-addressed free chunk, so the chunks
// in use crowd into the low blocks and the high ones drain; a block with no
// chunk in use is unmapped once another such block is kept as the spare.
// The arena charges a chunk to its table's index from the first time it is
// handed out until its block is unmapped, in use or free, and each mapped
// block's bookkeeping on the heap; a block's tail that was never handed out
// is not charged, as the heap's untouched pages are not. Shards call it
// under their own locks; it has a lock of its own.
type arena struct {
	mu     sync.Mutex
	stride int      // bytes a chunk takes
	per    int      // chunks a block holds
	list   []*block // the mapped blocks, by address
	low    int      // every block before list[low] is full
	spare  *block   // the one block with no chunk in use, if any
}

// block is one mapped block and which of its chunks are in use.
type block struct {
	mem            []byte
	base           uintptr
	used           [blockChunks / 64]uint64 // a bit a chunk, set while it is in use; bits from per on are set
	inUse, touched int32                    // touched: chunks handed out at least once, always the first ones
}

// newArena returns an arena of chunks of stride bytes, as many to a block
// as arenaBlockBytes holds, but at most blockChunks.
func newArena(stride int) *arena {
	return &arena{stride: stride, per: min(max(arenaBlockBytes/stride, 1), blockChunks)}
}

// blockBytes is the size of the arena's blocks: per chunks, rounded up to
// whole pages.
func (a *arena) blockBytes() int {
	page := os.Getpagesize()
	return (a.per*a.stride + page - 1) / page * page
}

// alloc returns a zeroed chunk and the bytes that adds to the arena's
// charge: the stride the first time the chunk is handed out, and the
// block's bookkeeping when it maps a block for it.
func (a *arena) alloc() (unsafe.Pointer, int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.low < len(a.list) && int(a.list[a.low].inUse) == a.per {
		a.low++
	}
	var charged int64
	if a.low == len(a.list) {
		a.low = a.mapBlock()
		charged = blockHeapBytes
	}
	b := a.list[a.low]
	if b == a.spare {
		a.spare = nil
	}
	var i int
	for w, word := range b.used {
		if word != ^uint64(0) {
			i = 64*w + bits.TrailingZeros64(^word)
			b.used[w] |= 1 << (i % 64)
			break
		}
	}
	b.inUse++
	if i == int(b.touched) {
		b.touched++
		charged += int64(a.stride)
		if blocksOffHeap {
			offHeap.touched.Add(int64(a.stride))
		}
	}
	return unsafe.Add(unsafe.Pointer(unsafe.SliceData(b.mem)), i*a.stride), charged
}

// free takes back the chunk at p, whose every byte is zero, and returns what
// that takes off the arena's charge: the chunks ever handed out from its
// block and its bookkeeping when that block is unmapped, else 0.
func (a *arena) free(p unsafe.Pointer) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	j, _ := slices.BinarySearchFunc(a.list, uintptr(p), func(b *block, p uintptr) int {
		if p < b.base {
			return 1
		}
		if p >= b.base+uintptr(len(b.mem)) {
			return -1
		}
		return 0
	})
	b := a.list[j]
	i := int(uintptr(p)-b.base) / a.stride
	b.used[i/64] &^= 1 << (i % 64)
	b.inUse--
	a.low = min(a.low, j)
	switch {
	case b.inUse > 0:
		return 0
	case a.spare == nil:
		a.spare = b
		return 0
	case a.spare.base > b.base:
		// Keep the lower of the two empty blocks, the next to fill.
		b, a.spare = a.spare, b
	}
	return -a.unmapBlock(b)
}

// mapBlock maps a block, files it by address and returns its position.
func (a *arena) mapBlock() int {
	mem := mapBlock(a.blockBytes())
	b := &block{mem: mem, base: uintptr(unsafe.Pointer(unsafe.SliceData(mem)))}
	for c := a.per; c < blockChunks; c++ {
		b.used[c/64] |= 1 << (c % 64)
	}
	if blocksOffHeap {
		offHeap.mapped.Add(int64(len(mem)))
	}
	j, _ := slices.BinarySearchFunc(a.list, b.base, func(b *block, base uintptr) int { return cmp.Compare(b.base, base) })
	a.list = slices.Insert(a.list, j, b)
	return j
}

// unmapBlock unmaps b and drops it from the list, and returns what it was
// charged: its chunks that were ever handed out and its bookkeeping.
func (a *arena) unmapBlock(b *block) int64 {
	a.list = slices.DeleteFunc(a.list, func(have *block) bool { return have == b })
	return a.unmap(b) + blockHeapBytes
}

// unmap unmaps b's memory and returns the bytes of its chunks that were
// ever handed out.
func (a *arena) unmap(b *block) int64 {
	touched := int64(b.touched) * int64(a.stride)
	if blocksOffHeap {
		offHeap.mapped.Add(-int64(len(b.mem)))
		offHeap.touched.Add(-touched)
	}
	unmapBlock(b.mem)
	b.mem = nil
	return touched
}

// release unmaps every block. It is the cleanup of a table no one can reach
// any more, and of its shards: each shard holds its table's books.
func (a *arena) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, b := range a.list {
		a.unmap(b)
	}
	a.list, a.low, a.spare = nil, 0, nil
}

// hasPointers reports whether a value of type t holds a pointer the garbage
// collector follows, which it could not see in an arena's block.
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

// mustHoldNoPointer panics unless a value of type E holds no pointer.
func mustHoldNoPointer[E any]() {
	if t := reflect.TypeFor[E](); hasPointers(t) {
		panic(fmt.Sprintf("shard: a table entry must hold no pointer, and %v does", t))
	}
}
