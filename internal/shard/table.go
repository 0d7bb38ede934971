package shard

import (
	"hash/maphash"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A shard keeps its entries in a directory, an array of pointers to them in
// no particular order, and links them by position in it: the LRU list, the
// collision chains and the bucket array hold slot numbers, a position plus
// one, so 0 links nothing. An entry type that holds no pointer of its own is
// then never scanned by the garbage collector: its work per entry is one
// directory word. The directory is dense — a removal moves the last entry
// into the slot it frees — and it and the bucket array have the same
// power-of-two length, allocated at the shard's first Insert. The length
// doubles when the shard holds more entries than it has buckets and halves
// when it holds a quarter of them or fewer, so right after a resize an entry
// holds one or two of each, and a shard that hovers at its cap never resizes
// back and forth. An empty shard frees both.
const (
	minBuckets  = 1
	shrinkRatio = 4
	slotBytes   = int64(unsafe.Sizeof(uintptr(0)))
	bucketBytes = int64(unsafe.Sizeof(uint32(0)))
	// minBucketAlloc is the fewest buckets an array is allocated with: 16
	// bytes, the smallest allocation the allocator does not pack with others
	// (a 4- or 8-byte array would share a 16-byte block, and its cost would
	// depend on its neighbours).
	minBucketAlloc = 4
)

// sizeClasses are the allocator's size classes for small objects from 16
// bytes, as runtime/sizeclasses.go lists them.
var sizeClasses = [...]uint16{
	16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
	288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024,
	1152, 1280, 1408, 1536, 1792, 2048, 2304, 2688, 3072, 3200, 3456, 4096,
	4864, 5376, 6144, 6528, 6784, 6912, 8192, 9472, 9728, 10240, 10880, 12288,
	13568, 14336, 16384, 18432, 19072, 20480, 21760, 24576, 27264, 28672, 32768,
}

// AllocBytes is the heap an allocation of n bytes takes: the smallest size
// class that holds it, or whole 8 KiB pages past 32 KiB. Under 16 bytes it
// is 16, the block a pointer-free object that small shares with others. The
// memory estimates charge records, copies and arrays by it.
func AllocBytes(n int64) int64 {
	if n > 32<<10 {
		return (n + 8<<10 - 1) &^ (8<<10 - 1)
	}
	i, _ := slices.BinarySearch(sizeClasses[:], uint16(n))
	return int64(sizeClasses[i])
}

// dirBytes is the heap a directory of size slots pins. An array of pointers
// past 512 B and under 32 KiB carries an 8-byte type header, which the
// allocator rounds up with it; a smaller or larger array of a power of two
// pointers fills its allocation exactly.
func dirBytes(size int) int64 {
	if b := slotBytes * int64(size); b <= 512 || b >= 32<<10 {
		return b
	}
	return AllocBytes(slotBytes*int64(size) + 8)
}

// bucketArray returns a bucket array of size buckets. Its allocation is at
// least minBucketAlloc buckets, and every power of two from there is a size
// class, so bucketArrayBytes is what it pins.
func bucketArray(size int) []uint32 {
	return make([]uint32, max(size, minBucketAlloc))[:size]
}

func bucketArrayBytes(size int) int64 {
	return bucketBytes * int64(max(size, minBucketAlloc))
}

// indexBytes is the heap a shard's directory and bucket array of size each
// pin together, 0 for none. TestIndexBytesMatchesBuckets measures both
// against the allocator at every size.
func indexBytes(size int) int64 {
	if size == 0 {
		return 0
	}
	return dirBytes(size) + bucketArrayBytes(size)
}

// Node is the part of a table entry the table owns: the entry's key as the
// entry stores it (its ID), the slot numbers of its LRU neighbours and of the
// next entry in its collision chain, and the low 32 bits of its slot hash, so
// no key is ever hashed again after Insert. prev points towards the head, the
// most recently used. An entry type embeds it, so an entry is one allocation
// and the table keeps no record of its own; a pointer-free ID keeps the whole
// entry pointer-free.
type Node[I comparable] struct {
	id                      I
	prev, next, hnext, hash uint32
}

// ID returns the ID the entry was inserted under.
func (n *Node[I]) ID() I { return n.id }

func (n *Node[I]) node() *Node[I] { return n }

// Entry is the constraint on a table's entry pointer type: *E, for an E that
// embeds Node[I].
type Entry[I comparable, E any] interface {
	*E
	node() *Node[I]
}

// Table is a sharded, bounded map from client keys to entries. A key K is
// what callers hold (address and agent strings); the entry stores an ID I
// built from it that compares equal exactly when the keys do, but holds no
// pointer. A key is found in two steps: the caller's unseeded FNV-1a hash of
// it picks the shard, so placement and therefore capacity eviction repeat
// from run to run, and a maphash under the table's random seed, its slot
// hash, picks the bucket in that shard's index. The slot hash must be seeded:
// FNV is an iterated 64-bit hash, so many keys with one FNV value are cheap
// to build and would line up in one chain. Each shard has its own lock,
// directory, intrusive LRU list, spill store, live count and cap; what to
// evict when a shard is over its cap is the user's call.
type Table[K, I comparable, E any, P Entry[I, E]] struct {
	shards []*Shard[I, E, P]
	fnv    func(K) uint64
	seed   maphash.Seed
	books

	// HashHook, when set, replaces the seeded slot hash. Only tests set it, to
	// force keys into collision chains.
	HashHook func(K) uint64
}

// books are the table's lock-free totals, which its shards keep up to date.
type books struct {
	live  atomic.Int64
	index atomic.Int64 // heap of every shard's directory and bucket array
}

// Shard is one independently locked partition of a table. Every method but
// Lock and Unlock requires the caller to hold the shard's lock.
type Shard[I comparable, E any, P Entry[I, E]] struct {
	sync.Mutex
	books      *books
	dir        []*E // the entries; cap(dir) == len(buckets)
	buckets    []uint32
	head, tail uint32
	spill      Spill
	max        int
	i          int
}

// NewTable returns a table of Normalize(shards) shards, each holding at most
// PerShardCap(capacity, shards) entries until SetShardCap says otherwise. fnv
// is the shard-selection hash of a key.
func NewTable[K, I comparable, E any, P Entry[I, E]](shards, capacity int, fnv func(K) uint64) *Table[K, I, E, P] {
	shards = Normalize(shards)
	t := &Table[K, I, E, P]{shards: make([]*Shard[I, E, P], shards), fnv: fnv, seed: maphash.MakeSeed()}
	per := PerShardCap(capacity, shards)
	for i := range t.shards {
		t.shards[i] = &Shard[I, E, P]{books: &t.books, max: per, i: i}
	}
	return t
}

// Locate returns key's shard and its slot hash. Both hashes are computed
// before the shard lock is taken.
func (t *Table[K, I, E, P]) Locate(key K) (*Shard[I, E, P], uint64) {
	return t.shards[t.fnv(key)&uint64(len(t.shards)-1)], t.slot(key)
}

// slot is key's slot hash: its bucket is the hash's low bits.
func (t *Table[K, I, E, P]) slot(key K) uint64 {
	if t.HashHook != nil {
		return t.HashHook(key)
	}
	return maphash.Comparable(t.seed, key)
}

// Shards returns the number of shards (a power of two).
func (t *Table[K, I, E, P]) Shards() int { return len(t.shards) }

// Shard returns shard i.
func (t *Table[K, I, E, P]) Shard(i int) *Shard[I, E, P] { return t.shards[i] }

// Len returns the number of entries in the whole table, lock-free.
func (t *Table[K, I, E, P]) Len() int { return int(t.live.Load()) }

// IndexBytes returns the heap every shard's directory and bucket array pin,
// lock-free: what the table's users charge for its index.
func (t *Table[K, I, E, P]) IndexBytes() int64 { return t.index.Load() }

// ShardFill returns the number of entries in shard i and its cap, for
// per-shard telemetry (a skewed shard is the first sign of a hash-flooding
// client mix). It locks only that shard.
func (t *Table[K, I, E, P]) ShardFill(i int) (n, max int) {
	sh := t.shards[i]
	sh.Lock()
	defer sh.Unlock()
	return len(sh.dir), sh.max
}

// SetShardCap sets shard i's cap. The shard evicts nothing itself: its user
// brings it back under the cap on its next write.
func (t *Table[K, I, E, P]) SetShardCap(i, max int) {
	sh := t.shards[i]
	sh.Lock()
	sh.max = max
	sh.Unlock()
}

// Index returns the shard's position in its table, for users that keep
// per-shard state of their own beside it.
func (sh *Shard[I, E, P]) Index() int { return sh.i }

// Len returns the number of entries in the shard.
func (sh *Shard[I, E, P]) Len() int { return len(sh.dir) }

// Cap returns the shard's cap.
func (sh *Shard[I, E, P]) Cap() int { return sh.max }

// Spill returns the shard's spill store, where its user keeps what outgrew
// its entries' records.
func (sh *Shard[I, E, P]) Spill() *Spill { return &sh.spill }

// entry returns the entry in slot s, nil for 0.
func (sh *Shard[I, E, P]) entry(s uint32) *E {
	if s == 0 {
		return nil
	}
	return sh.dir[s-1]
}

// at returns the node of the entry in slot s, which must be held.
func (sh *Shard[I, E, P]) at(s uint32) *Node[I] { return P(sh.dir[s-1]).node() }

// Head returns the shard's most recently used entry, nil when it is empty.
func (sh *Shard[I, E, P]) Head() *E { return sh.entry(sh.head) }

// Tail returns the shard's least recently used entry, nil when it is empty.
func (sh *Shard[I, E, P]) Tail() *E { return sh.entry(sh.tail) }

// Prev returns the shard's next more recently used entry than e, nil at the
// head.
func (sh *Shard[I, E, P]) Prev(e *E) *E { return sh.entry(P(e).node().prev) }

// Next returns the shard's next less recently used entry than e, nil at the
// tail.
func (sh *Shard[I, E, P]) Next(e *E) *E { return sh.entry(P(e).node().next) }

// Get returns the entry with ID id, whose key's slot hash is h, or nil.
func (sh *Shard[I, E, P]) Get(h uint64, id I) *E {
	if len(sh.buckets) == 0 {
		return nil
	}
	for s := sh.buckets[uint32(h)&uint32(len(sh.buckets)-1)]; s != 0; {
		e := sh.dir[s-1]
		n := P(e).node()
		if n.hash == uint32(h) && n.id == id {
			return e
		}
		s = n.hnext
	}
	return nil
}

// Insert adds e with ID id, whose key's slot hash is h, as the shard's most
// recently used entry. The shard must not hold id already.
func (sh *Shard[I, E, P]) Insert(h uint64, id I, e *E) {
	n := P(e).node()
	n.id, n.hash = id, uint32(h)
	if len(sh.dir) == len(sh.buckets) {
		sh.resize(max(2*len(sh.buckets), minBuckets))
	}
	sh.dir = append(sh.dir, e) // within the capacity resize gave it
	s := uint32(len(sh.dir))
	sh.pushFront(s, n)
	sh.chain(s, n)
	sh.books.live.Add(1)
}

// Remove drops e from the shard. The last entry of the directory moves into
// the slot e frees.
func (sh *Shard[I, E, P]) Remove(e *E) {
	n := P(e).node()
	s := sh.slotOf(n)
	*sh.link(n.hash, s) = n.hnext
	n.hnext = 0
	sh.unlink(n)
	if last := uint32(len(sh.dir)); s != last {
		m := sh.at(last)
		if m.prev != 0 {
			sh.at(m.prev).next = s
		} else {
			sh.head = s
		}
		if m.next != 0 {
			sh.at(m.next).prev = s
		} else {
			sh.tail = s
		}
		*sh.link(m.hash, last) = s
		sh.dir[s-1] = sh.dir[last-1]
	}
	sh.dir[len(sh.dir)-1] = nil
	sh.dir = sh.dir[:len(sh.dir)-1]
	sh.books.live.Add(-1)
	switch {
	case len(sh.dir) == 0:
		sh.resize(0)
	case len(sh.dir)*shrinkRatio <= len(sh.buckets):
		sh.resize(len(sh.buckets) / 2)
	}
}

// slotOf returns the slot of the entry whose node is n: its LRU neighbour
// towards the head names it, or the head does.
func (sh *Shard[I, E, P]) slotOf(n *Node[I]) uint32 {
	if n.prev == 0 {
		return sh.head
	}
	return sh.at(n.prev).next
}

// link returns the link that names slot s in the chain of the bucket hash
// picks: the bucket itself or the hnext of the entry before s.
func (sh *Shard[I, E, P]) link(hash, s uint32) *uint32 {
	b := &sh.buckets[hash&uint32(len(sh.buckets)-1)]
	for *b != s {
		b = &sh.at(*b).hnext
	}
	return b
}

// chain puts the entry in slot s, whose node is n, at the front of its
// bucket's chain.
func (sh *Shard[I, E, P]) chain(s uint32, n *Node[I]) {
	b := &sh.buckets[n.hash&uint32(len(sh.buckets)-1)]
	n.hnext, *b = *b, s
}

// resize replaces the directory and the bucket array with ones of size slots
// and buckets (none at 0), moves the entries over in slot order and chains
// them again.
func (sh *Shard[I, E, P]) resize(size int) {
	sh.books.index.Add(indexBytes(size) - indexBytes(len(sh.buckets)))
	if size == 0 {
		sh.dir, sh.buckets = nil, nil
		return
	}
	dir := make([]*E, len(sh.dir), size)
	copy(dir, sh.dir)
	sh.dir, sh.buckets = dir, bucketArray(size)
	for i, e := range sh.dir {
		sh.chain(uint32(i+1), P(e).node())
	}
}

// Touch makes e the shard's most recently used entry.
func (sh *Shard[I, E, P]) Touch(e *E) {
	n := P(e).node()
	if n.prev != 0 {
		s := sh.slotOf(n)
		sh.unlink(n)
		sh.pushFront(s, n)
	}
}

func (sh *Shard[I, E, P]) pushFront(s uint32, n *Node[I]) {
	n.prev, n.next = 0, sh.head
	if sh.head != 0 {
		sh.at(sh.head).prev = s
	}
	sh.head = s
	if sh.tail == 0 {
		sh.tail = s
	}
}

func (sh *Shard[I, E, P]) unlink(n *Node[I]) {
	if n.prev != 0 {
		sh.at(n.prev).next = n.next
	} else {
		sh.head = n.next
	}
	if n.next != 0 {
		sh.at(n.next).prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = 0, 0
}
