package shard

import (
	"hash/maphash"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A shard keeps its entries' records by value, in chunks of chunkLen records
// each, and links them by slot number: slot s, a position plus one (0 links
// nothing), is record (s-1)%chunkLen of chunk (s-1)/chunkLen. The LRU list,
// the collision chains and the bucket array hold slot numbers. A record
// holds no pointer (NewTable refuses a record type that does), so the chunks
// live outside the garbage-collected heap: the table's arena (arena.go)
// carves them from blocks it maps itself on unix, and from heap arrays under
// the race detector and elsewhere. The collector neither scans the records
// nor counts them towards its heap goal; its work per entry is one chunk
// pointer for every chunkLen records, in the shard's chunk directory, which
// stays on the heap with the bucket array. The slots are dense: a removal
// copies the last record into the slot it frees, so a *E is valid only until
// the next Remove on its shard, and Remove returns the address the moved
// record had, so that a walk holding a neighbour across it can follow the
// move. A chunk is taken from the arena when the slots run out and the last
// one is given back once two are empty, so a shard that sits at a cap
// divisible by chunkLen keeps a spare and does not take and give back a
// chunk on every insert. The bucket array has a power-of-two length,
// allocated at the shard's first Insert; it doubles when the shard holds
// more entries than it has buckets and halves when it holds a quarter of
// them or fewer, so right after a resize an entry has one or two buckets,
// and a shard that hovers at its cap never resizes back and forth. A resize
// re-chains the entries where they are and moves no record; a halving also
// trims the chunk directory to its length. An empty shard frees all of it
// and gives its chunks back.
//
// A chunk holds 8 records: 8 sessions take 1,536 B and 8 keystore clients
// 512 B, and a shard's last chunk leaves 3.5 records unused on average. At
// bigpage_origin's ~63 sessions a shard, 16-record chunks would leave 7.5
// unused, 1,440 B a shard or 23 B a session: more than the 8 to 18 B a
// session the directory of record pointers they replaced cost there.
const (
	chunkLen    = 8
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

// dirBytes is the heap an array of slots pointers pins. Past 512 B and up to
// 32 KiB it carries an 8-byte type header, which the allocator rounds up with
// it; an array of one pointer takes the 8-byte size class.
func dirBytes(slots int) int64 {
	b := slotBytes * int64(slots)
	switch {
	case b <= slotBytes:
		return b
	case b > 512 && b <= 32<<10-8:
		b += 8
	}
	return AllocBytes(b)
}

// chunkBytes is what a chunk of records of type E takes in its arena.
func chunkBytes[E any]() int64 {
	var c [chunkLen]E
	return int64(unsafe.Sizeof(c))
}

// bucketArray returns a bucket array of size buckets. Its allocation is at
// least minBucketAlloc buckets, and every power of two from there is a size
// class, so bucketArrayBytes is what it pins.
func bucketArray(size int) []uint32 {
	return make([]uint32, max(size, minBucketAlloc))[:size]
}

// bucketArrayBytes is the heap an array of size buckets pins, 0 for none.
func bucketArrayBytes(size int) int64 {
	if size == 0 {
		return 0
	}
	return bucketBytes * int64(max(size, minBucketAlloc))
}

// Node is the part of a table entry the table owns: the entry's key as the
// entry stores it (its ID), the slot numbers of its LRU neighbours and of the
// next entry in its collision chain, and the low 32 bits of its slot hash, so
// no key is ever hashed again after Insert. prev points towards the head, the
// most recently used. An entry type embeds it, so an entry is one record in
// its shard's chunk and the table keeps no record of its own; a pointer-free
// ID keeps the whole entry pointer-free.
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
// chunks of records, intrusive LRU list, spill store, live count and cap;
// what to evict when a shard is over its cap is the user's call.
type Table[K, I comparable, E any, P Entry[I, E]] struct {
	shards []*Shard[I, E, P]
	fnv    func(K) uint64
	seed   maphash.Seed
	arena  *arena
	books

	// HashHook, when set, replaces the seeded slot hash. Only tests set it, to
	// force keys into collision chains.
	HashHook func(K) uint64
}

// books are the table's lock-free totals, which its shards keep up to date.
type books struct {
	live  atomic.Int64
	index atomic.Int64 // what the arena charges, and every shard's chunk directory and bucket array
}

// Shard is one independently locked partition of a table. Every method but
// Lock and Unlock requires the caller to hold the shard's lock.
type Shard[I comparable, E any, P Entry[I, E]] struct {
	sync.Mutex
	books      *books // in the table, which it keeps alive and with it the arena
	arena      *arena
	chunks     []*[chunkLen]E // the records; slots 1 to n hold the entries
	n          int
	buckets    []uint32
	head, tail uint32
	spill      Spill
	max        int
	i          int
}

// NewTable returns a table of Normalize(shards) shards, each holding at most
// PerShardCap(capacity, shards) entries until SetShardCap says otherwise. fnv
// is the shard-selection hash of a key. It panics if E, and so its ID I,
// holds a pointer: the collector would not see it in the arena. The arena's
// blocks are unmapped once neither the table nor any of its shards can be
// reached.
func NewTable[K, I comparable, E any, P Entry[I, E]](shards, capacity int, fnv func(K) uint64) *Table[K, I, E, P] {
	mustHoldNoPointer[E]()
	shards = Normalize(shards)
	t := &Table[K, I, E, P]{shards: make([]*Shard[I, E, P], shards), fnv: fnv, seed: maphash.MakeSeed(),
		arena: newArena(int(chunkBytes[E]()))}
	per := PerShardCap(capacity, shards)
	for i := range t.shards {
		t.shards[i] = &Shard[I, E, P]{books: &t.books, arena: t.arena, max: per, i: i}
	}
	runtime.AddCleanup(t, (*arena).release, t.arena)
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

// IndexBytes returns what the table's records and index take, lock-free:
// every chunk its arena has handed out and not unmapped, in use or free,
// each mapped block's bookkeeping, and the heap every shard's chunk
// directory and bucket array pin. It is what the table's users charge for
// their records and its index.
func (t *Table[K, I, E, P]) IndexBytes() int64 { return t.index.Load() }

// ShardFill returns the number of entries in shard i and its cap, for
// per-shard telemetry (a skewed shard is the first sign of a hash-flooding
// client mix). It locks only that shard.
func (t *Table[K, I, E, P]) ShardFill(i int) (n, max int) {
	sh := t.shards[i]
	sh.Lock()
	defer sh.Unlock()
	return sh.n, sh.max
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
func (sh *Shard[I, E, P]) Len() int { return sh.n }

// Cap returns the shard's cap.
func (sh *Shard[I, E, P]) Cap() int { return sh.max }

// Spill returns the shard's spill store, where its user keeps what outgrew
// its entries' records.
func (sh *Shard[I, E, P]) Spill() *Spill { return &sh.spill }

// entry returns the record in slot s, nil for 0.
func (sh *Shard[I, E, P]) entry(s uint32) *E {
	if s == 0 {
		return nil
	}
	return sh.rec(s)
}

// rec returns the record in slot s, which must not be 0.
func (sh *Shard[I, E, P]) rec(s uint32) *E {
	return &sh.chunks[(s-1)/chunkLen][(s-1)%chunkLen]
}

// at returns the node of the entry in slot s, which must be held.
func (sh *Shard[I, E, P]) at(s uint32) *Node[I] { return P(sh.rec(s)).node() }

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
		e := sh.rec(s)
		n := P(e).node()
		if n.hash == uint32(h) && n.id == id {
			return e
		}
		s = n.hnext
	}
	return nil
}

// Insert adds an entry with ID id, whose key's slot hash is h, as the shard's
// most recently used entry, and returns its record: the next slot, zero but
// for its node. The shard must not hold id already. No record moves.
func (sh *Shard[I, E, P]) Insert(h uint64, id I) *E {
	if sh.n == len(sh.buckets) {
		sh.resize(max(2*len(sh.buckets), minBuckets))
	}
	if sh.n == chunkLen*len(sh.chunks) {
		before := sh.pinned()
		c, charged := sh.arena.alloc()
		sh.chunks = append(sh.chunks, (*[chunkLen]E)(c))
		sh.books.index.Add(sh.pinned() - before + charged)
	}
	sh.n++
	s := uint32(sh.n)
	e := sh.rec(s) // every slot past the last is zero
	n := P(e).node()
	n.id, n.hash = id, uint32(h)
	sh.pushFront(s, n)
	sh.chain(s, n)
	sh.books.live.Add(1)
	return e
}

// Remove drops e from the shard. The record in the last slot is copied into
// the slot e frees, and the last slot is zeroed; Remove returns the address
// the moved record had, nil when e was the last and nothing moved. A *E the
// caller holds to that address must be taken as e from here on.
func (sh *Shard[I, E, P]) Remove(e *E) (from *E) {
	n := P(e).node()
	s := sh.slotOf(n)
	*sh.link(n.hash, s) = n.hnext
	sh.unlink(n)
	last := uint32(sh.n)
	if s != last {
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
		from = sh.rec(last)
		*e = *from
	}
	var zero E
	*sh.rec(last) = zero
	sh.n--
	sh.books.live.Add(-1)
	if sh.n == 0 {
		sh.resize(0)
		return from
	}
	if last := len(sh.chunks) - 1; last-(sh.n+chunkLen-1)/chunkLen == 1 {
		sh.books.index.Add(sh.arena.free(unsafe.Pointer(sh.chunks[last])))
		sh.chunks[last] = nil
		sh.chunks = sh.chunks[:last]
	}
	if sh.n*shrinkRatio <= len(sh.buckets) {
		sh.resize(len(sh.buckets) / 2)
	}
	return from
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

// pinned is the heap the shard's chunk directory and bucket array pin.
func (sh *Shard[I, E, P]) pinned() int64 {
	return dirBytes(cap(sh.chunks)) + bucketArrayBytes(len(sh.buckets))
}

// resize replaces the bucket array with one of size buckets and chains the
// entries again where they are; at 0 it gives the chunks back to the arena
// too. A halving trims the chunk directory to its length.
func (sh *Shard[I, E, P]) resize(size int) {
	before := sh.pinned()
	if size == 0 {
		for _, c := range sh.chunks {
			sh.books.index.Add(sh.arena.free(unsafe.Pointer(c)))
		}
		sh.chunks, sh.buckets = nil, nil
	} else {
		if size < len(sh.buckets) {
			sh.chunks = slices.Clone(sh.chunks)
		}
		sh.buckets = bucketArray(size)
		for s := uint32(1); s <= uint32(sh.n); s++ {
			sh.chain(s, sh.at(s))
		}
	}
	sh.books.index.Add(sh.pinned() - before)
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
