package shard

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A shard keeps its entries' records by value, in chunks, and links them by
// slot number. An entry is born either full or as a newcomer, a smaller
// record its user promotes to a full one in place (Promote); each size keeps
// its own slots and chunks. Full slot s, a position plus one (0 links
// nothing), is record (s-1)%chunkLen of chunk (s-1)/chunkLen; newcomer slot
// s|newcomerSlot is record (s-1)%per of the newcomer chunk (s-1)/per, where a
// chunk holds per newcomers in the room of chunkLen full records. The LRU
// list, the collision chains and the bucket array hold slot numbers of
// either size, so both share one list and one chain per bucket. A record
// holds no pointer (NewTable refuses a record type that does), so the chunks
// live outside the garbage-collected heap: the table's arena (arena.go)
// carves them, of one size for both, from blocks it maps itself on unix, and
// from heap arrays under the race detector and elsewhere. The collector
// neither scans the records nor counts them towards its heap goal; its work
// per entry is one chunk pointer for every chunk of records, in the shard's
// chunk directories, which stay on the heap with the bucket array. The slots
// of each size are dense: a removal copies the last record of its size into
// the slot it frees, so a pointer to a record or its node is valid only
// until the next Remove or Promote on its shard, and Remove returns the
// address the moved node had, so that a walk holding a neighbour across it
// can follow the move. A chunk is taken from the arena when a size's slots
// run out. The last full chunk is given back once two are empty, so a shard
// that sits at a cap divisible by chunkLen keeps a spare and does not take
// and give back a chunk on every insert; the last newcomer chunk is given
// back once it is empty, so a shard whose newcomers were promoted keeps
// none, and the arena hands it to the next chunk of either size. The bucket
// array has a power-of-two length, allocated at the shard's first Insert; it
// doubles when the shard holds more entries than it has buckets and halves
// when it holds a quarter of them or fewer, so right after a resize an entry
// has one or two buckets, and a shard that hovers at its cap never resizes
// back and forth. A resize re-chains the entries where they are and moves no
// record; a halving also trims the chunk directories to their lengths. An
// empty shard frees all of it and gives its chunks back. A promotion swaps
// the newcomer's slot for a full one in every link that named it, so the
// entry keeps its place in the LRU list and its chain, and eviction and
// expiry see it where they did.
//
// A chunk holds 8 full records: 8 sessions take 1,536 B (or 24 newcomers of
// 64 B) and 8 keystore clients 512 B, and a shard's last chunk leaves 3.5
// records unused on average. At bigpage_origin's ~63 sessions a shard,
// 16-record chunks would leave 7.5 unused, 1,440 B a shard or 23 B a
// session: more than the 8 to 18 B a session the directory of record
// pointers they replaced cost there.
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
	// newcomerSlot marks a slot number as a newcomer's.
	newcomerSlot = 1 << 31
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
// ID keeps the whole entry pointer-free. Lookups and walks hand out an
// entry's node, and Record its record of either size.
type Node[I comparable] struct {
	id                      I
	prev, next, hnext, hash uint32
}

// ID returns the ID the entry was inserted under.
func (n *Node[I]) ID() I { return n.id }

func (n *Node[I]) node() *Node[I] { return n }

// Entry is the constraint on a table's record pointer types: *E, for an E
// that embeds Node[I].
type Entry[I comparable, E any] interface {
	*E
	node() *Node[I]
}

// Table is a sharded, bounded map from client keys to entries, each held in
// a full record E or, until its user promotes it, a newcomer record N no
// larger (a table whose entries are always full names its record type for
// both). A key K is what callers hold (address and agent strings); the entry
// stores an ID I built from it that compares equal exactly when the keys do,
// but holds no pointer. A key is found in two steps: the caller's unseeded
// FNV-1a hash of it picks the shard, so placement and therefore capacity
// eviction repeat from run to run, and a maphash under the table's random
// seed, its slot hash, picks the bucket in that shard's index. The slot hash
// must be seeded: FNV is an iterated 64-bit hash, so many keys with one FNV
// value are cheap to build and would line up in one chain. Each shard has its
// own lock, chunks of records, intrusive LRU list, spill store, live count
// and cap; what to evict when a shard is over its cap is the user's call.
type Table[K, I comparable, E, N any, P Entry[I, E], Q Entry[I, N]] struct {
	shards []*Shard[I, E, N, P, Q]
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
	index atomic.Int64 // what the arena charges, and every shard's chunk directories and bucket array
}

// Shard is one independently locked partition of a table. Every method but
// Lock and Unlock requires the caller to hold the shard's lock.
type Shard[I comparable, E, N any, P Entry[I, E], Q Entry[I, N]] struct {
	sync.Mutex
	books      *books // in the table, which it keeps alive and with it the arena
	arena      *arena
	full       slots // the full records
	newcomers  slots // the newcomer records
	buckets    []uint32
	head, tail uint32
	spill      Spill
	max        int
	i          int
}

// slots are one record size's chunks: its slots 1 to n hold entries, per to
// a chunk.
type slots struct {
	chunks []unsafe.Pointer
	n, per int
}

// NewTable returns a table of Normalize(shards) shards, each holding at most
// PerShardCap(capacity, shards) entries until SetShardCap says otherwise. fnv
// is the shard-selection hash of a key. A chunk holds chunkLen full records
// or as many newcomers as fit in that room. It panics if E or N, and so the
// ID I, holds a pointer, which the collector would not see in the arena, or
// if a newcomer is larger than a full record. The arena's blocks are
// unmapped once neither the table nor any of its shards can be reached.
func NewTable[K, I comparable, E, N any, P Entry[I, E], Q Entry[I, N]](shards, capacity int, fnv func(K) uint64) *Table[K, I, E, N, P, Q] {
	mustHoldNoPointer[E]()
	mustHoldNoPointer[N]()
	var newcomer N
	stride := chunkBytes[E]()
	newPer := int(stride / int64(unsafe.Sizeof(newcomer)))
	if newPer < chunkLen {
		panic(fmt.Sprintf("shard: a newcomer of %d B is larger than a full record of %d B", unsafe.Sizeof(newcomer), stride/chunkLen))
	}
	shards = Normalize(shards)
	t := &Table[K, I, E, N, P, Q]{shards: make([]*Shard[I, E, N, P, Q], shards), fnv: fnv, seed: maphash.MakeSeed(),
		arena: newArena(int(stride))}
	per := PerShardCap(capacity, shards)
	for i := range t.shards {
		t.shards[i] = &Shard[I, E, N, P, Q]{books: &t.books, arena: t.arena, max: per, i: i,
			full: slots{per: chunkLen}, newcomers: slots{per: newPer}}
	}
	runtime.AddCleanup(t, (*arena).release, t.arena)
	return t
}

// Locate returns key's shard and its slot hash. Both hashes are computed
// before the shard lock is taken.
func (t *Table[K, I, E, N, P, Q]) Locate(key K) (*Shard[I, E, N, P, Q], uint64) {
	return t.shards[t.fnv(key)&uint64(len(t.shards)-1)], t.slot(key)
}

// slot is key's slot hash: its bucket is the hash's low bits.
func (t *Table[K, I, E, N, P, Q]) slot(key K) uint64 {
	if t.HashHook != nil {
		return t.HashHook(key)
	}
	return maphash.Comparable(t.seed, key)
}

// Shards returns the number of shards (a power of two).
func (t *Table[K, I, E, N, P, Q]) Shards() int { return len(t.shards) }

// Shard returns shard i.
func (t *Table[K, I, E, N, P, Q]) Shard(i int) *Shard[I, E, N, P, Q] { return t.shards[i] }

// Len returns the number of entries in the whole table, lock-free.
func (t *Table[K, I, E, N, P, Q]) Len() int { return int(t.live.Load()) }

// IndexBytes returns what the table's records and index take, lock-free:
// every chunk its arena has handed out and not unmapped, in use or free,
// each mapped block's bookkeeping, and the heap every shard's chunk
// directories and bucket array pin. It is what the table's users charge for
// their records and its index.
func (t *Table[K, I, E, N, P, Q]) IndexBytes() int64 { return t.index.Load() }

// ShardFill returns the number of entries in shard i and its cap, for
// per-shard telemetry (a skewed shard is the first sign of a hash-flooding
// client mix). It locks only that shard.
func (t *Table[K, I, E, N, P, Q]) ShardFill(i int) (n, max int) {
	sh := t.shards[i]
	sh.Lock()
	defer sh.Unlock()
	return sh.Len(), sh.max
}

// SetShardCap sets shard i's cap. The shard evicts nothing itself: its user
// brings it back under the cap on its next write.
func (t *Table[K, I, E, N, P, Q]) SetShardCap(i, max int) {
	sh := t.shards[i]
	sh.Lock()
	sh.max = max
	sh.Unlock()
}

// Index returns the shard's position in its table, for users that keep
// per-shard state of their own beside it.
func (sh *Shard[I, E, N, P, Q]) Index() int { return sh.i }

// Len returns the number of entries in the shard.
func (sh *Shard[I, E, N, P, Q]) Len() int { return sh.full.n + sh.newcomers.n }

// Cap returns the shard's cap.
func (sh *Shard[I, E, N, P, Q]) Cap() int { return sh.max }

// Spill returns the shard's spill store, where its user keeps what outgrew
// its entries' records.
func (sh *Shard[I, E, N, P, Q]) Spill() *Spill { return &sh.spill }

// slots returns the slots of s's size.
func (sh *Shard[I, E, N, P, Q]) slots(s uint32) *slots {
	if s&newcomerSlot != 0 {
		return &sh.newcomers
	}
	return &sh.full
}

// rec returns the full record in slot s, which must be a full slot.
func (sh *Shard[I, E, N, P, Q]) rec(s uint32) *E {
	return &(*[chunkLen]E)(sh.full.chunks[(s-1)/chunkLen])[(s-1)%chunkLen]
}

// newRec returns the newcomer record in slot s, which must be a newcomer
// slot.
func (sh *Shard[I, E, N, P, Q]) newRec(s uint32) *N {
	i, per := int(s&^newcomerSlot)-1, sh.newcomers.per
	return &unsafe.Slice((*N)(sh.newcomers.chunks[i/per]), per)[i%per]
}

// at returns the node of the entry in slot s, which must be held.
func (sh *Shard[I, E, N, P, Q]) at(s uint32) *Node[I] {
	if s&newcomerSlot != 0 {
		return Q(sh.newRec(s)).node()
	}
	return P(sh.rec(s)).node()
}

// node returns the node in slot s, nil for 0.
func (sh *Shard[I, E, N, P, Q]) node(s uint32) *Node[I] {
	if s == 0 {
		return nil
	}
	return sh.at(s)
}

// Record returns the record of the entry whose node is n: its full record,
// or its newcomer record; both are nil for a nil n.
func (sh *Shard[I, E, N, P, Q]) Record(n *Node[I]) (*E, *N) {
	if n == nil {
		return nil, nil
	}
	s := sh.slotOf(n)
	if s&newcomerSlot != 0 {
		return nil, sh.newRec(s)
	}
	return sh.rec(s), nil
}

// Head returns the node of the shard's most recently used entry, nil when
// it is empty.
func (sh *Shard[I, E, N, P, Q]) Head() *Node[I] { return sh.node(sh.head) }

// Tail returns the node of the shard's least recently used entry, nil when
// it is empty.
func (sh *Shard[I, E, N, P, Q]) Tail() *Node[I] { return sh.node(sh.tail) }

// Prev returns the node of the shard's next more recently used entry than
// n's, nil at the head.
func (sh *Shard[I, E, N, P, Q]) Prev(n *Node[I]) *Node[I] { return sh.node(n.prev) }

// Next returns the node of the shard's next less recently used entry than
// n's, nil at the tail.
func (sh *Shard[I, E, N, P, Q]) Next(n *Node[I]) *Node[I] { return sh.node(n.next) }

// Get returns the node of the entry with ID id, whose key's slot hash is h,
// or nil.
func (sh *Shard[I, E, N, P, Q]) Get(h uint64, id I) *Node[I] {
	if len(sh.buckets) == 0 {
		return nil
	}
	for s := sh.buckets[uint32(h)&uint32(len(sh.buckets)-1)]; s != 0; {
		n := sh.at(s)
		if n.hash == uint32(h) && n.id == id {
			return n
		}
		s = n.hnext
	}
	return nil
}

// Insert adds an entry with ID id, whose key's slot hash is h, as the shard's
// most recently used entry, and returns its full record: the next full slot,
// zero but for its node. The shard must not hold id already. No record
// moves.
func (sh *Shard[I, E, N, P, Q]) Insert(h uint64, id I) *E {
	return sh.rec(sh.insert(h, id, 0))
}

// InsertNewcomer is Insert into a newcomer record, or into a full record
// when the shard has a full slot free, which costs nothing a newcomer would
// not: it returns the record it took, the other nil.
func (sh *Shard[I, E, N, P, Q]) InsertNewcomer(h uint64, id I) (*E, *N) {
	if sh.full.n < sh.full.per*len(sh.full.chunks) {
		return sh.Insert(h, id), nil
	}
	return nil, sh.newRec(sh.insert(h, id, newcomerSlot))
}

// insert adds the entry in the next free slot of the size kind names (0 or
// newcomerSlot) and returns that slot.
func (sh *Shard[I, E, N, P, Q]) insert(h uint64, id I, kind uint32) uint32 {
	if sh.Len() == len(sh.buckets) {
		sh.resize(max(2*len(sh.buckets), minBuckets))
	}
	s := sh.take(kind)
	n := sh.at(s)
	n.id, n.hash = id, uint32(h)
	sh.pushFront(s, n)
	sh.chain(s, n)
	sh.books.live.Add(1)
	return s
}

// take returns the next slot of the size kind names, zero, linked nowhere,
// taking a chunk from the arena when the size's chunks are full.
func (sh *Shard[I, E, N, P, Q]) take(kind uint32) uint32 {
	sl := sh.slots(kind)
	if sl.n == sl.per*len(sl.chunks) {
		before := sh.pinned()
		c, charged := sh.arena.alloc()
		sl.chunks = append(sl.chunks, c)
		sh.books.index.Add(sh.pinned() - before + charged)
	}
	sl.n++
	return uint32(sl.n) | kind
}

// Promote moves the newcomer nc into a full record, which it returns: the
// next full slot, holding nc's node and zero besides, in nc's place in the
// LRU list and its chain. nc's slot is freed as Remove frees it, so the
// caller reads what it needs of nc first; a pointer to the newcomer moved
// into that slot is stale, as after a Remove.
func (sh *Shard[I, E, N, P, Q]) Promote(nc *N) *E {
	n := Q(nc).node()
	from := sh.slotOf(n)
	to := sh.take(0)
	e := sh.rec(to)
	*P(e).node() = *n
	sh.relink(from, to, n)
	sh.vacate(from)
	return e
}

// Straggler returns the shard's last newcomer when all its newcomers fit in
// the free slots of its full chunks, and nil otherwise: promoting them
// there, each in turn, costs no chunk and gives theirs back. A shard
// promoting its newcomers as fast as they come would otherwise hold a
// newcomer chunk for its last few beside full chunks with free slots.
func (sh *Shard[I, E, N, P, Q]) Straggler() *N {
	if n := sh.newcomers.n; n == 0 || n > sh.full.per*len(sh.full.chunks)-sh.full.n {
		return nil
	}
	return sh.newRec(uint32(sh.newcomers.n) | newcomerSlot)
}

// Remove drops the entry whose node is n from the shard. The record in the
// last slot of its size is copied into the slot it frees, and that last slot
// is zeroed; Remove returns the address the moved node had, nil when n's was
// the last and nothing moved. A node pointer the caller holds to that
// address must be taken as n from here on.
func (sh *Shard[I, E, N, P, Q]) Remove(n *Node[I]) (from *Node[I]) {
	s := sh.slotOf(n)
	*sh.link(n.hash, s) = n.hnext
	sh.unlink(n)
	from = sh.vacate(s)
	sh.books.live.Add(-1)
	if sh.Len() == 0 {
		sh.resize(0)
	} else if sh.Len()*shrinkRatio <= len(sh.buckets) {
		sh.resize(len(sh.buckets) / 2)
	}
	return from
}

// vacate frees slot s, which nothing links to any more: the last record of
// its size moves into it, and the last slot is zeroed and dropped, with the
// last full chunk once two are empty and the last newcomer chunk once it is
// empty, so that a promotion's emptied newcomer chunk goes back to the arena
// for the next chunk of either size. The removal that
// empties the shard leaves its chunks to resize. It returns the address the
// moved node had, nil when s was the last.
func (sh *Shard[I, E, N, P, Q]) vacate(s uint32) (from *Node[I]) {
	sl := sh.slots(s)
	last := uint32(sl.n) | s&newcomerSlot
	if s != last {
		from = sh.at(last)
		sh.relink(last, s, from)
	}
	if s&newcomerSlot != 0 {
		if s != last {
			*sh.newRec(s) = *sh.newRec(last)
		}
		*sh.newRec(last) = *new(N)
	} else {
		if s != last {
			*sh.rec(s) = *sh.rec(last)
		}
		*sh.rec(last) = *new(E)
	}
	sl.n--
	keep := (sl.n + sl.per - 1) / sl.per
	if sl.n > 0 && sl == &sh.full {
		keep++ // a spare
	}
	for end := len(sl.chunks) - 1; sh.Len() > 0 && end >= keep; end-- {
		sh.books.index.Add(sh.arena.free(sl.chunks[end]))
		sl.chunks[end] = nil
		sl.chunks = sl.chunks[:end]
	}
	return from
}

// relink makes every link that names slot from, the slot of the entry whose
// node is n, name slot to instead: its LRU neighbours' (or the head or the
// tail) and its chain's.
func (sh *Shard[I, E, N, P, Q]) relink(from, to uint32, n *Node[I]) {
	if n.prev != 0 {
		sh.at(n.prev).next = to
	} else {
		sh.head = to
	}
	if n.next != 0 {
		sh.at(n.next).prev = to
	} else {
		sh.tail = to
	}
	*sh.link(n.hash, from) = to
}

// slotOf returns the slot of the entry whose node is n: its LRU neighbour
// towards the head names it, or the head does.
func (sh *Shard[I, E, N, P, Q]) slotOf(n *Node[I]) uint32 {
	if n.prev == 0 {
		return sh.head
	}
	return sh.at(n.prev).next
}

// link returns the link that names slot s in the chain of the bucket hash
// picks: the bucket itself or the hnext of the entry before s.
func (sh *Shard[I, E, N, P, Q]) link(hash, s uint32) *uint32 {
	b := &sh.buckets[hash&uint32(len(sh.buckets)-1)]
	for *b != s {
		b = &sh.at(*b).hnext
	}
	return b
}

// chain puts the entry in slot s, whose node is n, at the front of its
// bucket's chain.
func (sh *Shard[I, E, N, P, Q]) chain(s uint32, n *Node[I]) {
	b := &sh.buckets[n.hash&uint32(len(sh.buckets)-1)]
	n.hnext, *b = *b, s
}

// pinned is the heap the shard's chunk directories and bucket array pin.
func (sh *Shard[I, E, N, P, Q]) pinned() int64 {
	return dirBytes(cap(sh.full.chunks)) + dirBytes(cap(sh.newcomers.chunks)) + bucketArrayBytes(len(sh.buckets))
}

// resize replaces the bucket array with one of size buckets and chains the
// entries again where they are; at 0 it gives the chunks back to the arena
// too. A halving trims the chunk directories to their lengths.
func (sh *Shard[I, E, N, P, Q]) resize(size int) {
	before := sh.pinned()
	if size == 0 {
		for _, sl := range []*slots{&sh.full, &sh.newcomers} {
			for _, c := range sl.chunks {
				sh.books.index.Add(sh.arena.free(c))
			}
			sl.chunks = nil
		}
		sh.buckets = nil
	} else {
		if size < len(sh.buckets) {
			sh.full.chunks = slices.Clone(sh.full.chunks)
			sh.newcomers.chunks = slices.Clone(sh.newcomers.chunks)
		}
		sh.buckets = bucketArray(size)
		for s := uint32(1); s <= uint32(sh.full.n); s++ {
			sh.chain(s, sh.at(s))
		}
		for s := uint32(1) | newcomerSlot; s <= uint32(sh.newcomers.n)|newcomerSlot; s++ {
			sh.chain(s, sh.at(s))
		}
	}
	sh.books.index.Add(sh.pinned() - before)
}

// Touch makes the entry whose node is n the shard's most recently used.
func (sh *Shard[I, E, N, P, Q]) Touch(n *Node[I]) {
	if n.prev != 0 {
		s := sh.slotOf(n)
		sh.unlink(n)
		sh.pushFront(s, n)
	}
}

func (sh *Shard[I, E, N, P, Q]) pushFront(s uint32, n *Node[I]) {
	n.prev, n.next = 0, sh.head
	if sh.head != 0 {
		sh.at(sh.head).prev = s
	}
	sh.head = s
	if sh.tail == 0 {
		sh.tail = s
	}
}

func (sh *Shard[I, E, N, P, Q]) unlink(n *Node[I]) {
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
