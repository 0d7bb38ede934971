package shard

import (
	"hash/maphash"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// A shard's index is an array of chain heads whose length is a power of two,
// allocated at the shard's first Insert. It doubles when the shard holds more
// entries than it has buckets and halves when it holds a quarter of them or
// fewer, so right after a resize an entry holds one or two buckets, and a
// shard that hovers at its cap never resizes back and forth. An empty shard
// frees it.
const (
	minBuckets  = 1
	shrinkRatio = 4
	bucketBytes = int64(unsafe.Sizeof(uintptr(0)))
)

// headedClasses are the allocations of 2^7 to 2^11 buckets: an array of
// pointers past 512 B and under 32 KiB carries an 8-byte type header, and the
// allocator rounds the two up to its next size class.
var headedClasses = [...]int64{1152, 2304, 4864, 9472, 18432}

// arrayBytes is the heap an array of size buckets pins: a smaller or larger
// array of a power of two pointers fills its allocation exactly.
// TestIndexBytesMatchesBuckets measures every size against the allocator.
func arrayBytes(size int) int64 {
	if b := bucketBytes * int64(size); b <= 512 || b >= 32<<10 {
		return b
	}
	return headedClasses[bits.Len(uint(size))-8]
}

// Node is the part of a table entry the table owns: the entry's key and its
// links. An entry type embeds it, so an entry is one allocation and the table
// keeps no record of its own. prev and next chain the shard's intrusive LRU
// list (prev = towards the head, the most recently used); hnext chains the
// entries that share a bucket.
type Node[K comparable, E any] struct {
	key               K
	prev, next, hnext *E
}

// Key returns the key the entry was inserted under.
func (n *Node[K, E]) Key() K { return n.key }

// Prev returns the shard's next more recently used entry, nil at the head.
func (n *Node[K, E]) Prev() *E { return n.prev }

// Next returns the shard's next less recently used entry, nil at the tail.
func (n *Node[K, E]) Next() *E { return n.next }

func (n *Node[K, E]) node() *Node[K, E] { return n }

// Entry is the constraint on a table's entry pointer type: *E, for an E that
// embeds Node[K, E].
type Entry[K comparable, E any] interface {
	*E
	node() *Node[K, E]
}

// Table is a sharded, bounded map from client keys to entries. A key is found
// in two steps: the caller's unseeded FNV-1a hash of it picks the shard, so
// placement and therefore capacity eviction repeat from run to run, and a
// maphash under the table's random seed, its slot hash, picks the bucket in
// that shard's index. The slot hash must be seeded: FNV is an iterated 64-bit
// hash, so many keys with one FNV value are cheap to build and would line up
// in one chain. A bucket holds the first entry of its chain and no copy of a
// key or a hash. Each shard has its own lock, intrusive LRU list, live count
// and cap; what to evict when a shard is over its cap is the user's call.
type Table[K comparable, E any, P Entry[K, E]] struct {
	shards []*Shard[K, E, P]
	fnv    func(K) uint64
	seed   maphash.Seed
	live   atomic.Int64
	index  atomic.Int64 // heap of every shard's bucket array (see arrayBytes)

	// HashHook, when set, replaces the seeded slot hash. Only tests set it, to
	// force keys into collision chains.
	HashHook func(K) uint64
}

// Shard is one independently locked partition of a table. Every method but
// Lock and Unlock requires the caller to hold the shard's lock.
type Shard[K comparable, E any, P Entry[K, E]] struct {
	sync.Mutex
	table      *Table[K, E, P]
	buckets    []*E
	head, tail *E
	n, max     int
	i          int
}

// NewTable returns a table of Normalize(shards) shards, each holding at most
// PerShardCap(capacity, shards) entries until SetShardCap says otherwise. fnv
// is the shard-selection hash of a key.
func NewTable[K comparable, E any, P Entry[K, E]](shards, capacity int, fnv func(K) uint64) *Table[K, E, P] {
	shards = Normalize(shards)
	t := &Table[K, E, P]{shards: make([]*Shard[K, E, P], shards), fnv: fnv, seed: maphash.MakeSeed()}
	per := PerShardCap(capacity, shards)
	for i := range t.shards {
		t.shards[i] = &Shard[K, E, P]{table: t, max: per, i: i}
	}
	return t
}

// Locate returns key's shard and its slot hash. Both hashes are computed
// before the shard lock is taken.
func (t *Table[K, E, P]) Locate(key K) (*Shard[K, E, P], uint64) {
	return t.shards[t.fnv(key)&uint64(len(t.shards)-1)], t.slot(key)
}

// slot is key's slot hash: its bucket is the hash's low bits.
func (t *Table[K, E, P]) slot(key K) uint64 {
	if t.HashHook != nil {
		return t.HashHook(key)
	}
	return maphash.Comparable(t.seed, key)
}

// Shards returns the number of shards (a power of two).
func (t *Table[K, E, P]) Shards() int { return len(t.shards) }

// Shard returns shard i.
func (t *Table[K, E, P]) Shard(i int) *Shard[K, E, P] { return t.shards[i] }

// Len returns the number of entries in the whole table, lock-free.
func (t *Table[K, E, P]) Len() int { return int(t.live.Load()) }

// IndexBytes returns the heap every shard's bucket array pins, lock-free:
// what the table's users charge for its index.
func (t *Table[K, E, P]) IndexBytes() int64 { return t.index.Load() }

// ShardFill returns the number of entries in shard i and its cap, for
// per-shard telemetry (a skewed shard is the first sign of a hash-flooding
// client mix). It locks only that shard.
func (t *Table[K, E, P]) ShardFill(i int) (n, max int) {
	sh := t.shards[i]
	sh.Lock()
	defer sh.Unlock()
	return sh.n, sh.max
}

// SetShardCap sets shard i's cap. The shard evicts nothing itself: its user
// brings it back under the cap on its next write.
func (t *Table[K, E, P]) SetShardCap(i, max int) {
	sh := t.shards[i]
	sh.Lock()
	sh.max = max
	sh.Unlock()
}

// Index returns the shard's position in its table, for users that keep
// per-shard state of their own beside it.
func (sh *Shard[K, E, P]) Index() int { return sh.i }

// Len returns the number of entries in the shard.
func (sh *Shard[K, E, P]) Len() int { return sh.n }

// Cap returns the shard's cap.
func (sh *Shard[K, E, P]) Cap() int { return sh.max }

// Head returns the shard's most recently used entry, nil when it is empty.
func (sh *Shard[K, E, P]) Head() *E { return sh.head }

// Tail returns the shard's least recently used entry, nil when it is empty.
func (sh *Shard[K, E, P]) Tail() *E { return sh.tail }

// Get returns the entry for key, whose slot hash is h, or nil.
func (sh *Shard[K, E, P]) Get(h uint64, key K) *E {
	if len(sh.buckets) == 0 {
		return nil
	}
	for e := sh.buckets[h&uint64(len(sh.buckets)-1)]; e != nil; e = P(e).node().hnext {
		if P(e).node().key == key {
			return e
		}
	}
	return nil
}

// Insert adds e under key, whose slot hash is h, as the shard's most recently
// used entry. The shard must not hold key already.
func (sh *Shard[K, E, P]) Insert(h uint64, key K, e *E) {
	P(e).node().key = key
	sh.pushFront(e)
	sh.n++
	sh.table.live.Add(1)
	if sh.n > len(sh.buckets) {
		sh.resize(max(2*len(sh.buckets), minBuckets))
		return
	}
	sh.chain(h, e)
}

// Remove drops e from the shard.
func (sh *Shard[K, E, P]) Remove(e *E) {
	n := P(e).node()
	b := &sh.buckets[sh.table.slot(n.key)&uint64(len(sh.buckets)-1)]
	for *b != e {
		b = &P(*b).node().hnext
	}
	*b, n.hnext = n.hnext, nil
	sh.unlink(n)
	sh.n--
	sh.table.live.Add(-1)
	switch {
	case sh.n == 0:
		sh.resize(0)
	case sh.n*shrinkRatio <= len(sh.buckets):
		sh.resize(len(sh.buckets) / 2)
	}
}

// chain puts e, whose slot hash is h, at the front of its bucket's chain.
func (sh *Shard[K, E, P]) chain(h uint64, e *E) {
	b := &sh.buckets[h&uint64(len(sh.buckets)-1)]
	P(e).node().hnext, *b = *b, e
}

// resize replaces the bucket array with one of size buckets (none at 0) and
// re-buckets the shard's entries into it, walking the LRU list from the tail
// so that each chain runs from its most recently used entry.
func (sh *Shard[K, E, P]) resize(size int) {
	sh.table.index.Add(arrayBytes(size) - arrayBytes(len(sh.buckets)))
	sh.buckets = nil
	if size == 0 {
		return
	}
	sh.buckets = make([]*E, size)
	for e := sh.tail; e != nil; e = P(e).node().prev {
		sh.chain(sh.table.slot(P(e).node().key), e)
	}
}

// Touch makes e the shard's most recently used entry.
func (sh *Shard[K, E, P]) Touch(e *E) {
	if sh.head != e {
		sh.unlink(P(e).node())
		sh.pushFront(e)
	}
}

func (sh *Shard[K, E, P]) pushFront(e *E) {
	n := P(e).node()
	n.prev, n.next = nil, sh.head
	if sh.head != nil {
		P(sh.head).node().prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *Shard[K, E, P]) unlink(n *Node[K, E]) {
	if n.prev != nil {
		P(n.prev).node().next = n.next
	} else {
		sh.head = n.next
	}
	if n.next != nil {
		P(n.next).node().prev = n.prev
	} else {
		sh.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
