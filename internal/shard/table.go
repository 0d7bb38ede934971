package shard

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// SlotBytes is an entry's share of its shard's index at the index's
// emptiest, charged per entry by every table user's MemoryEstimate. The index
// is a swiss map from an 8-byte slot hash to an entry pointer: a full-size
// table is 1,024 slots in 128 groups of 8 control bytes + 8 × 16 B = 17,408 B,
// which the allocator puts in its 18,432-byte class, 18 B a slot. A table
// splits at 7/8 load, so right after a split each entry holds 16/7 slots =
// 41.1 B, the most the map costs per entry (the least is 20.6 B).
const SlotBytes = 42

// Node is the part of a table entry the table owns: the entry's key and its
// links. An entry type embeds it, so an entry is one allocation and the table
// keeps no record of its own. prev and next chain the shard's intrusive LRU
// list (prev = towards the head, the most recently used); hnext chains the
// entries whose keys share a slot hash.
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
// maphash under the table's random seed picks the slot in that shard's index.
// The slot hash must be seeded: FNV is an iterated 64-bit hash, so many keys
// with one FNV value are cheap to build and would line up in one chain. A
// slot maps to the first entry of its chain and holds no copy of the key.
// Each shard has its own lock, intrusive LRU list, live count and cap; what
// to evict when a shard is over its cap is the user's call.
type Table[K comparable, E any, P Entry[K, E]] struct {
	shards []*Shard[K, E, P]
	fnv    func(K) uint64
	seed   maphash.Seed
	live   atomic.Int64

	// HashHook, when set, replaces the seeded slot hash. Only tests set it, to
	// force keys into collision chains.
	HashHook func(K) uint64
}

// Shard is one independently locked partition of a table. Every method but
// Lock and Unlock requires the caller to hold the shard's lock.
type Shard[K comparable, E any, P Entry[K, E]] struct {
	sync.Mutex
	table      *Table[K, E, P]
	index      map[uint64]*E
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
		t.shards[i] = &Shard[K, E, P]{table: t, index: make(map[uint64]*E), max: per, i: i}
	}
	return t
}

// Locate returns key's shard and its slot hash in the shard's index. Both
// hashes are computed before the shard lock is taken.
func (t *Table[K, E, P]) Locate(key K) (*Shard[K, E, P], uint64) {
	return t.shards[t.fnv(key)&uint64(len(t.shards)-1)], t.slot(key)
}

// slot is key's hash in its shard's index.
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
	for e := sh.index[h]; e != nil; e = P(e).node().hnext {
		if P(e).node().key == key {
			return e
		}
	}
	return nil
}

// Insert adds e under key, whose slot hash is h, as the shard's most recently
// used entry. The shard must not hold key already.
func (sh *Shard[K, E, P]) Insert(h uint64, key K, e *E) {
	n := P(e).node()
	n.key, n.hnext = key, sh.index[h]
	sh.index[h] = e
	sh.pushFront(e)
	sh.n++
	sh.table.live.Add(1)
}

// Remove drops e from the shard.
func (sh *Shard[K, E, P]) Remove(e *E) {
	n := P(e).node()
	h := sh.table.slot(n.key)
	if first := sh.index[h]; first == e {
		if n.hnext == nil {
			delete(sh.index, h)
		} else {
			sh.index[h] = n.hnext
		}
	} else {
		for p := first; p != nil; {
			pn := P(p).node()
			if pn.hnext == e {
				pn.hnext = n.hnext
				break
			}
			p = pn.hnext
		}
	}
	n.hnext = nil
	sh.unlink(n)
	sh.n--
	sh.table.live.Add(-1)
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
