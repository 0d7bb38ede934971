package shard

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"
)

// entry is a table user's full record: a Node and a payload, three times
// the size of its newcomer record, newEntry, a Node and nothing else, as a
// session's full record is three times its newcomer's. Their ID is the
// key's bytes.
type (
	entry struct {
		Node[key]
		payload [64]byte
	}
	newEntry struct {
		Node[key]
	}
	testTable = Table[string, key, entry, newEntry, *entry, *newEntry]
	testShard = Shard[key, entry, newEntry, *entry, *newEntry]
)

// newTestTable is NewTable for the test's records.
func newTestTable(shards, capacity int) *testTable {
	return NewTable[string, key, entry, newEntry](shards, capacity, HashString)
}

// key is a test key as an entry stores it: its bytes, zero-padded, and no
// pointer.
type key [16]byte

func keyOf(s string) (k key) {
	copy(k[:], s)
	return k
}

// name is the key the entry whose node is n was inserted under.
func name(n *Node[key]) string { return strings.TrimRight(string(n.id[:]), "\x00") }

// tableOp is one input to a one-shard table.
type tableOp struct {
	kind int // opGet, opTouch, opRemove, opEvictTail or opSweep
	key  string
}

const (
	opGet       = iota // get-or-insert: Get, Insert on a miss and Promote a newcomer's hit
	opTouch            // Touch, if the key is held
	opRemove           // Remove, if the key is held
	opEvictTail        // Remove the LRU tail, if any
	opSweep            // remove every entry but key's in one walk from the tail
)

func (o tableOp) String() string {
	return [...]string{"get", "touch", "remove", "evict-tail", "sweep-all-but"}[o.kind] + "(" + o.key + ")"
}

// tableOps is every input over the keys a, b and c, and one sweep that keeps
// b.
var tableOps = func() []tableOp {
	var ops []tableOp
	for _, kind := range []int{opGet, opTouch, opRemove} {
		for _, k := range []string{"a", "b", "c"} {
			ops = append(ops, tableOp{kind, k})
		}
	}
	return append(ops, tableOp{kind: opEvictTail}, tableOp{opSweep, "b"})
}()

// tableRun is a one-shard table beside its reference: the held keys, which
// of them are held in full records, and the keys in LRU order, most recent
// first.
type tableRun struct {
	t         *testTable
	sh        *testShard
	keys      []string        // every key a sequence can hold
	bornFull  map[string]bool // keys inserted into a full record, not as a newcomer
	held      map[string]bool
	full      map[string]bool // held keys whose record is a full one
	lru       []string
	removed   map[chainPos]int // removals by the entry's position in its chain
	resized   map[resize]int   // bucket array resizes by kind
	chunks    map[chunkEvent]int
	promoted  map[promotion]int
	moved     int // removals that moved the last record into the freed slot
	walkMoved int // sweep removals that moved the walk's saved neighbour
}

type resize int

const (
	resizeGrow    resize = iota // the bucket array doubled
	resizeShrink                // the bucket array halved
	resizeRelease               // the arrays and chunks were freed
)

type chainPos int

const (
	chainHead chainPos = iota
	chainMiddle
	chainTail
	chainAlone
)

type chunkEvent int

const (
	chunkAdded    chunkEvent = iota // an insert took a second or later chunk of its size
	chunkSpare                      // a removal emptied a chunk and kept it
	chunkFreed                      // a removal gave back an emptied chunk: the last of two empty full ones, or a newcomer one
	chunkReused                     // an insert took a chunk the arena had handed out before
	blockReleased                   // the arena unmapped a block
)

type promotion int

const (
	promoteAny       promotion = iota // a newcomer was promoted
	promoteMoved                      // the promotion moved the last newcomer into the freed slot
	promoteGrew                       // the promotion took a chunk, growing the full records' directory
	promoteFreed                      // the promotion gave back a newcomer chunk
	promoteStraggler                  // a newcomer promoted because the rest fit in free full slots
)

// newTableRun returns an empty one-shard table, or one holding the keys k0
// to k<prefill-1> inserted in that order, into full records when full is
// set and through InsertNewcomer else, and its reference. The keys a and b
// go through InsertNewcomer, c into a full record. The table takes over the arena a, which holds two
// chunks a block, so that a handful of entries of both sizes share the
// first block and a prefilled table's sweep empties two, and which recycle
// empties first: the runs of a walk share it, and no table's cleanup unmaps
// it.
func newTableRun(hook func(string) uint64, prefill int, full bool, a *arena) *tableRun {
	t := newTestTable(1, 8)
	t.HashHook = hook
	recycle(a)
	t.arena, t.shards[0].arena = a, a
	t.index.Add(blockHeapBytes * int64(len(a.list))) // the spare's bookkeeping
	r := &tableRun{t: t, sh: t.Shard(0), keys: []string{"a", "b", "c"}, bornFull: map[string]bool{"c": true},
		held: map[string]bool{}, full: map[string]bool{}, removed: map[chainPos]int{}, resized: map[resize]int{},
		chunks: map[chunkEvent]int{}, promoted: map[promotion]int{}}
	for i := range prefill {
		k := fmt.Sprintf("k%d", i)
		r.keys = append(r.keys, k)
		r.bornFull[k] = full
		r.apply(tableOp{opGet, k})
	}
	clear(r.resized) // count the sequence's events only
	clear(r.chunks)
	return r
}

// newRunArena returns an arena for newTableRun: two chunks a block.
func newRunArena() *arena {
	a := newArena(int(chunkBytes[entry]()))
	a.per = 2
	return a
}

// recycle empties a finished run's arena for the next run's table: it unmaps
// every block but the lowest and leaves that one zeroed, with no chunk ever
// handed out, as its spare. The next table starts from the state a new
// arena reaches once its first block emptied, without the two system calls
// a new arena's first block costs, which would make up most of the
// enumeration's time.
func recycle(a *arena) {
	for len(a.list) > 1 {
		a.unmapBlock(a.list[len(a.list)-1])
	}
	a.low, a.spare = 0, nil
	if len(a.list) == 1 {
		b := a.list[0]
		clear(b.mem[:int(b.touched)*a.stride])
		if blocksOffHeap {
			offHeap.touched.Add(-int64(b.touched) * int64(a.stride))
		}
		b.reserve(a.per)
		b.touched, b.inUse, a.spare = 0, 0, b
	}
}

// bucket is the bucket key belongs in. Caller holds the lock.
func (r *tableRun) bucket(key string) int {
	return int(r.t.slot(key) & uint64(len(r.sh.buckets)-1))
}

// slot is the number of the slot n is the node of, 0 for none. Caller holds
// the lock.
func (r *tableRun) slot(n *Node[key]) uint32 {
	for s := uint32(1); s <= uint32(r.sh.full.n); s++ {
		if &r.sh.rec(s).Node == n {
			return s
		}
	}
	for s := uint32(1) | newcomerSlot; s <= uint32(r.sh.newcomers.n)|newcomerSlot; s++ {
		if &r.sh.newRec(s).Node == n {
			return s
		}
	}
	return 0
}

// slots is every slot that holds an entry, full ones first. Caller holds the
// lock.
func (r *tableRun) slots() []uint32 {
	var all []uint32
	for s := uint32(1); s <= uint32(r.sh.full.n); s++ {
		all = append(all, s)
	}
	for s := uint32(1); s <= uint32(r.sh.newcomers.n); s++ {
		all = append(all, s|newcomerSlot)
	}
	return all
}

// zero reports whether the record in slot s, held or not, is all zero.
// Caller holds the lock.
func (r *tableRun) zero(s uint32) bool {
	if s&newcomerSlot != 0 {
		return *r.sh.newRec(s) == newEntry{}
	}
	return *r.sh.rec(s) == entry{}
}

// inChunk reports whether slot s is in a chunk the shard holds. Caller holds
// the lock.
func (r *tableRun) inChunk(s uint32) bool {
	sl := r.sh.slots(s)
	return int(s&^newcomerSlot) <= sl.per*len(sl.chunks)
}

// last is the last slot of the size of slot s. Caller holds the lock.
func (r *tableRun) last(s uint32) uint32 {
	return uint32(r.sh.slots(s).n) | s&newcomerSlot
}

// position is where n sits in its index chain. Caller holds the lock.
func (r *tableRun) position(n *Node[key]) chainPos {
	first := r.sh.buckets[r.bucket(name(n))] == r.slot(n)
	switch {
	case first && n.hnext == 0:
		return chainAlone
	case first:
		return chainHead
	case n.hnext == 0:
		return chainTail
	}
	return chainMiddle
}

// remove removes n, whose key is k, from the table and k from the reference,
// and returns what Remove returned. Remove must have moved the last record
// of n's size into n's slot exactly when n's was not it, said where from,
// and zeroed that last slot.
func (r *tableRun) remove(k string, n *Node[key]) *Node[key] {
	r.removed[r.position(n)]++
	s := r.slot(n)
	sl := r.sh.slots(s)
	last, chunks := r.sh.at(r.last(s)), len(sl.chunks)
	lastSlot := r.last(s)
	from := r.sh.Remove(n)
	if n == last && from != nil || n != last && (from != last || name(n) == k || !r.held[name(n)]) {
		panic(fmt.Sprintf("removing %s from slot %#x of %d: Remove reports a move from %p (last slot %p), %s is in its slot",
			k, s, sl.n+1, from, last, name(n)))
	}
	// An emptied shard or size gave its chunks back, and the arena may have
	// unmapped the last slot's: arenaZeroed checks that what it keeps is
	// zero.
	if r.inChunk(lastSlot) && !r.zero(lastSlot) {
		panic(fmt.Sprintf("removing %s left %s in the last slot", k, name(last)))
	}
	if from != nil {
		r.moved++
	}
	switch n := sl.n; {
	case len(sl.chunks) < chunks && r.sh.Len() > 0:
		r.chunks[chunkFreed]++
	case r.sh.Len() > 0 && n%sl.per == 0 && len(sl.chunks) > n/sl.per:
		r.chunks[chunkSpare]++
	}
	delete(r.held, k)
	delete(r.full, k)
	r.lru = slices.DeleteFunc(r.lru, func(have string) bool { return have == k })
	return from
}

// promote promotes n, a newcomer's node whose key is k, and marks k full in
// the reference; its place in the LRU list does not move (check walks it).
// Promote must have put n's entry into the next full slot, with a zero
// payload, moved the last newcomer into n's slot exactly when n's was not
// it, and zeroed that last slot.
func (r *tableRun) promote(k string, n *Node[key]) {
	s := r.slot(n)
	lastSlot := r.last(s)
	moving := name(r.sh.at(lastSlot))
	fullChunks, newChunks := len(r.sh.full.chunks), len(r.sh.newcomers.chunks)
	e := r.sh.Promote(r.sh.newRec(s))
	if name(&e.Node) != k || e.hash != uint32(r.t.slot(k)) || e.payload != [64]byte{} || r.slot(&e.Node) != uint32(r.sh.full.n) {
		panic(fmt.Sprintf("promoting %s gave a full record in slot %d of %d holding %s", k, r.slot(&e.Node), r.sh.full.n, name(&e.Node)))
	}
	if s != lastSlot && name(r.sh.at(s)) != moving {
		panic(fmt.Sprintf("promoting %s left %s in its slot, not the last newcomer %s", k, name(r.sh.at(s)), moving))
	}
	if r.inChunk(lastSlot) && !r.zero(lastSlot) {
		panic(fmt.Sprintf("promoting %s left %s in the last newcomer slot", k, name(r.sh.at(lastSlot))))
	}
	r.promoted[promoteAny]++
	if s != lastSlot {
		r.promoted[promoteMoved]++
	}
	if len(r.sh.full.chunks) > fullChunks {
		r.promoted[promoteGrew]++
	}
	r.full[k] = true
	// The tracker then promotes the stragglers: the last newcomer while all
	// of them fit in the free full slots.
	free := func() int { return r.sh.full.per*len(r.sh.full.chunks) - r.sh.full.n }
	for nc := r.sh.Straggler(); nc != nil; nc = r.sh.Straggler() {
		if last := r.sh.newRec(r.last(newcomerSlot)); nc != last || r.sh.newcomers.n > free() {
			panic(fmt.Sprintf("Straggler returned %s, the last newcomer is %s; %d newcomers, %d full slots free", name(&nc.Node), name(&last.Node), r.sh.newcomers.n, free()))
		}
		k := name(&nc.Node)
		if e := r.sh.Promote(nc); name(&e.Node) != k {
			panic(fmt.Sprintf("promoting the straggler %s gave the full record of %s", k, name(&e.Node)))
		}
		r.full[k] = true
		r.promoted[promoteStraggler]++
	}
	if n := r.sh.newcomers.n; n > 0 && n <= free() {
		panic(fmt.Sprintf("Straggler returned none while %d newcomers fit in %d free full slots", n, free()))
	}
	if len(r.sh.newcomers.chunks) < newChunks {
		r.promoted[promoteFreed]++
	}
}

// apply makes one input on the table and the reference.
func (r *tableRun) apply(op tableOp) {
	_, h := r.t.Locate(op.key)
	r.sh.Lock()
	defer r.sh.Unlock()
	before, chunks, blocks, touched := len(r.sh.buckets), len(r.sh.full.chunks)+len(r.sh.newcomers.chunks), len(r.t.arena.list), arenaTouched(r.t.arena)
	defer func() {
		if len(r.sh.full.chunks)+len(r.sh.newcomers.chunks) > chunks && arenaTouched(r.t.arena) == touched {
			r.chunks[chunkReused]++
		}
		if len(r.t.arena.list) < blocks {
			r.chunks[blockReleased]++
		}
		switch after := len(r.sh.buckets); {
		case after == 0 && before > 0:
			r.resized[resizeRelease]++
		case after > before && before > 0:
			r.resized[resizeGrow]++
		case after < before:
			r.resized[resizeShrink]++
		}
	}()
	n := r.sh.Get(h, keyOf(op.key))
	switch op.kind {
	case opGet:
		switch {
		case n == nil:
			// A newcomer takes a full slot when one is free.
			full := r.bornFull[op.key] || r.sh.full.n < r.sh.full.per*len(r.sh.full.chunks)
			sl := &r.sh.newcomers
			if full {
				sl = &r.sh.full
			}
			had := len(sl.chunks)
			if r.bornFull[op.key] {
				n = &r.sh.Insert(h, keyOf(op.key)).Node
			} else if e, nc := r.sh.InsertNewcomer(h, keyOf(op.key)); (e != nil) != full || (e == nil) == (nc == nil) {
				panic(fmt.Sprintf("InsertNewcomer(%s) returned a full record %v and a newcomer %v, with a full slot free: %v", op.key, e != nil, nc != nil, full))
			} else if e != nil {
				n = &e.Node
			} else {
				n = &nc.Node
			}
			if full {
				r.full[op.key] = true
			}
			if name(n) != op.key || n.hash != uint32(h) {
				panic(fmt.Sprintf("Insert(%s) returned the record of %s", op.key, name(n)))
			}
			if len(sl.chunks) > max(had, 1) {
				r.chunks[chunkAdded]++
			}
			r.held[op.key] = true
			r.lru = append([]string{op.key}, r.lru...)
		case !r.full[op.key]:
			r.promote(op.key, n)
		}
	case opTouch:
		if n != nil {
			r.sh.Touch(n)
			r.lru = append([]string{op.key}, slices.DeleteFunc(r.lru, func(have string) bool { return have == op.key })...)
		}
	case opRemove:
		if n != nil {
			r.remove(op.key, n)
		}
	case opEvictTail:
		if tail := r.sh.Tail(); tail != nil {
			r.remove(name(tail), tail)
		}
	case opSweep:
		// The walk an expiry sweep makes: it holds the next entry to visit
		// across each removal, and takes it as the removed one's slot when
		// the removal moved it there.
		want := slices.Clone(r.lru)
		slices.Reverse(want)
		var walked []string
		for n := r.sh.Tail(); n != nil; {
			prev := r.sh.Prev(n)
			if walked = append(walked, name(n)); len(walked) > len(want) {
				break
			}
			if name(n) != op.key {
				if from := r.remove(name(n), n); from != nil && prev == from {
					prev = n
					r.walkMoved++
				}
			}
			n = prev
		}
		if !slices.Equal(walked, want) {
			panic(fmt.Sprintf("the sweep walked %v, the LRU list from the tail is %v", walked, want))
		}
	}
}

// check compares the table with the reference and with its own books: what
// every key looks up to and the size of its record, the LRU list walked from
// either end, the counts, the slots of each size, which must hold each held
// entry exactly once, and the index chains, which must hold each held
// entry's slot exactly once under its own slot hash. It returns what broke,
// or "".
func (r *tableRun) check() string {
	r.sh.Lock()
	defer r.sh.Unlock()
	for _, k := range r.keys {
		_, h := r.t.Locate(k)
		got := r.sh.Get(h, keyOf(k))
		if (got != nil) != r.held[k] || got != nil && name(got) != k {
			return fmt.Sprintf("Get(%s) = %v, held %v", k, got, r.held[k])
		}
		if full, _ := r.sh.Record(got); got != nil && (full != nil) != r.full[k] {
			return fmt.Sprintf("%s is in a full record: %v, the reference says %v", k, full != nil, r.full[k])
		}
	}
	if r.sh.Len() != len(r.lru) || r.t.Len() != len(r.lru) || r.sh.newcomers.n != len(r.held)-len(r.full) {
		return fmt.Sprintf("Len %d (table %d, newcomers %d), reference %d (%d full)", r.sh.Len(), r.t.Len(), r.sh.newcomers.n, len(r.lru), len(r.full))
	}
	var forward, backward []string
	var prev *Node[key]
	for n := r.sh.Head(); n != nil; prev, n = n, r.sh.Next(n) {
		if r.sh.Prev(n) != prev {
			return fmt.Sprintf("%s's Prev is not the entry before it", name(n))
		}
		forward = append(forward, name(n))
	}
	if r.sh.Tail() != prev {
		return "Tail is not the last entry walked from Head"
	}
	for n := r.sh.Tail(); n != nil; n = r.sh.Prev(n) {
		backward = append(backward, name(n))
	}
	slices.Reverse(backward)
	if !slices.Equal(forward, r.lru) || !slices.Equal(backward, r.lru) {
		return fmt.Sprintf("LRU from the head %v, from the tail (reversed) %v, reference %v", forward, backward, r.lru)
	}
	if why := indexBooks(r.t); why != "" {
		return why
	}
	if why := arenaZeroed(r.t.arena); why != "" {
		return why
	}
	inSlots := map[string]bool{}
	for _, s := range r.slots() {
		id := name(r.sh.at(s))
		if inSlots[id] || !r.held[id] || (s&newcomerSlot == 0) != r.full[id] {
			return fmt.Sprintf("%s is in two slots, not held, or in a slot of the wrong size", id)
		}
		inSlots[id] = true
	}
	if len(inSlots) != len(r.held) {
		return fmt.Sprintf("the slots hold %d entries, the reference %d", len(inSlots), len(r.held))
	}
	for _, sl := range []*slots{&r.sh.full, &r.sh.newcomers} {
		kind := uint32(0)
		if sl == &r.sh.newcomers {
			kind = newcomerSlot
		}
		for s := uint32(sl.n) + 1; s <= uint32(sl.per*len(sl.chunks)); s++ {
			if !r.zero(s | kind) {
				return fmt.Sprintf("slot %#x past the last holds %s", s|kind, name(r.sh.at(s|kind)))
			}
		}
	}
	chained := map[*Node[key]]bool{}
	for i, first := range r.sh.buckets {
		for s := first; s != 0; s = r.sh.at(s).hnext {
			if s&^newcomerSlot > uint32(r.sh.slots(s).n) {
				return fmt.Sprintf("bucket %d's chain names slot %#x, past the last of its size", i, s)
			}
			n := r.sh.at(s)
			if r.bucket(name(n)) != i || chained[n] || uint32(r.t.slot(name(n))) != n.hash {
				return fmt.Sprintf("%s is in the chain of bucket %d, twice, or under another hash", name(n), i)
			}
			chained[n] = true
		}
	}
	if len(chained) != len(r.held) {
		return fmt.Sprintf("the chains hold %d entries, the reference %d", len(chained), len(r.held))
	}
	return ""
}

// indexBooks checks every shard's chunks and bucket array against its
// counts, the arena against the shards' chunks, and the table's IndexBytes
// against what they take: a shard holds none while it is empty; else, of
// each record size, as many chunks as its entries fill, or one more but
// none for a size with no entry, and a
// power-of-two bucket array no shorter than the count and under four times
// it (or the smallest array); the arena's blocks are in address order, with
// every chunk a shard holds in use and no other, none in use past the
// chunks handed out from the block's front, and at most one block with none
// in use, the spare; and IndexBytes is every chunk handed out from a mapped
// block, in use or free, each block's bookkeeping, and the heap the chunk
// directories and bucket arrays pin. It returns what broke, or "". It reads
// the shards without their locks: the table must have no other user.
func indexBooks(t *testTable) string {
	var pinned int64
	a := t.arena
	held := make([]int, len(a.list)) // chunks the shards hold, by block
	for _, sh := range t.shards {
		n, size := sh.Len(), len(sh.buckets)
		if n == 0 && (size != 0 || cap(sh.full.chunks) != 0 || cap(sh.newcomers.chunks) != 0) ||
			n > 0 && (size&(size-1) != 0 || size < n || shrinkRatio*n <= size && size > minBuckets) {
			return fmt.Sprintf("shard %d holds %d entries in %d+%d chunks and %d buckets", sh.i, n, len(sh.full.chunks), len(sh.newcomers.chunks), size)
		}
		for _, sl := range []*slots{&sh.full, &sh.newcomers} {
			if need := (sl.n + sl.per - 1) / sl.per; len(sl.chunks) < need || len(sl.chunks) > need+1 || need == 0 && len(sl.chunks) > 0 || slices.Contains(sl.chunks, nil) {
				return fmt.Sprintf("shard %d holds %d records of one size in %d chunks (directory of %d)", sh.i, sl.n, len(sl.chunks), cap(sl.chunks))
			}
			for _, c := range sl.chunks {
				p := uintptr(c)
				j := sort.Search(len(a.list), func(j int) bool { return a.list[j].base+uintptr(len(a.list[j].mem)) > p })
				if j == len(a.list) || p < a.list[j].base || (p-a.list[j].base)%uintptr(a.stride) != 0 {
					return fmt.Sprintf("shard %d holds a chunk at %#x, in no block's chunk", sh.i, p)
				}
				b, i := a.list[j], int(p-a.list[j].base)/a.stride
				if b.used[i/64]&(1<<(i%64)) == 0 || i >= int(b.touched) {
					return fmt.Sprintf("shard %d holds chunk %d of block %d, which is free or past the %d handed out", sh.i, i, j, b.touched)
				}
				held[j]++
			}
			pinned += dirBytes(cap(sl.chunks))
		}
		pinned += bucketArrayBytes(size)
	}
	empty := 0
	for j, b := range a.list {
		inUse := -(blockChunks - a.per) // the bits past per are set
		for _, w := range b.used {
			inUse += bits.OnesCount64(w)
		}
		if j > 0 && a.list[j-1].base >= b.base || inUse != held[j] || int(b.inUse) != inUse || int(b.touched) > a.per {
			return fmt.Sprintf("block %d (in address order %v) has %d chunks in use, counts %d, the shards hold %d of its %d handed out",
				j, j == 0 || a.list[j-1].base < b.base, inUse, b.inUse, held[j], b.touched)
		}
		if inUse == 0 {
			empty++
		}
		pinned += int64(b.touched)*chunkBytes[entry]() + blockHeapBytes
	}
	if empty > 1 || (empty == 0) != (a.spare == nil) || a.spare != nil && a.spare.inUse != 0 {
		return fmt.Sprintf("%d blocks are empty; a spare is kept: %v", empty, a.spare != nil)
	}
	if t.IndexBytes() != pinned {
		return fmt.Sprintf("IndexBytes %d, the arena's chunks and the shards' chunk directories and bucket arrays take %d B", t.IndexBytes(), pinned)
	}
	return ""
}

// arenaTouched is the number of chunks a's blocks have handed out.
func arenaTouched(a *arena) (n int) {
	for _, b := range a.list {
		n += int(b.touched)
	}
	return n
}

// arenaZeroed checks that every chunk a holds free is zero, the state an
// allocation hands it out in, and returns what broke, or "".
func arenaZeroed(a *arena) string {
	for i, b := range a.list {
		for c := range int(b.touched) {
			if b.used[c/64]&(1<<(c%64)) != 0 {
				continue
			}
			for _, x := range b.mem[c*a.stride : (c+1)*a.stride] {
				if x != 0 {
					return fmt.Sprintf("free chunk %d of block %d is not zero", c, i)
				}
			}
		}
	}
	return ""
}

// TestTableEnumerated is the exhaustive small-scope check of the table every
// sharded client store is built on: every sequence of get-or-insert, touch,
// remove and evict-tail over three keys, and a sweep that removes all but
// one key in one walk from the tail, on one shard, to depth 6, once with all
// keys hashed into one collision chain, once into distinct slots, once into
// distinct slots after 15 other keys in full records, so that two inserts
// fill a third full chunk, and once after 47 other keys held as
// newcomers, so that two inserts fill a third newcomer chunk. The keys a and
// b are inserted through InsertNewcomer, which must take a full slot when
// one is free and a newcomer slot else, c into a full record, and a get of
// a newcomer promotes it, which leaves its place in the LRU list and the
// reference unchanged. After each input the table must agree with a
// reference (a set, the keys held in full records and an ordered slice) on
// every lookup and the size of its record, on the LRU order walked both ways
// and on its counts; the slots of each size must hold each held entry
// exactly once and nothing past the last, the chain of the bucket its slot
// hash picks its slot exactly once, the chunks and the bucket array must fit
// the counts, the arena's blocks the chunks and IndexBytes what they take,
// and every chunk the arena holds free must be zero; Remove must move the
// last record of its size into the slot it frees and say where from,
// Promote must hand back a full record under the promoted key and move the
// last newcomer into the newcomer slot it frees, and the sweep, which holds
// its next entry across a removal, must visit every entry once. The arena
// puts two chunks in a block. The one-chain walk must have
// removed entries from a chain's head, middle and tail; each walk must have
// grown, shrunk and released the arrays (three keys reach four buckets from
// one), moved a last record, moved the sweep's saved neighbour, and taken a
// chunk the arena had handed out before; the unfilled walks must have
// promoted a newcomer, moved the last newcomer into its slot and promoted
// into a new full chunk (a promotion leaves the count, and so the bucket
// array, as it is, so a chunk is the resize it can meet), promoted the
// stragglers Straggler names, every newcomer while they all fit in the free
// full slots, as the tracker does, and given a newcomer chunk back; each
// prefilled walk must have added a chunk past a size's full ones, given
// back an emptied one (the last of two empty full chunks) and seen the arena
// unmap a block (a sweep that empties the shard empties two blocks), and
// the full one must have kept an emptied full chunk as the spare. A table
// cannot be forked, so each sequence is replayed from a new one, whose
// blocks are unmapped when it is done; the first failure prints its
// sequence. Under the race detector the depth is 5, the least that shrinks
// the arrays (three inserts grow them to four, two removals halve them);
// the prefilled walks go four inputs deep, enough to fill the third chunk
// and sweep it.
func TestTableEnumerated(t *testing.T) {
	depth := 6
	if raceEnabled {
		depth = 5
	}
	newPer := int(chunkBytes[entry]() / int64(unsafe.Sizeof(newEntry{})))
	for _, mode := range []struct {
		name        string
		hook        func(string) uint64
		prefill     int
		prefillFull bool
		depth       int
	}{
		{"one-chain", func(string) uint64 { return 0 }, 0, false, depth},
		{"distinct-slots", HashString, 0, false, depth}, // distinct for a, b and c
		{"past-two-chunks", HashString, 2*chunkLen - 1, true, 4},
		{"newcomers-past-two-chunks", HashString, 2*newPer - 1, false, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			removed, resized, chunks, promoted, moved, walkMoved := map[chainPos]int{}, map[resize]int{}, map[chunkEvent]int{}, map[promotion]int{}, 0, 0
			seq := make([]tableOp, 0, mode.depth)
			runs := newRunArena()
			defer runs.release()
			var walk func()
			walk = func() {
				if len(seq) == mode.depth {
					return
				}
				for _, op := range tableOps {
					run := newTableRun(mode.hook, mode.prefill, mode.prefillFull, runs)
					for _, earlier := range seq {
						run.apply(earlier)
					}
					clear(run.promoted) // count each promotion once, in the sequence that ends with it
					seq = append(seq, op)
					why := func() (why string) {
						defer func() {
							if p := recover(); p != nil {
								why = fmt.Sprint(p)
							}
						}()
						run.apply(op)
						return run.check()
					}()
					if why != "" {
						names := make([]string, len(seq))
						for i, o := range seq {
							names[i] = o.String()
						}
						t.Fatalf("[%s]\n%s", strings.Join(names, ", "), why)
					}
					for pos, n := range run.removed {
						removed[pos] += n
					}
					for kind, n := range run.resized {
						resized[kind] += n
					}
					for kind, n := range run.chunks {
						chunks[kind] += n
					}
					for kind, n := range run.promoted {
						promoted[kind] += n
					}
					moved += run.moved
					walkMoved += run.walkMoved
					walk()
					seq = seq[:len(seq)-1]
				}
			}
			walk()
			t.Logf("removals by chain position (head, middle, tail, alone): %d %d %d %d",
				removed[chainHead], removed[chainMiddle], removed[chainTail], removed[chainAlone])
			t.Logf("bucket array resizes (grow, shrink, release): %d %d %d; last records moved: %d, of them the sweep's saved neighbour: %d",
				resized[resizeGrow], resized[resizeShrink], resized[resizeRelease], moved, walkMoved)
			t.Logf("chunks added, kept spare, given back, reused: %d %d %d %d; blocks unmapped: %d",
				chunks[chunkAdded], chunks[chunkSpare], chunks[chunkFreed], chunks[chunkReused], chunks[blockReleased])
			t.Logf("promotions: %d, moving the last newcomer %d, taking a full chunk %d, giving back a newcomer chunk %d; stragglers promoted: %d",
				promoted[promoteAny], promoted[promoteMoved], promoted[promoteGrew], promoted[promoteFreed], promoted[promoteStraggler])
			if mode.name == "one-chain" && (removed[chainHead] == 0 || removed[chainMiddle] == 0 || removed[chainTail] == 0) {
				t.Fatal("the walk never removed from a chain's head, middle and tail: it tests nothing")
			}
			if resized[resizeGrow] == 0 || resized[resizeShrink] == 0 || resized[resizeRelease] == 0 || moved == 0 || walkMoved == 0 || chunks[chunkReused] == 0 {
				t.Fatal("the walk never grew, shrank and released the arrays, never moved a last record, never moved the sweep's saved neighbour, or never reused a chunk: it tests nothing")
			}
			if mode.prefill == 0 && (promoted[promoteAny] == 0 || promoted[promoteMoved] == 0 || promoted[promoteGrew] == 0 || promoted[promoteStraggler] == 0 || promoted[promoteFreed] == 0) {
				t.Fatal("the walk never promoted a newcomer, never moved the last newcomer into a promoted one's slot, never promoted into a new full chunk, never promoted a straggler or never gave a newcomer chunk back: it tests nothing")
			}
			if mode.prefill > 0 && (chunks[chunkAdded] == 0 || chunks[chunkSpare] == 0 && mode.prefillFull || chunks[chunkFreed] == 0 || chunks[blockReleased] == 0) {
				t.Fatal("the walk never added a chunk, kept a full spare, gave one back or saw a block unmapped: it tests nothing")
			}
		})
	}
}

// TestTableLocatePlacement pins what shard selection is: the caller's FNV
// hash modulo the shard count, with a cap split by PerShardCap.
func TestTableLocatePlacement(t *testing.T) {
	tab := newTestTable(5, 20)
	if _, max := tab.ShardFill(3); tab.Shards() != 8 || max != 3 {
		t.Fatalf("5 shards for 20 entries: %d shards of cap %d, want 8 of 3", tab.Shards(), max)
	}
	for _, k := range []string{"10.0.0.1", "10.0.0.2", "192.168.7.7", ""} {
		if sh, _ := tab.Locate(k); sh != tab.Shard(int(HashString(k)%8)) {
			t.Fatalf("%q is placed in shard %d, FNV says %d", k, sh.Index(), HashString(k)%8)
		}
	}
	tab.SetShardCap(3, 11)
	if _, max := tab.ShardFill(3); max != 11 || tab.Shard(3).Cap() != 11 {
		t.Fatal("SetShardCap did not set the cap")
	}
}

// record192 and record64 stand for a session and a keystore client: records
// of their sizes with no pointer.
type (
	record192 struct {
		Node[uint64]
		_ [192 - 24]byte
	}
	record64 struct {
		Node[uint64]
		_ [64 - 24]byte
	}
)

// Sinks keep a measured array on the heap.
var (
	dirSink    []unsafe.Pointer
	bucketSink []uint32
)

// chunkLayout hands out every chunk of a new arena's first block and checks
// them against chunkBytes: each chunk's charge (the first one's with the
// block's bookkeeping), the distance from one chunk to the next and the room
// they take in the block, which must hold as many as arenaBlockBytes does,
// or blockChunks; a record of fills bytes, unless 0, must fill its chunk's
// chunkLen slots with no padding. It returns what broke, or "".
func chunkLayout[E any](fills int64) string {
	a := newArena(int(chunkBytes[E]()))
	defer a.release()
	name, want := reflect.TypeFor[E]().Name(), chunkBytes[E]()
	if fills != 0 && want != chunkLen*fills {
		return fmt.Sprintf("a chunk of %s takes %d B, not %d records of %d B", name, want, chunkLen, fills)
	}
	var prev uintptr
	for i := range a.per {
		p, charged := a.alloc()
		if i == 0 {
			charged -= blockHeapBytes
		}
		if charged != want || i > 0 && int64(uintptr(p)-prev) != want || len(a.list) != 1 {
			return fmt.Sprintf("chunk %d of %s was charged %d B, %d B past the one before, in %d blocks; chunkBytes says %d",
				i, name, charged, uintptr(p)-prev, len(a.list), want)
		}
		prev = uintptr(p)
	}
	if b := a.list[0]; a.blockBytes() > arenaBlockBytes || a.per < blockChunks && int64(a.per+1)*want <= arenaBlockBytes || prev+uintptr(want) > b.base+uintptr(len(b.mem)) {
		return fmt.Sprintf("a block of %d B holds %d chunks of %s, %d B each", a.blockBytes(), a.per, name, want)
	}
	return ""
}

// allocMeasured is the heap alloc allocates, the least of three runs:
// whatever the runtime allocates meanwhile only adds.
func allocMeasured(alloc func()) int64 {
	var before, after runtime.MemStats
	got := int64(math.MaxInt64)
	for range 3 {
		runtime.ReadMemStats(&before)
		alloc()
		runtime.ReadMemStats(&after)
		got = min(got, int64(after.TotalAlloc-before.TotalAlloc))
	}
	return got
}

// TestIndexBytesMatchesBuckets holds IndexBytes to the arena's chunks and
// the chunk directories and bucket arrays of a four-shard table after every
// insert, promotion and removal while 20,000 keys come and go in a seeded
// order (each born a newcomer, promoted by its second step and removed by
// its third), and,
// once the table is empty again, to the chunks of the one block the arena
// keeps as its spare; at its fullest a shard must have held a chunk
// directory past 512 B, where it carries an allocation header. What they
// take, chunkBytes, dirBytes and bucketArrayBytes, is measured first:
// chunkBytes against an arena's layout, for the test's entries and for
// pointer-free records of a session's 192 and a keystore client's 64 bytes,
// which fill 1,536 and 512 B exactly; against the allocator, a chunk
// directory of the fewest and the most slots each size class or page count
// holds, to 2^16 slots (append and slices.Clone give it the most; past 512 B
// and up to 32 KiB it carries a header), and bucket arrays from 1 to 2^16,
// which hold no header.
func TestIndexBytesMatchesBuckets(t *testing.T) {
	for _, why := range []string{chunkLayout[entry](0), chunkLayout[record192](192), chunkLayout[record64](64)} {
		if why != "" {
			t.Fatal(why)
		}
	}
	// Append grows a directory, and a halving clones it, to the most
	// slots its allocation holds: one length per size class or page count.
	lengths := []int{}
	for n := 1; n <= 1<<16; n = cap(slices.Clone(make([]unsafe.Pointer, n))) + 1 {
		lengths = append(lengths, n, cap(slices.Clone(make([]unsafe.Pointer, n))))
	}
	for _, n := range lengths {
		if got := allocMeasured(func() { dirSink = make([]unsafe.Pointer, 0, n) }); got != dirBytes(n) {
			t.Fatalf("a chunk directory of %d slots allocated %d B, dirBytes says %d", n, got, dirBytes(n))
		}
	}
	for size := 1; size <= 1<<16; size *= 2 {
		if got := allocMeasured(func() { bucketSink = bucketArray(size) }); got != bucketArrayBytes(size) {
			t.Fatalf("an array of %d buckets allocated %d B, bucketArrayBytes says %d", size, got, bucketArrayBytes(size))
		}
	}
	dirSink, bucketSink = nil, nil

	tab := newTestTable(4, 1<<20)
	r := rand.New(rand.NewPCG(40, 0))
	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.0.%d.%d", i/256, i%256)
	}
	held, fullest := map[string]bool{}, 0
	step := func(k string) {
		sh, h := tab.Locate(k)
		sh.Lock()
		switch n := sh.Get(h, keyOf(k)); {
		case n == nil:
			sh.InsertNewcomer(h, keyOf(k))
			held[k] = true
		default:
			if _, nc := sh.Record(n); nc != nil {
				sh.Promote(nc)
			} else {
				sh.Remove(n)
				delete(held, k)
			}
		}
		fullest = max(fullest, cap(sh.full.chunks), cap(sh.newcomers.chunks))
		sh.Unlock()
		if why := indexBooks(tab); why != "" {
			t.Fatalf("at %d entries: %s", len(held), why)
		}
	}
	for _, k := range keys {
		step(k)
	}
	for range len(keys) {
		step(keys[r.IntN(len(keys))])
	}
	for _, i := range r.Perm(len(keys)) {
		for held[keys[i]] {
			step(keys[i])
		}
	}
	if spare := tab.arena.spare; tab.Len() != 0 || len(tab.arena.list) != 1 || tab.IndexBytes() != int64(spare.touched)*chunkBytes[entry]()+blockHeapBytes {
		t.Fatalf("an empty table holds %d entries, %d blocks and %d B of index", tab.Len(), len(tab.arena.list), tab.IndexBytes())
	}
	if slotBytes*int64(fullest) <= 512 {
		t.Fatalf("the largest chunk directory was %d slots: the walk never reached the header's size classes", fullest)
	}
}
