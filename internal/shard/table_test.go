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

// entry is the smallest table user: a Node and nothing else. Its ID is the
// key's bytes.
type entry struct {
	Node[key]
}

// key is a test key as an entry stores it: its bytes, zero-padded, and no
// pointer.
type key [16]byte

func keyOf(s string) (k key) {
	copy(k[:], s)
	return k
}

// name is the key e was inserted under.
func (e *entry) name() string { return strings.TrimRight(string(e.id[:]), "\x00") }

// tableOp is one input to a one-shard table.
type tableOp struct {
	kind int // opGet, opTouch, opRemove, opEvictTail or opSweep
	key  string
}

const (
	opGet       = iota // get-or-insert: Get, and Insert on a miss
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

// tableRun is a one-shard table beside its reference: the held keys, and
// the keys in LRU order, most recent first.
type tableRun struct {
	t         *Table[string, key, entry, *entry]
	sh        *Shard[key, entry, *entry]
	keys      []string // every key a sequence can hold
	held      map[string]bool
	lru       []string
	removed   map[chainPos]int // removals by the entry's position in its chain
	resized   map[resize]int   // bucket array resizes by kind
	chunks    map[chunkEvent]int
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
	chunkAdded    chunkEvent = iota // an insert took a second or later chunk
	chunkSpare                      // a removal emptied a chunk and kept it
	chunkFreed                      // a removal gave back the last of two empty chunks
	chunkReused                     // an insert took a chunk the arena had handed out before
	blockReleased                   // the arena unmapped a block
)

// newTableRun returns an empty one-shard table, or one holding the keys k0
// to k<prefill-1> inserted in that order, and its reference. The table takes
// over the arena a, which holds one chunk a block, so that a handful of
// entries empty two blocks at once, and which recycle empties first: the
// runs of a walk share it, and no table's cleanup unmaps it.
func newTableRun(hook func(string) uint64, prefill int, a *arena) *tableRun {
	t := NewTable[string, key, entry](1, 8, HashString)
	t.HashHook = hook
	recycle(a)
	t.arena, t.shards[0].arena = a, a
	t.index.Add(blockHeapBytes * int64(len(a.list))) // the spare's bookkeeping
	r := &tableRun{t: t, sh: t.Shard(0), keys: []string{"a", "b", "c"}, held: map[string]bool{},
		removed: map[chainPos]int{}, resized: map[resize]int{}, chunks: map[chunkEvent]int{}}
	for i := range prefill {
		k := fmt.Sprintf("k%d", i)
		r.keys = append(r.keys, k)
		r.apply(tableOp{opGet, k})
	}
	clear(r.resized) // count the sequence's events only
	clear(r.chunks)
	return r
}

// newRunArena returns an arena for newTableRun: one chunk of entries a
// block.
func newRunArena() *arena {
	a := newArena(int(chunkBytes[entry]()))
	a.per = 1
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
		clear(b.used[:])
		for c := a.per; c < blockChunks; c++ {
			b.used[c/64] |= 1 << (c % 64)
		}
		b.touched, b.inUse, a.spare = 0, 0, b
	}
}

// bucket is the bucket key belongs in. Caller holds the lock.
func (r *tableRun) bucket(key string) int {
	return int(r.t.slot(key) & uint64(len(r.sh.buckets)-1))
}

// slot is the number of the slot e is the record of, 0 for none. Caller
// holds the lock.
func (r *tableRun) slot(e *entry) uint32 {
	for s := uint32(1); s <= uint32(r.sh.n); s++ {
		if r.sh.rec(s) == e {
			return s
		}
	}
	return 0
}

// position is where e sits in its index chain. Caller holds the lock.
func (r *tableRun) position(e *entry) chainPos {
	first := r.sh.buckets[r.bucket(e.name())] == r.slot(e)
	switch {
	case first && e.hnext == 0:
		return chainAlone
	case first:
		return chainHead
	case e.hnext == 0:
		return chainTail
	}
	return chainMiddle
}

// remove removes e, whose key is k, from the table and k from the reference,
// and returns what Remove returned. Remove must have moved the last record
// into e exactly when e was not it, said where from, and zeroed the last
// slot.
func (r *tableRun) remove(k string, e *entry) *entry {
	r.removed[r.position(e)]++
	last, chunks := r.sh.rec(uint32(r.sh.n)), len(r.sh.chunks)
	from := r.sh.Remove(e)
	if e == last && from != nil || e != last && (from != last || e.name() == k || !r.held[e.name()]) {
		panic(fmt.Sprintf("removing %s from slot %d of %d: Remove reports a move from %p (last slot %p), %s is in its slot",
			k, r.slot(e), r.sh.n+1, from, last, e.name()))
	}
	// An emptied shard gave its chunks back, and the arena may have unmapped
	// the last slot's: arenaZeroed checks that what it keeps is zero.
	if r.sh.n > 0 && *last != (entry{}) {
		panic(fmt.Sprintf("removing %s left %s in the last slot", k, last.name()))
	}
	if from != nil {
		r.moved++
	}
	switch n := r.sh.n; {
	case len(r.sh.chunks) < chunks && n > 0:
		r.chunks[chunkFreed]++
	case n > 0 && n%chunkLen == 0 && len(r.sh.chunks) > n/chunkLen:
		r.chunks[chunkSpare]++
	}
	delete(r.held, k)
	r.lru = slices.DeleteFunc(r.lru, func(have string) bool { return have == k })
	return from
}

// apply makes one input on the table and the reference.
func (r *tableRun) apply(op tableOp) {
	_, h := r.t.Locate(op.key)
	r.sh.Lock()
	defer r.sh.Unlock()
	before, chunks, blocks, touched := len(r.sh.buckets), len(r.sh.chunks), len(r.t.arena.list), arenaTouched(r.t.arena)
	defer func() {
		if len(r.sh.chunks) > chunks && arenaTouched(r.t.arena) == touched {
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
	e := r.sh.Get(h, keyOf(op.key))
	switch op.kind {
	case opGet:
		if e == nil {
			chunks := len(r.sh.chunks)
			if e = r.sh.Insert(h, keyOf(op.key)); e.name() != op.key || e.hash != uint32(h) {
				panic(fmt.Sprintf("Insert(%s) returned the record of %s", op.key, e.name()))
			}
			if len(r.sh.chunks) > max(chunks, 1) {
				r.chunks[chunkAdded]++
			}
			r.held[op.key] = true
			r.lru = append([]string{op.key}, r.lru...)
		}
	case opTouch:
		if e != nil {
			r.sh.Touch(e)
			r.lru = append([]string{op.key}, slices.DeleteFunc(r.lru, func(have string) bool { return have == op.key })...)
		}
	case opRemove:
		if e != nil {
			r.remove(op.key, e)
		}
	case opEvictTail:
		if tail := r.sh.Tail(); tail != nil {
			r.remove(tail.name(), tail)
		}
	case opSweep:
		// The walk an expiry sweep makes: it holds the next entry to visit
		// across each removal, and takes it as the removed one's slot when
		// the removal moved it there.
		want := slices.Clone(r.lru)
		slices.Reverse(want)
		var walked []string
		for e := r.sh.Tail(); e != nil; {
			prev := r.sh.Prev(e)
			if walked = append(walked, e.name()); len(walked) > len(want) {
				break
			}
			if e.name() != op.key {
				if from := r.remove(e.name(), e); from != nil && prev == from {
					prev = e
					r.walkMoved++
				}
			}
			e = prev
		}
		if !slices.Equal(walked, want) {
			panic(fmt.Sprintf("the sweep walked %v, the LRU list from the tail is %v", walked, want))
		}
	}
}

// check compares the table with the reference and with its own books: what
// every key looks up to, the LRU list walked from either end, the counts,
// the slots, which must hold each held entry exactly once, and the index
// chains, which must hold each held entry's slot exactly once under its own
// slot hash. It returns what broke, or "".
func (r *tableRun) check() string {
	r.sh.Lock()
	defer r.sh.Unlock()
	for _, k := range r.keys {
		_, h := r.t.Locate(k)
		if got := r.sh.Get(h, keyOf(k)); (got != nil) != r.held[k] || got != nil && got.name() != k {
			return fmt.Sprintf("Get(%s) = %v, held %v", k, got, r.held[k])
		}
	}
	if r.sh.Len() != len(r.lru) || r.t.Len() != len(r.lru) {
		return fmt.Sprintf("Len %d (table %d), reference %d", r.sh.Len(), r.t.Len(), len(r.lru))
	}
	var forward, backward []string
	var prev *entry
	for e := r.sh.Head(); e != nil; prev, e = e, r.sh.Next(e) {
		if r.sh.Prev(e) != prev {
			return fmt.Sprintf("%s's Prev is not the entry before it", e.name())
		}
		forward = append(forward, e.name())
	}
	if r.sh.Tail() != prev {
		return "Tail is not the last entry walked from Head"
	}
	for e := r.sh.Tail(); e != nil; e = r.sh.Prev(e) {
		backward = append(backward, e.name())
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
	for s := uint32(1); s <= uint32(r.sh.n); s++ {
		id := r.sh.rec(s).name()
		if inSlots[id] || !r.held[id] {
			return fmt.Sprintf("%s is in two slots, or not held", id)
		}
		inSlots[id] = true
	}
	if len(inSlots) != len(r.held) {
		return fmt.Sprintf("the slots hold %d entries, the reference %d", len(inSlots), len(r.held))
	}
	for s := uint32(r.sh.n) + 1; s <= uint32(chunkLen*len(r.sh.chunks)); s++ {
		if *r.sh.rec(s) != (entry{}) {
			return fmt.Sprintf("slot %d past the last holds %s", s, r.sh.rec(s).name())
		}
	}
	chained := map[*entry]bool{}
	for i, first := range r.sh.buckets {
		for s := first; s != 0; s = r.sh.rec(s).hnext {
			if int(s) > r.sh.n {
				return fmt.Sprintf("bucket %d's chain names slot %d of %d", i, s, r.sh.n)
			}
			e := r.sh.rec(s)
			if r.bucket(e.name()) != i || chained[e] || uint32(r.t.slot(e.name())) != e.hash {
				return fmt.Sprintf("%s is in the chain of bucket %d, twice, or under another hash", e.name(), i)
			}
			chained[e] = true
		}
	}
	if len(chained) != len(r.held) {
		return fmt.Sprintf("the chains hold %d entries, the reference %d", len(chained), len(r.held))
	}
	return ""
}

// indexBooks checks every shard's chunks and bucket array against its count,
// the arena against the shards' chunks, and the table's IndexBytes against
// what they take: a shard holds none while it is empty; else as many chunks
// as its entries fill, or one more, and a power-of-two bucket array no
// shorter than the count and under four times it (or the smallest array);
// the arena's blocks are in address order, with every chunk a shard holds
// in use and no other, none in use past the chunks handed out from the
// block's front, and at most one block with none in use, the spare; and
// IndexBytes is every chunk handed out from a mapped block, in use or free,
// each block's bookkeeping, and the heap the chunk directories and bucket
// arrays pin. It returns what
// broke, or "". It reads the shards without their locks: the table must
// have no other user.
func indexBooks(t *Table[string, key, entry, *entry]) string {
	var pinned int64
	a := t.arena
	held := make([]int, len(a.list)) // chunks the shards hold, by block
	for _, sh := range t.shards {
		n, size, need := sh.n, len(sh.buckets), (sh.n+chunkLen-1)/chunkLen
		if n == 0 && (size != 0 || cap(sh.chunks) != 0) ||
			n > 0 && (size&(size-1) != 0 || size < n || shrinkRatio*n <= size && size > minBuckets || len(sh.chunks) < need || len(sh.chunks) > need+1) ||
			slices.Contains(sh.chunks, nil) {
			return fmt.Sprintf("shard %d holds %d entries in %d chunks (directory of %d) and %d buckets", sh.i, n, len(sh.chunks), cap(sh.chunks), size)
		}
		for _, c := range sh.chunks {
			p := uintptr(unsafe.Pointer(c))
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
		pinned += dirBytes(cap(sh.chunks)) + bucketArrayBytes(size)
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
// keys hashed into one collision chain, once into distinct slots, and once
// into distinct slots after 14 other keys, so that the three keys fill a
// third chunk. After each input the table must agree with a reference (a set
// and an ordered slice) on every lookup, on the LRU order walked both ways
// and on its counts; the slots must hold each held entry exactly once and
// nothing past the last, the chain of the bucket its slot hash picks its
// slot exactly once, the chunks and the bucket array must fit the count,
// the arena's blocks the chunks and IndexBytes what they take, and every
// chunk the arena holds free must be zero; Remove must move the last record
// into the slot it frees and say where from, and the sweep, which holds its
// next entry across a removal, must visit every entry once. The arena puts
// each chunk in a block of its own. The one-chain walk must have removed
// entries from a chain's head, middle and tail; each walk must have grown,
// shrunk and released the arrays (three keys reach four buckets from one),
// moved a last record, moved the sweep's saved neighbour, and taken a chunk
// the arena had handed out before; the prefilled walk must have added a
// chunk past the eighth entry, kept an emptied chunk as the spare, given
// back the last of two empty ones and seen the arena unmap a block (a sweep
// that empties the shard empties two blocks). A table cannot be forked, so
// each sequence is replayed from a new one, whose blocks are unmapped when
// it is done; the first failure prints its sequence. Under the race detector the depth is 5, the
// least that shrinks the arrays (three inserts grow them to four, two
// removals halve them); the prefilled walk goes four inputs deep, enough to
// fill the third chunk and sweep it.
func TestTableEnumerated(t *testing.T) {
	depth := 6
	if raceEnabled {
		depth = 5
	}
	for _, mode := range []struct {
		name    string
		hook    func(string) uint64
		prefill int
		depth   int
	}{
		{"one-chain", func(string) uint64 { return 0 }, 0, depth},
		{"distinct-slots", HashString, 0, depth}, // distinct for a, b and c
		{"past-two-chunks", HashString, 2*chunkLen - 2, 4},
	} {
		t.Run(mode.name, func(t *testing.T) {
			removed, resized, chunks, moved, walkMoved := map[chainPos]int{}, map[resize]int{}, map[chunkEvent]int{}, 0, 0
			seq := make([]tableOp, 0, mode.depth)
			runs := newRunArena()
			defer runs.release()
			var walk func()
			walk = func() {
				if len(seq) == mode.depth {
					return
				}
				for _, op := range tableOps {
					run := newTableRun(mode.hook, mode.prefill, runs)
					for _, earlier := range seq {
						run.apply(earlier)
					}
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
			if mode.name == "one-chain" && (removed[chainHead] == 0 || removed[chainMiddle] == 0 || removed[chainTail] == 0) {
				t.Fatal("the walk never removed from a chain's head, middle and tail: it tests nothing")
			}
			if resized[resizeGrow] == 0 || resized[resizeShrink] == 0 || resized[resizeRelease] == 0 || moved == 0 || walkMoved == 0 || chunks[chunkReused] == 0 {
				t.Fatal("the walk never grew, shrank and released the arrays, never moved a last record, never moved the sweep's saved neighbour, or never reused a chunk: it tests nothing")
			}
			if mode.prefill > 0 && (chunks[chunkAdded] == 0 || chunks[chunkSpare] == 0 || chunks[chunkFreed] == 0 || chunks[blockReleased] == 0) {
				t.Fatal("the walk never added a chunk, kept a spare, gave one back or saw a block unmapped: it tests nothing")
			}
		})
	}
}

// TestTableLocatePlacement pins what shard selection is: the caller's FNV
// hash modulo the shard count, with a cap split by PerShardCap.
func TestTableLocatePlacement(t *testing.T) {
	tab := NewTable[string, key, entry](5, 20, HashString)
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
	dirSink    []*[chunkLen]entry
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
// insert and removal while 20,000 keys come and go in a seeded order, and,
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
	for n := 1; n <= 1<<16; n = cap(slices.Clone(make([]*[chunkLen]entry, n))) + 1 {
		lengths = append(lengths, n, cap(slices.Clone(make([]*[chunkLen]entry, n))))
	}
	for _, n := range lengths {
		if got := allocMeasured(func() { dirSink = make([]*[chunkLen]entry, 0, n) }); got != dirBytes(n) {
			t.Fatalf("a chunk directory of %d slots allocated %d B, dirBytes says %d", n, got, dirBytes(n))
		}
	}
	for size := 1; size <= 1<<16; size *= 2 {
		if got := allocMeasured(func() { bucketSink = bucketArray(size) }); got != bucketArrayBytes(size) {
			t.Fatalf("an array of %d buckets allocated %d B, bucketArrayBytes says %d", size, got, bucketArrayBytes(size))
		}
	}
	dirSink, bucketSink = nil, nil

	tab := NewTable[string, key, entry](4, 1<<20, HashString)
	r := rand.New(rand.NewPCG(40, 0))
	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.0.%d.%d", i/256, i%256)
	}
	held, fullest := map[string]bool{}, 0
	step := func(k string) {
		sh, h := tab.Locate(k)
		sh.Lock()
		if e := sh.Get(h, keyOf(k)); e != nil {
			sh.Remove(e)
			delete(held, k)
		} else {
			sh.Insert(h, keyOf(k))
			held[k] = true
		}
		fullest = max(fullest, cap(sh.chunks))
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
		if held[keys[i]] {
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
