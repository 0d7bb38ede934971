package shard

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// entry is the smallest table user: a Node and nothing else. Its ID is the
// key itself.
type entry struct {
	Node[string]
}

// tableOp is one input to a one-shard table.
type tableOp struct {
	kind int // opGet, opTouch, opRemove or opEvictTail
	key  string
}

const (
	opGet       = iota // get-or-insert: Get, and Insert on a miss
	opTouch            // Touch, if the key is held
	opRemove           // Remove, if the key is held
	opEvictTail        // Remove the LRU tail, if any
)

func (o tableOp) String() string {
	return [...]string{"get", "touch", "remove", "evict-tail"}[o.kind] + "(" + o.key + ")"
}

// tableOps is every input over the keys a, b and c.
var tableOps = func() []tableOp {
	var ops []tableOp
	for _, kind := range []int{opGet, opTouch, opRemove} {
		for _, k := range []string{"a", "b", "c"} {
			ops = append(ops, tableOp{kind, k})
		}
	}
	return append(ops, tableOp{kind: opEvictTail})
}()

// tableRun is a one-shard table beside its reference: the held entries by
// key, and the keys in LRU order, most recent first.
type tableRun struct {
	t       *Table[string, string, entry, *entry]
	sh      *Shard[string, entry, *entry]
	held    map[string]*entry
	lru     []string
	removed map[chainPos]int // removals by the entry's position in its chain
	resized map[resize]int   // directory and bucket array resizes by kind
	moved   int              // removals that moved the last entry into the freed slot
}

type resize int

const (
	resizeGrow    resize = iota // the arrays doubled
	resizeShrink                // the arrays halved
	resizeRelease               // the arrays were freed
)

type chainPos int

const (
	chainHead chainPos = iota
	chainMiddle
	chainTail
	chainAlone
)

func newTableRun(hook func(string) uint64) *tableRun {
	t := NewTable[string, string, entry](1, 8, HashString)
	t.HashHook = hook
	return &tableRun{t: t, sh: t.Shard(0), held: map[string]*entry{}, removed: map[chainPos]int{}, resized: map[resize]int{}}
}

// bucket is the bucket key belongs in. Caller holds the lock.
func (r *tableRun) bucket(key string) int {
	return int(r.t.slot(key) & uint64(len(r.sh.buckets)-1))
}

// slot is e's slot number: one more than its position in the directory.
// Caller holds the lock.
func (r *tableRun) slot(e *entry) uint32 {
	return uint32(slices.Index(r.sh.dir, e) + 1)
}

// position is where e sits in its index chain. Caller holds the lock.
func (r *tableRun) position(e *entry) chainPos {
	first := r.sh.buckets[r.bucket(e.id)] == r.slot(e)
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

// remove removes e from the table and k from the reference.
func (r *tableRun) remove(k string, e *entry) {
	r.removed[r.position(e)]++
	if r.slot(e) != uint32(len(r.sh.dir)) {
		r.moved++
	}
	r.sh.Remove(e)
	delete(r.held, k)
	r.lru = slices.DeleteFunc(r.lru, func(have string) bool { return have == k })
	if e.prev != 0 || e.next != 0 || e.hnext != 0 {
		panic(fmt.Sprintf("removed entry %s kept its links", k))
	}
}

// apply makes one input on the table and the reference.
func (r *tableRun) apply(op tableOp) {
	_, h := r.t.Locate(op.key)
	r.sh.Lock()
	defer r.sh.Unlock()
	before := len(r.sh.buckets)
	defer func() {
		switch after := len(r.sh.buckets); {
		case after == 0 && before > 0:
			r.resized[resizeRelease]++
		case after > before && before > 0:
			r.resized[resizeGrow]++
		case after < before:
			r.resized[resizeShrink]++
		}
	}()
	e := r.sh.Get(h, op.key)
	switch op.kind {
	case opGet:
		if e == nil {
			e = new(entry)
			r.sh.Insert(h, op.key, e)
			r.held[op.key] = e
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
			r.remove(tail.ID(), tail)
		}
	}
}

// check compares the table with the reference and with its own books: what
// every key looks up to, the LRU list walked from either end, the counts,
// the directory, which must hold each held entry exactly once, and the index
// chains, which must hold each held entry's slot exactly once under its own
// slot hash. It returns what broke, or "".
func (r *tableRun) check() string {
	r.sh.Lock()
	defer r.sh.Unlock()
	for _, k := range []string{"a", "b", "c"} {
		_, h := r.t.Locate(k)
		if got, want := r.sh.Get(h, k), r.held[k]; got != want {
			return fmt.Sprintf("Get(%s) = %p, reference %p", k, got, want)
		}
	}
	if r.sh.Len() != len(r.lru) || r.t.Len() != len(r.lru) {
		return fmt.Sprintf("Len %d (table %d), reference %d", r.sh.Len(), r.t.Len(), len(r.lru))
	}
	var forward, backward []string
	var prev *entry
	for e := r.sh.Head(); e != nil; prev, e = e, r.sh.Next(e) {
		if r.sh.Prev(e) != prev {
			return fmt.Sprintf("%s's Prev is not the entry before it", e.ID())
		}
		forward = append(forward, e.ID())
	}
	if r.sh.Tail() != prev {
		return "Tail is not the last entry walked from Head"
	}
	for e := r.sh.Tail(); e != nil; e = r.sh.Prev(e) {
		backward = append(backward, e.ID())
	}
	slices.Reverse(backward)
	if !slices.Equal(forward, r.lru) || !slices.Equal(backward, r.lru) {
		return fmt.Sprintf("LRU from the head %v, from the tail (reversed) %v, reference %v", forward, backward, r.lru)
	}
	if why := indexBooks(r.t); why != "" {
		return why
	}
	inDir := map[*entry]bool{}
	for _, e := range r.sh.dir {
		if inDir[e] || r.held[e.id] != e {
			return fmt.Sprintf("%s is in the directory twice, or not held", e.id)
		}
		inDir[e] = true
	}
	if len(inDir) != len(r.held) {
		return fmt.Sprintf("the directory holds %d entries, the reference %d", len(inDir), len(r.held))
	}
	chained := map[*entry]bool{}
	for i, first := range r.sh.buckets {
		for s := first; s != 0; s = r.sh.dir[s-1].hnext {
			if int(s) > len(r.sh.dir) {
				return fmt.Sprintf("bucket %d's chain names slot %d of %d", i, s, len(r.sh.dir))
			}
			e := r.sh.dir[s-1]
			if r.bucket(e.id) != i || chained[e] || uint32(r.t.slot(e.id)) != e.hash {
				return fmt.Sprintf("%s is in the chain of bucket %d, twice, or under another hash", e.id, i)
			}
			chained[e] = true
		}
	}
	if len(chained) != len(r.held) {
		return fmt.Sprintf("the chains hold %d entries, the reference %d", len(chained), len(r.held))
	}
	return ""
}

// indexBooks checks every shard's directory and bucket array against its
// count and the table's IndexBytes against the arrays: none while a shard is
// empty, else as many slots as buckets, a power of two no shorter than the
// count and under four times it (or the smallest array), and IndexBytes is
// what the directories and the bucket arrays pin. It returns what broke, or
// "". It reads the shards without their locks: the table must have no other
// user.
func indexBooks(t *Table[string, string, entry, *entry]) string {
	var pinned int64
	for _, sh := range t.shards {
		n, size := len(sh.dir), len(sh.buckets)
		if n == 0 && size != 0 || n > 0 && (size&(size-1) != 0 || size < n || shrinkRatio*n <= size && size > minBuckets) || cap(sh.dir) != size {
			return fmt.Sprintf("shard %d holds %d entries in a directory of %d slots and %d buckets", sh.i, n, cap(sh.dir), size)
		}
		if size > 0 {
			pinned += dirBytes(cap(sh.dir)) + bucketArrayBytes(size)
		}
	}
	if t.IndexBytes() != pinned {
		return fmt.Sprintf("IndexBytes %d, the shards' directories and bucket arrays pin %d B", t.IndexBytes(), pinned)
	}
	return ""
}

// TestTableEnumerated is the exhaustive small-scope check of the table every
// sharded client store is built on: every sequence of get-or-insert, touch,
// remove and evict-tail over three keys on one shard, to depth 6, once with
// all keys hashed into one collision chain and once into distinct slots.
// After each input the table must agree with a reference (a map and an
// ordered slice) on every lookup, on the LRU order walked both ways and on
// its counts; the directory must hold each held entry exactly once and the
// chain of the bucket its slot hash picks its slot exactly once, the
// directory and the bucket array must fit the count and IndexBytes the two
// arrays; a removed entry keeps no links. The one-chain walk must have
// removed entries from a chain's head, middle and tail, and each walk must
// have grown, shrunk and released the arrays (three keys reach four buckets
// from one) and reused a freed slot for the directory's last entry. A table
// cannot be forked, so each sequence is replayed from an empty one; the
// first failure prints its sequence. Under the race detector the depth is 5,
// the least that shrinks the arrays (three inserts grow them to four, two
// removals halve them).
func TestTableEnumerated(t *testing.T) {
	depth := 6
	if raceEnabled {
		depth = 5
	}
	for _, mode := range []struct {
		name string
		hook func(string) uint64
	}{
		{"one-chain", func(string) uint64 { return 0 }},
		{"distinct-slots", HashString}, // distinct for a, b and c
	} {
		t.Run(mode.name, func(t *testing.T) {
			removed, resized, moved := map[chainPos]int{}, map[resize]int{}, 0
			seq := make([]tableOp, 0, depth)
			var walk func()
			walk = func() {
				if len(seq) == depth {
					return
				}
				for _, op := range tableOps {
					run := newTableRun(mode.hook)
					for _, earlier := range seq {
						run.apply(earlier)
					}
					seq = append(seq, op)
					run.apply(op)
					if why := run.check(); why != "" {
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
					moved += run.moved
					walk()
					seq = seq[:len(seq)-1]
				}
			}
			walk()
			t.Logf("removals by chain position (head, middle, tail, alone): %d %d %d %d",
				removed[chainHead], removed[chainMiddle], removed[chainTail], removed[chainAlone])
			t.Logf("directory and bucket array resizes (grow, shrink, release): %d %d %d; freed slots reused: %d",
				resized[resizeGrow], resized[resizeShrink], resized[resizeRelease], moved)
			if mode.name == "one-chain" && (removed[chainHead] == 0 || removed[chainMiddle] == 0 || removed[chainTail] == 0) {
				t.Fatal("the walk never removed from a chain's head, middle and tail: it tests nothing")
			}
			if resized[resizeGrow] == 0 || resized[resizeShrink] == 0 || resized[resizeRelease] == 0 || moved == 0 {
				t.Fatal("the walk never grew, shrank and released the arrays, or never reused a freed slot: it tests nothing")
			}
		})
	}
}

// TestTableLocatePlacement pins what shard selection is: the caller's FNV
// hash modulo the shard count, with a cap split by PerShardCap.
func TestTableLocatePlacement(t *testing.T) {
	tab := NewTable[string, string, entry](5, 20, HashString)
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

// dirSink and bucketSink keep a measured array on the heap.
var (
	dirSink    []*entry
	bucketSink []uint32
)

// TestIndexBytesMatchesBuckets holds IndexBytes to the directories and bucket
// arrays of a four-shard table after every insert and removal while 20,000
// keys come and go in a seeded order, and to 0 once the table is empty
// again; at its fullest a shard must have held a directory past the
// allocator's large-object threshold (4,096 slots of 8 B, 32 KiB). What the
// arrays pin, dirBytes and bucketArrayBytes, is measured against the
// allocator first, from 1 to 2^16 slots and buckets, as the least of three
// allocations: whatever the runtime allocates meanwhile only adds. A
// directory of pointers between 512 B and 32 KiB carries an allocation
// header; a bucket array holds none and never does.
func TestIndexBytesMatchesBuckets(t *testing.T) {
	var before, after runtime.MemStats
	measure := func(alloc func()) int64 {
		got := int64(math.MaxInt64)
		for range 3 {
			runtime.ReadMemStats(&before)
			alloc()
			runtime.ReadMemStats(&after)
			got = min(got, int64(after.TotalAlloc-before.TotalAlloc))
		}
		return got
	}
	for size := 1; size <= 1<<16; size *= 2 {
		if got := measure(func() { dirSink = make([]*entry, 0, size) }); got != dirBytes(size) {
			t.Fatalf("a directory of %d slots allocated %d B, dirBytes says %d", size, got, dirBytes(size))
		}
		if got := measure(func() { bucketSink = bucketArray(size) }); got != bucketArrayBytes(size) {
			t.Fatalf("an array of %d buckets allocated %d B, bucketArrayBytes says %d", size, got, bucketArrayBytes(size))
		}
	}
	dirSink, bucketSink = nil, nil

	tab := NewTable[string, string, entry](4, 1<<20, HashString)
	r := rand.New(rand.NewPCG(40, 0))
	keys := make([]string, 20000)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.0.%d.%d", i/256, i%256)
	}
	held, fullest := map[string]bool{}, 0
	step := func(k string) {
		sh, h := tab.Locate(k)
		sh.Lock()
		if e := sh.Get(h, k); e != nil {
			sh.Remove(e)
			delete(held, k)
		} else {
			sh.Insert(h, k, new(entry))
			held[k] = true
		}
		fullest = max(fullest, cap(sh.dir))
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
	if tab.Len() != 0 || tab.IndexBytes() != 0 {
		t.Fatalf("an empty table holds %d entries and %d B of index", tab.Len(), tab.IndexBytes())
	}
	if dirBytes(fullest) < 32<<10 {
		t.Fatalf("the largest directory was %d slots: the walk never left the small size classes", fullest)
	}
}
