package shard

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// entry is the smallest table user: a Node and nothing else.
type entry struct {
	Node[string, entry]
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
	t       *Table[string, entry, *entry]
	sh      *Shard[string, entry, *entry]
	held    map[string]*entry
	lru     []string
	removed map[chainPos]int // removals by the entry's position in its chain
}

type chainPos int

const (
	chainHead chainPos = iota
	chainMiddle
	chainTail
	chainAlone
)

func newTableRun(hook func(string) uint64) *tableRun {
	t := NewTable[string, entry](1, 8, HashString)
	t.HashHook = hook
	return &tableRun{t: t, sh: t.Shard(0), held: map[string]*entry{}, removed: map[chainPos]int{}}
}

// position is where e sits in its index chain. Caller holds the lock.
func (r *tableRun) position(e *entry) chainPos {
	first := r.sh.index[r.t.slot(e.key)]
	switch {
	case first == e && e.hnext == nil:
		return chainAlone
	case first == e:
		return chainHead
	case e.hnext == nil:
		return chainTail
	}
	return chainMiddle
}

// remove removes e from the table and k from the reference.
func (r *tableRun) remove(k string, e *entry) {
	r.removed[r.position(e)]++
	r.sh.Remove(e)
	delete(r.held, k)
	r.lru = slices.DeleteFunc(r.lru, func(have string) bool { return have == k })
	if e.prev != nil || e.next != nil || e.hnext != nil {
		panic(fmt.Sprintf("removed entry %s kept its links", k))
	}
}

// apply makes one input on the table and the reference.
func (r *tableRun) apply(op tableOp) {
	_, h := r.t.Locate(op.key)
	r.sh.Lock()
	defer r.sh.Unlock()
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
			r.remove(tail.Key(), tail)
		}
	}
}

// check compares the table with the reference and with its own books: what
// every key looks up to, the LRU list walked from either end, the counts,
// and the index chains, which must hold each held entry exactly once under
// its own slot hash. It returns what broke, or "".
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
	for e := r.sh.Head(); e != nil; prev, e = e, e.Next() {
		if e.Prev() != prev {
			return fmt.Sprintf("%s's Prev is not the entry before it", e.Key())
		}
		forward = append(forward, e.Key())
	}
	if r.sh.Tail() != prev {
		return "Tail is not the last entry walked from Head"
	}
	for e := r.sh.Tail(); e != nil; e = e.Prev() {
		backward = append(backward, e.Key())
	}
	slices.Reverse(backward)
	if !slices.Equal(forward, r.lru) || !slices.Equal(backward, r.lru) {
		return fmt.Sprintf("LRU from the head %v, from the tail (reversed) %v, reference %v", forward, backward, r.lru)
	}
	chained := map[*entry]bool{}
	for h, first := range r.sh.index {
		if first == nil {
			return fmt.Sprintf("slot %d holds an empty chain", h)
		}
		for e := first; e != nil; e = e.hnext {
			if r.t.slot(e.key) != h || chained[e] || r.held[e.key] != e {
				return fmt.Sprintf("%s is in the chain of slot %d, twice, or not held", e.key, h)
			}
			chained[e] = true
		}
	}
	if len(chained) != len(r.held) {
		return fmt.Sprintf("the chains hold %d entries, the reference %d", len(chained), len(r.held))
	}
	return ""
}

// TestTableEnumerated is the exhaustive small-scope check of the table every
// sharded client store is built on: every sequence of get-or-insert, touch,
// remove and evict-tail over three keys on one shard, to depth 6, once with
// all keys hashed into one collision chain and once into distinct slots.
// After each input the table must agree with a reference (a map and an
// ordered slice) on every lookup, on the LRU order walked both ways and on
// its counts, and its index chains must hold exactly the held entries; a
// removed entry keeps no links. The one-chain walk must have removed entries
// from a chain's head, middle and tail. A table cannot be forked, so each
// sequence is replayed from an empty one; the first failure prints its
// sequence. Under the race detector the depth is 4.
func TestTableEnumerated(t *testing.T) {
	depth := 6
	if raceEnabled {
		depth = 4
	}
	for _, mode := range []struct {
		name string
		hook func(string) uint64
	}{
		{"one-chain", func(string) uint64 { return 0 }},
		{"distinct-slots", HashString}, // distinct for a, b and c
	} {
		t.Run(mode.name, func(t *testing.T) {
			removed := map[chainPos]int{}
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
					walk()
					seq = seq[:len(seq)-1]
				}
			}
			walk()
			t.Logf("removals by chain position (head, middle, tail, alone): %d %d %d %d",
				removed[chainHead], removed[chainMiddle], removed[chainTail], removed[chainAlone])
			if mode.name == "one-chain" && (removed[chainHead] == 0 || removed[chainMiddle] == 0 || removed[chainTail] == 0) {
				t.Fatal("the walk never removed from a chain's head, middle and tail: it tests nothing")
			}
		})
	}
}

// TestTableLocatePlacement pins what shard selection is: the caller's FNV
// hash modulo the shard count, with a cap split by PerShardCap.
func TestTableLocatePlacement(t *testing.T) {
	tab := NewTable[string, entry](5, 20, HashString)
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

// TestIndexSlotStructBudgets re-derives SlotBytes from the index's layout: a
// full-size swiss-map table of 1,024 slots is 128 groups of 8 control bytes
// and 8 slots of a uint64 slot hash and an entry pointer, in the allocator's
// size class for that many bytes; right after a split at 7/8 load each entry
// holds 16/7 slots.
func TestIndexSlotStructBudgets(t *testing.T) {
	const groups, perGroup = 128, 8
	slot := int(unsafe.Sizeof(uint64(0)) + unsafe.Sizeof((*entry)(nil)))
	class := cap(append([]byte(nil), make([]byte, groups*(perGroup+perGroup*slot))...))
	worst := float64(class) / (groups * perGroup) * 16 / 7
	if want := int(math.Ceil(worst)); SlotBytes != want {
		t.Fatalf("SlotBytes = %d, the layout gives %.1f B per entry right after a split (a %d-byte table)", SlotBytes, worst, class)
	}
}
