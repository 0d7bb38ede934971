package shard

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// TestArenaDrainsBlocks floods an eight-shard table to 200,000 entries and
// removes all but 2,000 of them in a seeded order: the arena must then map
// no more than the blocks the remaining chunks fill plus one a shard. A
// shard keeps its first chunks, and the arena handed those out first, from
// its lowest blocks; each emptied block is unmapped but one spare.
func TestArenaDrainsBlocks(t *testing.T) {
	const flood, keep, shards = 200000, 2000, 8
	tab := NewTable[string, key, entry](shards, flood, HashString)
	keys := make([]string, flood)
	for i := range keys {
		keys[i] = fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
	}
	for _, k := range keys {
		sh, h := tab.Locate(k)
		sh.Lock()
		sh.Insert(h, keyOf(k))
		sh.Unlock()
	}
	a := tab.arena
	peak := len(a.list)
	for _, i := range rand.New(rand.NewPCG(44, 0)).Perm(flood)[keep:] {
		sh, h := tab.Locate(keys[i])
		sh.Lock()
		sh.Remove(sh.Get(h, keyOf(keys[i])))
		sh.Unlock()
	}
	if why := indexBooks(tab); why != "" {
		t.Fatal(why)
	}
	chunks := 0
	for _, sh := range tab.shards {
		chunks += len(sh.chunks)
	}
	need := (chunks + a.per - 1) / a.per
	t.Logf("%d entries in %d blocks of %d B; %d left in %d chunks, in %d blocks (%d B)",
		flood, peak, a.blockBytes(), tab.Len(), chunks, len(a.list), len(a.list)*a.blockBytes())
	if tab.Len() != keep || len(a.list) > need+shards {
		t.Fatalf("%d entries in %d chunks keep %d blocks mapped, over the %d they fill and one a shard", tab.Len(), chunks, len(a.list), need)
	}
}

// TestArenaTakesLowestFreeChunk frees chunks out of order from three full
// blocks of four: the arena must hand them back lowest address first, and
// map a fourth block only once none is free.
func TestArenaTakesLowestFreeChunk(t *testing.T) {
	a := newArena(int(chunkBytes[record192]()))
	a.per = 4
	defer a.release()
	var chunks []unsafe.Pointer
	for range 3 * a.per {
		p, _ := a.alloc()
		chunks = append(chunks, p)
	}
	slices.SortFunc(chunks, func(p, q unsafe.Pointer) int { return cmp.Compare(uintptr(p), uintptr(q)) })
	for _, i := range []int{9, 2, 5} {
		a.free(chunks[i])
	}
	for _, i := range []int{2, 5, 9} {
		if p, _ := a.alloc(); p != chunks[i] {
			t.Fatalf("the arena handed out %p, the lowest free chunk is %p", p, chunks[i])
		}
	}
	if _, charged := a.alloc(); len(a.list) != 4 || charged != blockHeapBytes+chunkBytes[record192]() {
		t.Fatalf("with every chunk in use, an allocation left %d blocks and charged %d B", len(a.list), charged)
	}
}

// TestDroppedTableUnmapsBlocks drops a table that holds entries in several
// blocks: once the collector finds it unreachable, its cleanup must unmap
// every block.
func TestDroppedTableUnmapsBlocks(t *testing.T) {
	tab := NewTable[string, key, entry](4, 1<<20, HashString)
	for i := range 20000 {
		k := fmt.Sprintf("10.0.%d.%d", i>>8, i&0xff)
		sh, h := tab.Locate(k)
		sh.Lock()
		sh.Insert(h, keyOf(k))
		sh.Unlock()
	}
	a := tab.arena
	blocks := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.list)
	}
	if blocks() < 2 {
		t.Fatalf("20,000 entries fill %d blocks, want several", blocks())
	}
	tab = nil
	deadline := time.Now().Add(10 * time.Second)
	for blocks() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("a dropped table's arena still maps %d blocks", blocks())
		}
		runtime.GC()
		time.Sleep(time.Millisecond) // the cleanup runs on a goroutine of its own
	}
}

// TestNewTableRefusesPointers pins that a table refuses an entry type that
// holds a pointer, in its ID or beside it: the collector would not see it
// in the arena's blocks.
func TestNewTableRefusesPointers(t *testing.T) {
	type (
		stringID     struct{ Node[string] }
		pointerField struct {
			Node[uint64]
			p *int
		}
		sliceInArray struct {
			Node[[2]uint32]
			windows [2][]byte
		}
	)
	for name, newTable := range map[string]func(){
		"string ID":      func() { NewTable[string, string, stringID](1, 8, HashString) },
		"pointer field":  func() { NewTable[string, uint64, pointerField](1, 8, HashString) },
		"slice in array": func() { NewTable[string, [2]uint32, sliceInArray](1, 8, HashString) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable accepted an entry with a %s", name)
				}
			}()
			newTable()
		}()
	}
	NewTable[string, uint64, record192](1, 8, HashString) // no pointer: no panic
}

// TestArenaBookkeeping measures what a block costs the heap beside its own
// memory: the arena's record of it, its place in the list and, on unix, its
// entry in the syscall package's table of mappings. The arena charges
// blockHeapBytes a block for it, which must cover it at 1,000 blocks.
func TestArenaBookkeeping(t *testing.T) {
	if !blocksOffHeap {
		t.Skip("the blocks are on the heap here")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const blocks = 1000
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	a := newArena(int(chunkBytes[record192]()))
	a.per = 1
	defer a.release()
	before := heap()
	for range blocks {
		a.alloc()
	}
	per := (heap() - before) / blocks
	t.Logf("%d blocks: %d B of heap a block", len(a.list), per)
	if len(a.list) != blocks || per > blockHeapBytes {
		t.Fatalf("%d blocks cost the heap %d B each, over the %d B the arena charges", len(a.list), per, blockHeapBytes)
	}
}
