// Package shardtest is what the memory tests of the client tables' users
// share. Only _test.go files import it.
package shardtest

import (
	"runtime"

	"botdetect/internal/shard"
)

// SettledHeap is the heap in use after a full collection, plus the bytes of
// the arena chunks ever handed out, which sit outside the heap: the arena
// counts them where it maps and unmaps its blocks, apart from any estimate.
// The collections repeat until no dropped table's cleanup unmaps blocks
// meanwhile — an earlier test's tables are dropped, and their blocks
// unmapped, at a collection of the runtime's choosing. Measure under
// GOMAXPROCS(1): a thread the runtime starts meanwhile puts its own 5.5 KB
// on the heap (runtime.allocm), none of it the tables'.
func SettledHeap() int64 {
	runtime.GC()
	for {
		_, touched := shard.ArenaBytes()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if _, now := shard.ArenaBytes(); now == touched {
			return int64(ms.HeapAlloc) + now
		}
	}
}
