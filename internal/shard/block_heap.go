//go:build !unix || race

package shard

// blocksOffHeap says that arena blocks are heap arrays: the race detector
// sees every record in one, and platforms without mmap have them.
const blocksOffHeap = false

// mapBlock allocates size bytes of zeroed memory on the heap.
func mapBlock(size int) []byte { return make([]byte, size) }

// unmapBlock leaves a block to the garbage collector, which frees it once no
// chunk directory points into it either.
func unmapBlock([]byte) {}
