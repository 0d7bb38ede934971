//go:build unix && !race

package shard

import "syscall"

// blocksOffHeap says that arena blocks are anonymous mappings, outside the
// Go heap.
const blocksOffHeap = true

// mapBlock maps size bytes of zeroed memory. Failing to is running out of
// memory, which a heap allocation would be too.
func mapBlock(size int) []byte {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("shard: mapping an arena block: " + err.Error())
	}
	return mem
}

// unmapBlock returns a block mapBlock mapped to the system.
func unmapBlock(mem []byte) {
	if err := syscall.Munmap(mem); err != nil {
		panic("shard: unmapping an arena block: " + err.Error())
	}
}
