package shard

import "unsafe"

// Spill is a shard's side store for the variable-size parts of its entries
// that outgrew the room their record keeps for them inline. A record that
// spills keeps a uint32 index into the store and its part's capacity (and
// length, or a way to read it) instead, so records stay pointer-free and a
// spilled part costs the garbage collector one 8-byte word, the pointer to
// its array. Freed indexes are reused; a store whose every index is free
// lets its arrays go. SpillPut, SpillGet, SpillSet and SpillDrop store, read
// and free a part of any element type, and the three that change the store
// return the heap they moved, which its user adds to its memory estimate;
// its user guards the store with the shard's lock.
type Spill struct {
	items []unsafe.Pointer // each the first element of a heap array
	free  []uint32
}

// SpillPut stores the array v, whose capacity is not 0, and returns its
// index and the heap that costs: v's array and what the store's own arrays
// grew by.
func SpillPut[T any](s *Spill, v []T) (uint32, int64) {
	before := s.Bytes()
	p := unsafe.Pointer(unsafe.SliceData(v))
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
		s.items[i] = p
	} else {
		s.items = append(s.items, p)
		i = uint32(len(s.items) - 1)
	}
	return i, partBytes[T](cap(v)) + s.Bytes() - before
}

// SpillGet returns the part stored under i, of length n and capacity c.
func SpillGet[T any](s *Spill, i uint32, n, c int) []T {
	return unsafe.Slice((*T)(s.items[i]), c)[:n]
}

// SpillSet replaces the array of capacity old stored under i with v, after
// it grew, and returns the heap that moved: the old array is garbage.
func SpillSet[T any](s *Spill, i uint32, old int, v []T) int64 {
	s.items[i] = unsafe.Pointer(unsafe.SliceData(v))
	return partBytes[T](cap(v) - old)
}

// SpillDrop frees index i, whose array has capacity c, and returns the heap
// that frees, as a negative number: the array and what the store's own
// arrays shrink by.
func SpillDrop[T any](s *Spill, i uint32, c int) int64 {
	before := s.Bytes()
	s.items[i] = nil
	if s.free = append(s.free, i); len(s.free) == len(s.items) {
		s.items, s.free = nil, nil
	}
	return s.Bytes() - before - partBytes[T](c)
}

// partBytes is the heap of n elements of T: append rounds an array's
// capacity to what its size class holds, so capacity is what a part pins.
func partBytes[T any](n int) int64 {
	var zero T
	return int64(n) * int64(unsafe.Sizeof(zero))
}

// Bytes bounds the heap the store's own two arrays pin, the parts they point
// at not counted: append rounds an array's capacity to what its size class
// holds, so an array of pointers pins its capacity and at most an 8-byte
// allocation header; a free list under 16 B shares a 16-byte block.
func (s *Spill) Bytes() int64 {
	var b int64
	if c := cap(s.items); c > 0 {
		b += 8*int64(c) + 8
	}
	if c := cap(s.free); c > 0 {
		b += max(4*int64(c), 16)
	}
	return b
}
