package shard

import "testing"

func TestNormalize(t *testing.T) {
	cases := map[int]int{-1: DefaultShards, 0: DefaultShards, 1: 1, 2: 2, 3: 4, 5: 8, 16: 16, 33: 64}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Fatalf("Normalize(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPerShardCap(t *testing.T) {
	cases := []struct{ max, shards, want int }{
		{64, 32, 2}, {65, 32, 3}, {5, 32, 1}, {0, 32, 1}, {10, 1, 10},
	}
	for _, c := range cases {
		if got := PerShardCap(c.max, c.shards); got != c.want {
			t.Fatalf("PerShardCap(%d, %d) = %d, want %d", c.max, c.shards, got, c.want)
		}
	}
}

func TestHashSeparator(t *testing.T) {
	a := HashStringSeed(MixSeparator(HashString("ab")), "c")
	b := HashStringSeed(MixSeparator(HashString("a")), "bc")
	if a == b {
		t.Fatal("boundary-shifted field pairs hash identically")
	}
	if HashString("x") == HashString("y") {
		t.Fatal("distinct strings hash identically")
	}
}

// TestAllocBytesMatchesAllocator holds AllocBytes to the capacity append
// gives a byte array, which is its allocation: at every size to 1 KiB, on
// both sides of every size class, and past 32 KiB, where the allocator
// gives whole pages. A class table from another Go release would fail here
// before an estimate under-counted.
func TestAllocBytesMatchesAllocator(t *testing.T) {
	sizes := []int64{1, 32<<10 + 1, 40 << 10, 40<<10 + 1, 64<<10 + 9}
	for n := int64(16); n <= 1024; n++ {
		sizes = append(sizes, n)
	}
	for _, c := range sizeClasses {
		sizes = append(sizes, int64(c), int64(c)+1)
	}
	for _, n := range sizes {
		want := int64(cap(append([]byte(nil), make([]byte, n)...)))
		if n < 16 {
			want = 16 // the tiny allocator's block, which append's capacity does not show
		}
		if got := AllocBytes(n); got != want {
			t.Fatalf("AllocBytes(%d) = %d, the allocator gives %d", n, got, want)
		}
	}
}

// TestSpillReusesAndReleases holds the spill store to its contract: a part
// reads back as stored, with the length and capacity its record keeps, a
// freed index is the next one handed out, the heap each change returns adds
// up to the parts' capacities and the store's own arrays, and a store whose
// every index is free pins nothing.
func TestSpillReusesAndReleases(t *testing.T) {
	var s Spill
	var charged int64
	put := func(v []uint32) uint32 {
		i, moved := SpillPut(&s, v)
		charged += moved
		return i
	}
	a, b := []uint32{1, 2, 3, 0}, []uint32{4, 5}
	ia, ib := put(a[:3]), put(b)
	if got := SpillGet[uint32](&s, ia, 3, cap(a)); len(got) != 3 || cap(got) != 4 || got[2] != 3 {
		t.Fatalf("part %d reads back as %v (cap %d)", ia, got, cap(got))
	}
	grown := append(SpillGet[uint32](&s, ib, 2, cap(b)), 6)
	charged += SpillSet(&s, ib, cap(b), grown)
	if got := SpillGet[uint32](&s, ib, 3, cap(grown)); got[2] != 6 {
		t.Fatalf("part %d after SpillSet reads back as %v", ib, got)
	}
	if want := 4*int64(cap(a)+cap(grown)) + s.Bytes(); charged != want {
		t.Fatalf("the changes returned %d B, the parts and the store pin %d", charged, want)
	}
	charged += SpillDrop[uint32](&s, ia, cap(a))
	if i := put(a); i != ia {
		t.Fatalf("a freed index %d was not reused: got %d", ia, i)
	}
	if s.Bytes() == 0 {
		t.Fatal("a store holding parts charges nothing for its arrays")
	}
	charged += SpillDrop[uint32](&s, ia, cap(a))
	charged += SpillDrop[uint32](&s, ib, cap(grown))
	if s.items != nil || s.free != nil || s.Bytes() != 0 || charged != 0 {
		t.Fatalf("an empty store keeps %d items, %d free, charges %d B, and its changes returned %d B net",
			cap(s.items), cap(s.free), s.Bytes(), charged)
	}
}
