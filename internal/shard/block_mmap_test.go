//go:build unix && !race

package shard

import "testing"

// TestUnixBlocksAreMapped pins which builds keep the records off the heap:
// every unix build without the race detector. The heap gates in the
// session, keystore and core packages skip where ArenaBytes reads 0, so a
// block source that fell back to the heap here would silence them.
func TestUnixBlocksAreMapped(t *testing.T) {
	a := newArena(int(chunkBytes[record64]()))
	defer a.release()
	a.alloc()
	if mapped, _ := ArenaBytes(); !blocksOffHeap || mapped < int64(a.blockBytes()) {
		t.Fatalf("a unix build maps its blocks: off heap %v, %d B mapped with a %d B block held", blocksOffHeap, mapped, a.blockBytes())
	}
}
