package session

import "botdetect/internal/shard"

// pathTable is the per-session set of visited paths backing the
// link-following vs unseen-referrer split. The split needs membership only,
// never the path strings back, so the representation is an open-addressed
// set of 64-bit FNV-1a hashes: 8 bytes per entry instead of a map bucket plus
// the full path string (~48 B + len(path) each). A hash collision between two
// distinct paths within one session misclassifies at most one referrer and is
// vanishingly unlikely (birthday bound over ≤2048 entries in a 64-bit space
// ≈ 2e-13). The differential tests hold it against an exact string set
// (exactAccumulator, test-only) on synthetic corpora: byte-identical counts.
type pathTable struct {
	hashes []uint64 // power-of-two open-addressed set; 0 = empty slot
	n      int      // live entries in hashes
}

// minPathSlots is the initial open-addressed table size (power of two): most
// sessions on a CDN are one or two pages long, and 4 slots hold two paths
// before the first doubling.
const minPathSlots = 4

func pathHash(p string) uint64 {
	h := shard.HashString(p)
	if h == 0 {
		return 1 // 0 marks an empty slot
	}
	return h
}

// contains reports whether the path was recorded.
func (pt *pathTable) contains(p string) bool {
	if pt.n == 0 {
		return false
	}
	h := pathHash(p)
	mask := uint64(len(pt.hashes) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch pt.hashes[i] {
		case 0:
			return false
		case h:
			return true
		}
	}
}

// insert records the path, growing the table as needed. There are no
// deletions: sessions only accumulate paths until the caller's cap.
func (pt *pathTable) insert(p string) {
	h := pathHash(p)
	if pt.hashes == nil {
		pt.hashes = make([]uint64, minPathSlots)
	}
	mask := uint64(len(pt.hashes) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch pt.hashes[i] {
		case h:
			return
		case 0:
			pt.hashes[i] = h
			pt.n++
			if pt.n*4 >= len(pt.hashes)*3 { // grow at 75% load
				pt.grow()
			}
			return
		}
	}
}

func (pt *pathTable) grow() {
	old := pt.hashes
	pt.hashes = make([]uint64, 2*len(old))
	mask := uint64(len(pt.hashes) - 1)
	for _, h := range old {
		if h == 0 {
			continue
		}
		for i := h & mask; ; i = (i + 1) & mask {
			if pt.hashes[i] == 0 {
				pt.hashes[i] = h
				break
			}
		}
	}
}

// footprintBytes is the table's heap footprint, charged to the tracker's
// memory estimate by delta on every observation.
func (pt *pathTable) footprintBytes() int64 { return int64(cap(pt.hashes)) * 8 }
