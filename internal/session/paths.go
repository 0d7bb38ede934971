package session

import (
	"slices"

	"botdetect/internal/shard"
)

// pathTable is the per-session set of visited paths backing the
// link-following vs unseen-referrer split. The split needs membership only,
// never the path strings back, so the set keeps a fingerprint per path and
// nothing else: one sorted []uint32 whose len is the count — 4 bytes per
// entry instead of a map bucket plus the full path string (~48 B + len(path)
// each). Lookup is a binary search, insertion a copy-shift of at most 8 KB.
//
// A fingerprint is the path's 64-bit FNV-1a hash folded to 32 bits, so two
// distinct paths can share one. With n ≤ maxTrackedPaths = 2,048 entries:
//
//   - a referrer the session never requested reads "seen" with probability
//     n/2^32 ≤ 4.8e-7 (occupancy of the 32-bit space), moving one request from
//     UnseenReferrer to LinkFollowing;
//   - some two of a session's own paths collide with probability
//     n(n-1)/2^33 ≤ 4.9e-4 (birthday bound); the second is then not stored,
//     which changes no answer — its fingerprint is already present.
//
// TestPathFingerprintCollisions measures both against these bounds, and the
// differential tests hold the set against an exact string set
// (exactAccumulator, test-only) on synthetic corpora: byte-identical counts.
type pathTable struct {
	fps []uint32 // sorted, duplicate-free; cap is an allocator size class
}

// minPathSlots is the first allocation's capacity: most sessions on a CDN are
// one or two pages long, and 4 slots are the 16-byte size class.
const minPathSlots = 4

func pathFingerprint(p string) uint32 {
	h := shard.HashString(p)
	return uint32(h) ^ uint32(h>>32)
}

// contains reports whether the path was recorded.
func (pt *pathTable) contains(p string) bool {
	_, found := slices.BinarySearch(pt.fps, pathFingerprint(p))
	return found
}

// insert records the path unless the set already holds maxTrackedPaths.
// There are no deletions: sessions only accumulate paths.
func (pt *pathTable) insert(p string) {
	fp := pathFingerprint(p)
	i, found := slices.BinarySearch(pt.fps, fp)
	if found || len(pt.fps) >= maxTrackedPaths {
		return
	}
	if len(pt.fps) == cap(pt.fps) {
		pt.grow()
	}
	pt.fps = slices.Insert(pt.fps, i, fp) // a copy-shift: grow left room
}

// grow moves the set into the smallest allocator size class that holds one
// more entry (at least minPathSlots, never past what maxTrackedPaths entries
// need). Appending to a nil slice makes the runtime round the capacity up to
// exactly that class, so cap — what footprintBytes charges — is what the
// allocation really occupies, and no more.
func (pt *pathTable) grow() {
	want := min(max(minPathSlots, len(pt.fps)+1), maxTrackedPaths)
	grown := append([]uint32(nil), make([]uint32, want)...)
	pt.fps = grown[:copy(grown, pt.fps)]
}

// footprintBytes is the set's heap footprint, charged to the tracker's
// memory estimate by delta on every observation.
func (pt *pathTable) footprintBytes() int64 { return int64(cap(pt.fps)) * 4 }
