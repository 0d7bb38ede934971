package session

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"testing"

	"botdetect/internal/webmodel"
)

// syntheticPath is the i-th path of the collision corpus, shaped like the
// paths of synthCorpus and of the built-in site. Paths are regenerated from
// their index on demand so the corpus never sits in memory as strings.
func syntheticPath(i int) string {
	switch i % 4 {
	case 0:
		return fmt.Sprintf("/doc/%d.html", i)
	case 1:
		return fmt.Sprintf("/img/photo%d_%d.jpg", i/7, i%7)
	case 2:
		return fmt.Sprintf("/cgi-bin/app%d.cgi/%d", i%5, i)
	default:
		return fmt.Sprintf("/archive/%d/%d/page%d.html", 1996+i%10, i%12, i)
	}
}

// TestPathFingerprintCollisions measures what 32-bit fingerprints cost
// against the bounds stated on pathTable, over the built-in sites' paths plus
// a million synthetic ones cut into 2,048-entry sets (one full session each):
//
//   - all pairs: N(N-1)/2^33 of the corpus's pairs share a fingerprint — the
//     birthday bound the per-set numbers scale down from;
//   - within a set: a colliding path is not stored, so full sets come up
//     short by n(n-1)/2^33 entries each, 4.9e-4;
//   - absent referrers: every path probes every set but its own, and
//     n/2^32 = 4.8e-7 of those probes read "seen".
//
// Each is held within a factor of two of its bound, and the sites the
// benchmark serves have no collision at all.
func TestPathFingerprintCollisions(t *testing.T) {
	for _, cfg := range []webmodel.SiteConfig{
		{Seed: 2006, NumPages: 200},          // browse_hot, churn_cold
		{Seed: 2006 ^ 0x5117, NumPages: 120}, // codeen_mix
	} {
		seen := make(map[uint32]string)
		for _, p := range webmodel.Generate(cfg).Paths() {
			if q, dup := seen[pathFingerprint(p)]; dup {
				t.Errorf("site %+v: %q and %q share fingerprint %#x", cfg, p, q, pathFingerprint(p))
			}
			seen[pathFingerprint(p)] = p
		}
	}

	const n = 1000000
	const sets = n / maxTrackedPaths // the remainder probes but forms no set
	type entry struct {
		fp  uint32
		idx int32
	}
	corpus := make([]entry, n)
	tables := make([]pathTable, sets)
	for i := range corpus {
		p := syntheticPath(i)
		corpus[i] = entry{pathFingerprint(p), int32(i)}
		if s := i / maxTrackedPaths; s < sets {
			tables[s].insert(p)
		}
	}

	short := 0
	for i := range tables {
		short += maxTrackedPaths - len(tables[i].fps)
	}
	sort.Slice(corpus, func(a, b int) bool { return corpus[a].fp < corpus[b].fp })
	pairs, falseSeen := 0, 0
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && corpus[hi].fp == corpus[lo].fp {
			hi++
		}
		group := corpus[lo:hi]
		pairs += len(group) * (len(group) - 1) / 2
		for _, a := range group {
			for _, b := range group {
				if s := int(b.idx) / maxTrackedPaths; a.idx != b.idx && s < sets && s != int(a.idx)/maxTrackedPaths {
					// a was never requested in b's session, yet reads as seen there.
					if !tables[s].contains(syntheticPath(int(a.idx))) {
						t.Fatalf("set %d holds path %d but does not read its fingerprint twin %d as seen", s, b.idx, a.idx)
					}
					falseSeen++
				}
			}
		}
		lo = hi
	}

	within := func(name string, got, want float64) {
		t.Logf("%s: measured %.4g, bound %.4g", name, got, want)
		if got > 2*want || got < want/2 {
			t.Errorf("%s: measured %.4g is not within a factor of two of %.4g", name, got, want)
		}
	}
	const space = 1 << 32
	within("colliding pairs in the corpus", float64(pairs), float64(n)*float64(n-1)/2/space)
	within("false \"seen\" per absent-referrer probe", float64(falseSeen)/(float64(sets)*float64(n-maxTrackedPaths)), float64(maxTrackedPaths)/space)
	// 488 sets expect 0.24 lost entries between them: the factor of two is
	// taken on the count rounded up to the one collision that can be seen.
	wantShort := float64(sets) * float64(maxTrackedPaths) * float64(maxTrackedPaths-1) / 2 / space
	t.Logf("entries lost to collisions within %d full sets: %d, bound %.3g", sets, short, wantShort)
	if short > 1 {
		t.Errorf("%d entries lost within %d sets, expected %.3g", short, sets, wantShort)
	}
}

// FuzzPathTable drives a pathTable with an insert/contains op stream (three
// bytes an op: kind, then a 16-bit path id) beside a map of fingerprints:
// the same answers at every step, and at the end a sorted duplicate-free
// slice holding the map's keys, the same slice when the paths are inserted in
// reverse order, and never more capacity than the allocator's size class for
// the entries held.
func FuzzPathTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1, 1, 0, 2})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0})
	var crawl []byte // past maxTrackedPaths, with a lookup after every insert
	for id := 0; id < maxTrackedPaths+200; id++ {
		crawl = append(crawl, 0, byte(id>>8), byte(id), 1, byte(id>>7), byte(id*3))
	}
	f.Add(crawl)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var pt pathTable
		ref := make(map[uint32]struct{})
		var order []string
		for ; len(ops) >= 3; ops = ops[3:] {
			p := "/p/" + strconv.Itoa(int(ops[1])<<8|int(ops[2])) + ".html"
			_, had := ref[pathFingerprint(p)]
			if ops[0]&1 == 1 {
				if got := pt.contains(p); got != had {
					t.Fatalf("contains(%q) = %v, reference %v", p, got, had)
				}
				continue
			}
			pt.insert(p)
			if !had && len(ref) < maxTrackedPaths {
				ref[pathFingerprint(p)] = struct{}{}
				order = append(order, p)
			}
			if len(pt.fps) != len(ref) {
				t.Fatalf("after insert(%q): %d entries, reference %d", p, len(pt.fps), len(ref))
			}
			c, n := cap(pt.fps), len(pt.fps)
			if class := cap(append([]uint32(nil), make([]uint32, max(n, minPathSlots))...)); c > maxTrackedPaths || c > class {
				t.Fatalf("cap %d for %d entries, whose size class holds %d", c, n, class)
			}
		}
		for i, fp := range pt.fps {
			if _, ok := ref[fp]; !ok {
				t.Fatalf("fingerprint %#x is not in the reference", fp)
			}
			if i > 0 && pt.fps[i-1] >= fp {
				t.Fatalf("not strictly ascending at %d: %#x, %#x", i, pt.fps[i-1], fp)
			}
		}
		var reversed pathTable
		for i := len(order) - 1; i >= 0; i-- {
			reversed.insert(order[i])
		}
		if !slices.Equal(reversed.fps, pt.fps) {
			t.Fatalf("contents depend on insertion order:\n%v\n%v", pt.fps, reversed.fps)
		}
	})
}
