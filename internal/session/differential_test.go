package session

import (
	"fmt"
	"math"
	"testing"
	"time"

	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
)

// zipf samples integers in [0, n) following a Zipf distribution with skew
// s > 0: lower ranks are more probable, like the path popularity of a Web
// trace.
type zipf struct {
	src *rng.Source
	cdf []float64
}

// newZipf constructs a Zipf sampler over [0, n) with skew s. It panics if
// n <= 0 or s <= 0.
func newZipf(src *rng.Source, n int, s float64) *zipf {
	if n <= 0 || s <= 0 {
		panic("newZipf requires n > 0 and s > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{src: src, cdf: cdf}
}

// Next returns the next sample: a binary search of the CDF.
func (z *zipf) Next() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func TestZipfSkewsLow(t *testing.T) {
	z := newZipf(rng.New(59), 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
	if counts[0] <= counts[99] {
		t.Fatalf("Zipf rank 0 (%d) not more popular than rank 99 (%d)", counts[0], counts[99])
	}
}

func TestZipfPanics(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{0, 1}, {10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for newZipf(_, %d, %v)", c.n, c.s)
				}
			}()
			newZipf(rng.New(1), c.n, c.s)
		}()
	}
}

// synthCorpus generates a deterministic logfmt request stream shaped like the
// CoDeeN traces the paper analyses: a skewed path popularity distribution,
// link-following referrers (pointing at previously fetched pages), unseen
// referrers, embedded objects, CGI hits and error statuses. Enough distinct
// paths are generated to overflow maxTrackedPaths, so the corpus
// exercises the tracked-path cap as well as the open-addressed set's growth.
func synthCorpus(seed uint64, n int) []logfmt.Entry {
	src := rng.New(seed)
	zipf := newZipf(src, 4096, 1.2)
	start := time.Unix(1136073600, 0) // 2006-01-01, the paper's trace era
	entries := make([]logfmt.Entry, 0, n)
	var visited []string
	for i := 0; i < n; i++ {
		p := zipf.Next()
		var path, ctype string
		status := 200
		switch {
		case p%7 == 3:
			path = fmt.Sprintf("/img/%d.jpg", p)
			ctype = "image/jpeg"
		case p%11 == 5:
			path = fmt.Sprintf("/cgi-bin/q?id=%d", p)
			ctype = "text/html"
		default:
			path = fmt.Sprintf("/doc/%d.html", p)
			ctype = "text/html"
		}
		switch src.Uint64() % 16 {
		case 0:
			status = 404
		case 1:
			status = 304
		}
		ref := ""
		switch src.Uint64() % 4 {
		case 0, 1:
			if len(visited) > 0 {
				ref = "http://example.com" + visited[src.Uint64()%uint64(len(visited))]
			}
		case 2:
			ref = fmt.Sprintf("http://elsewhere.example/%d.html", src.Uint64()%1000)
		}
		method := "GET"
		if src.Uint64()%64 == 0 {
			method = "HEAD"
		}
		entries = append(entries, logfmt.Entry{
			Time: start.Add(time.Duration(i) * time.Second), ClientIP: "203.0.113.7",
			UserAgent: "Mozilla/4.0 (compatible; MSIE 6.0)", Method: method, Path: path,
			Status: status, Bytes: int64(1000 + p), Referer: ref, ContentType: ctype,
		})
		visited = append(visited, path)
	}
	return entries
}

// exactAccumulator is the reference the hashed path set is held against: the
// same counting (Counts.observe), but the link-following vs unseen-referrer
// split is decided by a set of full path strings instead of 64-bit hashes.
type exactAccumulator struct {
	counts Counts
	paths  map[string]bool
}

func newExactAccumulator() *exactAccumulator {
	return &exactAccumulator{paths: make(map[string]bool)}
}

func (a *exactAccumulator) Observe(e logfmt.Entry) {
	// Against an empty table every referrer counts as unseen; the exact set
	// then moves the ones this session did request.
	var none pathTable
	a.counts.observe(e, e.Kind(), &none)
	if e.Referer != "" && a.paths[refererPath(e.Referer)] {
		a.counts.UnseenReferrer--
		a.counts.LinkFollowing++
	}
	if len(a.paths) < maxTrackedPaths {
		a.paths[e.PathOnly()] = true
	}
}

// TestHashedPathsMatchExactAccumulator replays synthetic corpora through the
// compact hashed path set and the exact string-set reference and requires
// bit-identical feature vectors — the differential proof (ISSUE 9) that the
// 8-byte-per-path representation changes nothing the detector can observe.
func TestHashedPathsMatchExactAccumulator(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n    int
	}{
		{1, 500},
		{2, 5000},  // overflows maxTrackedPaths' distinct-path cap
		{3, 20000}, // deep stream, heavy path reuse
		{99, 64},   // short session
	} {
		hashed := NewAccumulator(0)
		exact := newExactAccumulator()
		for _, e := range synthCorpus(tc.seed, tc.n) {
			hashed.Observe(e)
			exact.Observe(e)
		}
		if hashed.counts != exact.counts {
			t.Errorf("seed %d: counts diverge\nhashed: %+v\nexact:  %+v",
				tc.seed, hashed.counts, exact.counts)
		}
		if hashed.Vector() != exact.counts.Vector() {
			t.Errorf("seed %d: feature vectors diverge\nhashed: %v\nexact:  %v",
				tc.seed, hashed.Vector(), exact.counts.Vector())
		}
	}
}

// TestHashedPathsMatchExactTracker is the same differential proof at the
// tracker level: a multi-session stream goes through the tracker and, session
// by session, through the exact reference, and after every request the
// tracker's snapshot must carry bit-identical counts and features (the epoch
// is a function of the counts' history, so it cannot differ if they never do).
func TestHashedPathsMatchExactTracker(t *testing.T) {
	tracker, vc := newTestTracker(Config{})

	base := vc.Now()
	for sess := 0; sess < 8; sess++ {
		ip := fmt.Sprintf("198.51.100.%d", sess)
		exact := newExactAccumulator()
		for i, e := range synthCorpus(uint64(sess+1), 600) {
			e.ClientIP = ip
			e.Time = base.Add(time.Duration(i) * time.Millisecond)
			snap := tracker.Observe(e)
			exact.Observe(e)
			if snap.Counts != exact.counts {
				t.Fatalf("session %d request %d: counts diverge\ntracker: %+v\nexact:   %+v", sess, i, snap.Counts, exact.counts)
			}
		}
	}
}
