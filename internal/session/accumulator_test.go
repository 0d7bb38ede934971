package session

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"botdetect/internal/features"
	"botdetect/internal/logfmt"
)

func entryAt(method, path string, status int, ref string) logfmt.Entry {
	return logfmt.Entry{
		Time: time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC), ClientIP: "1.1.1.1",
		UserAgent: "UA", Method: method, Path: path, Status: status, Referer: ref, Bytes: 100,
	}
}

func TestCountsVectorZero(t *testing.T) {
	v := Counts{}.Vector()
	for i, val := range v {
		if val != 0 {
			t.Fatalf("attribute %d = %f for empty counts", i, val)
		}
	}
}

// inUnitRange reports whether every attribute lies in [0, 1], as it does in
// any vector derived from well-formed counts.
func inUnitRange(v features.Vector) bool {
	for _, val := range v {
		if val < 0 || val > 1 {
			return false
		}
	}
	return true
}

func TestCountsVectorValues(t *testing.T) {
	c := Counts{
		Total: 10, Head: 1, HTML: 4, Image: 3, CGI: 2, Favicon: 1,
		Embedded: 4, WithReferrer: 6, UnseenReferrer: 2, LinkFollowing: 4,
		Status2xx: 7, Status3xx: 1, Status4xx: 2,
	}
	v := c.Vector()
	want := map[int]float64{
		features.HeadPct: 0.1, features.HTMLPct: 0.4, features.ImagePct: 0.3,
		features.CGIPct: 0.2, features.FaviconPct: 0.1, features.EmbeddedObjPct: 0.4,
		features.ReferrerPct: 0.6, features.UnseenReferrerPct: 0.2, features.LinkFollowingPct: 0.4,
		features.Resp2xxPct: 0.7, features.Resp3xxPct: 0.1, features.Resp4xxPct: 0.2,
	}
	for idx, w := range want {
		if math.Abs(v[idx]-w) > 1e-9 {
			t.Fatalf("attribute %s = %f, want %f", features.Names[idx], v[idx], w)
		}
	}
	if !inUnitRange(v) {
		t.Fatalf("vector out of [0,1]: %v", v)
	}
}

func TestAccumulatorMatchesTrackerSemantics(t *testing.T) {
	reqs := []logfmt.Entry{
		entryAt("GET", "/index.html", 200, ""),
		entryAt("GET", "/a.css", 200, "http://h/index.html"),
		entryAt("GET", "/b.jpg", 200, "http://h/index.html"),
		entryAt("HEAD", "/index.html", 200, ""),
		entryAt("GET", "/cgi-bin/x.cgi?q=1", 302, "http://elsewhere/page.html"),
		entryAt("GET", "/favicon.ico", 404, ""),
	}
	acc := NewAccumulator(0)
	for _, e := range reqs {
		if !acc.Observe(e) {
			t.Fatal("Observe rejected a request with no limit")
		}
	}
	if acc.counts.Total != 6 {
		t.Fatalf("Requests = %d", acc.counts.Total)
	}
	c := acc.counts
	if c.Head != 1 || c.HTML != 2 || c.CGI != 1 || c.Favicon != 1 {
		t.Fatalf("counts = %+v", c)
	}
	if c.WithReferrer != 3 || c.LinkFollowing != 2 || c.UnseenReferrer != 1 {
		t.Fatalf("referrer counts = %+v", c)
	}
	v := acc.Vector()
	if math.Abs(v[features.ReferrerPct]-0.5) > 1e-9 {
		t.Fatalf("REFERRER%% = %f", v[features.ReferrerPct])
	}
	if !inUnitRange(v) {
		t.Fatalf("vector out of [0,1]: %v", v)
	}
}

func TestAccumulatorLimit(t *testing.T) {
	acc := NewAccumulator(3)
	for i := 0; i < 10; i++ {
		acc.Observe(entryAt("GET", "/p.html", 200, ""))
	}
	if acc.counts.Total != 3 {
		t.Fatalf("Requests = %d, want 3 (limit)", acc.counts.Total)
	}
	if acc.Observe(entryAt("GET", "/p.html", 200, "")) {
		t.Fatal("Observe should report false beyond the limit")
	}
}

func TestAccumulatorVsTrackerEquivalence(t *testing.T) {
	// The offline accumulator and the online tracker must produce identical
	// attribute vectors for the same request stream, and the tracker's
	// incrementally maintained Snapshot.Features must equal both.
	reqs := []logfmt.Entry{
		entryAt("GET", "/index.html", 200, ""),
		entryAt("GET", "/style.css", 200, "http://x/index.html"),
		entryAt("GET", "/p1.html", 200, "http://x/index.html"),
		entryAt("GET", "/img.gif", 200, "http://x/p1.html"),
		entryAt("POST", "/cgi-bin/form.cgi", 500, "http://x/p1.html"),
		entryAt("GET", "/missing.html", 404, "http://other/site.html"),
		entryAt("HEAD", "/p2.html", 200, ""),
		entryAt("GET", "/favicon.ico", 200, ""),
	}
	tracker := NewTracker(Config{})
	acc := NewAccumulator(0)
	var snap Snapshot
	for _, e := range reqs {
		snap = tracker.Observe(e)
		acc.Observe(e)
	}
	vOnline := snap.Features
	vOffline := acc.Vector()
	for i := range vOnline {
		if math.Abs(vOnline[i]-vOffline[i]) > 1e-12 {
			t.Fatalf("attribute %s differs: online %f offline %f", features.Names[i], vOnline[i], vOffline[i])
		}
	}
	if got := snap.Counts.Vector(); got != snap.Features {
		t.Fatalf("published Features %v != Counts.Vector() %v", snap.Features, got)
	}
}

func TestCountsVectorBoundedProperty(t *testing.T) {
	f := func(head, html, img, cgi, ref, unseen, emb, link, s2, s3, s4, fav uint8, extra uint8) bool {
		// Build counts where each category is at most Total.
		total := uint32(head) + uint32(html) + uint32(img) + uint32(extra) + 1
		clamp := func(v uint8) uint32 {
			x := uint32(v)
			if x > total {
				return total
			}
			return x
		}
		c := Counts{
			Total: total, Head: clamp(head), HTML: clamp(html), Image: clamp(img), CGI: clamp(cgi),
			WithReferrer: clamp(ref), UnseenReferrer: clamp(unseen), Embedded: clamp(emb),
			LinkFollowing: clamp(link), Status2xx: clamp(s2), Status3xx: clamp(s3), Status4xx: clamp(s4),
			Favicon: clamp(fav),
		}
		return inUnitRange(c.Vector())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochBumpsOnlyOnStateChanges(t *testing.T) {
	tracker := NewTracker(Config{DecisionMarks: []int64{5}})
	key := Key{IP: "1.1.1.1", UserAgent: "UA"}

	// First request: creation (epoch 1) + new classes (GET, HTML, 2xx).
	snap := tracker.Observe(entryAt("GET", "/a.html", 200, ""))
	first := snap.Epoch
	if first == 0 {
		t.Fatal("epoch must start non-zero")
	}
	// Identical requests introduce no new class: epoch stays flat.
	snap = tracker.Observe(entryAt("GET", "/a.html", 200, ""))
	snap = tracker.Observe(entryAt("GET", "/a.html", 200, ""))
	if snap.Epoch != first {
		t.Fatalf("epoch moved on identical requests: %d -> %d", first, snap.Epoch)
	}
	// A new request class bumps it.
	snap = tracker.Observe(entryAt("HEAD", "/a.html", 200, ""))
	afterHead := snap.Epoch
	if afterHead <= first {
		t.Fatalf("new request class did not bump epoch: %d", afterHead)
	}
	// Crossing the decision mark (request 5) bumps it.
	snap = tracker.Observe(entryAt("HEAD", "/a.html", 200, ""))
	if snap.Epoch <= afterHead {
		t.Fatalf("decision mark did not bump epoch: %d", snap.Epoch)
	}
	atMark := snap.Epoch
	// A newly observed signal bumps it; re-marking does not.
	s, newly := tracker.Mark(key, SignalCSS)
	if !newly || s.Epoch <= atMark {
		t.Fatalf("signal did not bump epoch: newly=%v epoch=%d", newly, s.Epoch)
	}
	s2, newly2 := tracker.Mark(key, SignalCSS)
	if newly2 || s2.Epoch != s.Epoch {
		t.Fatalf("re-marked signal changed epoch: %d -> %d", s.Epoch, s2.Epoch)
	}
}

// TestPeekIsExactAndReleasable pins Peek's contract: the snapshot is the
// session as of the last request (no publication lag), it is the caller's
// own until released, Release is forgiving, and the round trip is free.
func TestPeekIsExactAndReleasable(t *testing.T) {
	tracker := NewTracker(Config{DecisionMarks: []int64{10}})
	key := Key{IP: "2.2.2.2", UserAgent: "Mozilla Firefox"}
	e := logfmt.Entry{ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET", Path: "/x.html", Status: 200}

	// 25 identical requests: the last epoch change is the doubling at 16, and
	// Peek must still report all 25.
	const n = 25
	var epochAt16 uint64
	for i := 1; i <= n; i++ {
		tracker.ObserveQuiet(e)
		if i == 16 {
			s, _ := tracker.Get(key)
			epochAt16 = s.Epoch
		}
	}
	p1, ok := tracker.Peek(key)
	if !ok || p1 == nil {
		t.Fatal("Peek missed a tracked session")
	}
	if p1.Epoch != epochAt16 {
		t.Fatalf("epoch moved after request 16: %d -> %d", epochAt16, p1.Epoch)
	}
	if p1.Counts.Total != n {
		t.Fatalf("Peek Total = %d after %d quiet observes with no epoch change, want %d", p1.Counts.Total, n, n)
	}
	if p1.Features != p1.Counts.Vector() {
		t.Fatalf("Features %v != Counts.Vector() %v", p1.Features, p1.Counts.Vector())
	}
	if p1.StoredVerdict() != (StoredVerdict{}) {
		t.Fatalf("a session nobody stored a verdict for carries %+v", p1.StoredVerdict())
	}
	if _, ok := tracker.Peek(Key{IP: "none"}); ok {
		t.Fatal("Peek invented a session")
	}

	// A held snapshot is the holder's own: neither further activity nor
	// scribbling on a later snapshot alters it.
	held := *p1
	tracker.ObserveQuiet(e)
	tracker.Mark(key, SignalCSS)
	p2, _ := tracker.Peek(key)
	if p2 == p1 {
		t.Fatal("Peek handed out a snapshot that is still held")
	}
	if p2.Counts.Total != n+1 || !p2.Has(SignalCSS) {
		t.Fatalf("second Peek = Total %d css %v, want %d true", p2.Counts.Total, p2.Has(SignalCSS), n+1)
	}
	p2.Counts.Total = 999
	p2.Signals = Signals{}
	if p1.Counts != held.Counts || p1.Signals != held.Signals || p1.Epoch != held.Epoch || p1.LastSeen != held.LastSeen {
		t.Fatalf("held snapshot changed under its holder:\n before %+v\n after  %+v", held, *p1)
	}
	if s, _ := tracker.Get(key); s.Counts.Total != n+1 || !s.Has(SignalCSS) {
		t.Fatalf("mutating a snapshot reached the session: %+v", s)
	}

	// Release is forgiving: twice on the same pointer, on a value copy, on a
	// Get copy, on nil — and none of it reaches a snapshot still held.
	p2.Release()
	p2.Release()
	held.Release()
	got, _ := tracker.Get(key)
	got.Release()
	(*Snapshot)(nil).Release()
	if got.Counts.Total != n+1 || held.Counts.Total != n {
		t.Fatalf("Release cleared a value copy: get %+v held %+v", got.Counts, held.Counts)
	}
	p3, _ := tracker.Peek(key)
	if p1.Counts != held.Counts {
		t.Fatal("a stray Release put a held snapshot back into circulation")
	}
	p3.Release()
	p1.Release()

	allocs := testing.AllocsPerRun(500, func() {
		s, ok := tracker.Peek(key)
		if !ok || s.Counts.Total != n+1 {
			t.Fatal("session vanished mid-run")
		}
		s.Release()
	})
	if raceEnabled {
		t.Skip("alloc ceiling not meaningful under -race")
	}
	if allocs != 0 {
		t.Errorf("Peek+Release = %v allocs/op, want 0", allocs)
	}
}

// TestPeekObserveMarkRace is the -race hammer for the one-copy session: four
// goroutines on one hot key read (Peek/Release), write (ObserveQuiet, Mark)
// and invalidate (Bump) at once. Every snapshot must be internally
// consistent — its features are those of its own counts.
func TestPeekObserveMarkRace(t *testing.T) {
	tracker := NewTracker(Config{DecisionMarks: []int64{10}})
	key := Key{IP: "6.6.6.6", UserAgent: "UA"}
	e := logfmt.Entry{ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET", Path: "/x.html", Status: 200}
	tracker.ObserveQuiet(e)

	const rounds = 5000
	var wg sync.WaitGroup
	run := func(f func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f(i)
			}
		}()
	}
	run(func(int) {
		s, ok := tracker.Peek(key)
		if !ok {
			t.Error("hot session vanished")
			return
		}
		if s.Features != s.Counts.Vector() || s.Counts.Total == 0 || s.Key != key {
			t.Errorf("torn snapshot: %+v", *s)
		}
		s.Release()
	})
	run(func(i int) {
		if i%2 == 0 {
			e.Path = "/y.jpg"
		} else {
			e.Path = "/x.html"
		}
		tracker.ObserveQuiet(e)
	})
	run(func(i int) { tracker.Mark(key, Signal(i%numSignals)) })
	run(func(int) { tracker.Bump(key) })
	wg.Wait()

	s, _ := tracker.Get(key)
	if s.Counts.Total != rounds+1 || s.Signals.Count() != numSignals {
		t.Fatalf("lost updates: Total %d (want %d), %d signals (want %d)", s.Counts.Total, rounds+1, s.Signals.Count(), numSignals)
	}
}
