package session

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/logfmt"
)

func entry(ip, ua, method, path string, status int, referer string, at time.Time) logfmt.Entry {
	return logfmt.Entry{
		Time: at, ClientIP: ip, UserAgent: ua, Method: method, Path: path,
		Status: status, Referer: referer, Bytes: 1000,
	}
}

func newTestTracker(cfg Config) (*Tracker, *clock.Virtual) {
	vc := clock.NewVirtual(time.Time{})
	cfg.Clock = vc
	return NewTracker(cfg), vc
}

// peekCopy is a Peek copied out and released: the session's snapshot as a
// value, or false when it is not tracked.
func peekCopy(tr *Tracker, key Key) (Snapshot, bool) {
	p, ok := tr.Peek(key)
	if !ok {
		return Snapshot{}, false
	}
	snap := *p
	snap.pooled = nil
	p.Release()
	return snap, true
}

func TestObserveCreatesAndCounts(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	snap := tr.Observe(entry("1.1.1.1", "Firefox", "GET", "/index.html", 200, "", now))
	if snap.Key != (Key{IP: "1.1.1.1", UserAgent: "Firefox"}) {
		t.Fatalf("key = %+v", snap.Key)
	}
	if snap.Counts.Total != 1 || snap.Counts.HTML != 1 || snap.Counts.Get != 1 {
		t.Fatalf("counts = %+v", snap.Counts)
	}
	if tr.Active() != 1 {
		t.Fatalf("Active = %d", tr.Active())
	}
}

// TestObserveQuietStaysExactUnderLock verifies that quiet observes leave
// nothing behind: every reader (Get, Peek, Each, FlushAll) sees exact counts
// whether or not an epoch-changing event happened since.
func TestObserveQuietStaysExactUnderLock(t *testing.T) {
	tr, vc := newTestTracker(Config{DecisionMarks: []int64{10}})
	now := vc.Now()
	key := Key{IP: "9.9.9.9", UserAgent: "UA"}
	for i := 0; i < 25; i++ {
		tr.ObserveQuiet(entry(key.IP, key.UserAgent, "GET", "/a.html", 200, "", now))
	}
	if snap, ok := peekCopy(tr, key); !ok || snap.Counts.Total != 25 {
		t.Fatalf("Get after quiet observes: ok=%v counts=%+v, want Total=25", ok, snap.Counts)
	}
	// 25 is past the last power-of-two epoch bump (16): Peek does not lag.
	snap, ok := tr.Peek(key)
	if !ok || snap.Counts.Total != 25 {
		t.Fatalf("Peek after quiet observes: ok=%v Total=%d, want 25", ok, snap.Counts.Total)
	}
	snap.Release()
	tr.ObserveQuiet(entry(key.IP, key.UserAgent, "GET", "/b.html", 200, "", now))
	seen := false
	tr.Each(func(s Snapshot) bool {
		if s.Key == key {
			seen = true
			if s.Counts.Total != 26 {
				t.Fatalf("Each snapshot Total = %d, want 26", s.Counts.Total)
			}
		}
		return true
	})
	if !seen {
		t.Fatal("session missing from Each")
	}
	snaps := tr.FlushAll()
	if len(snaps) != 1 || snaps[0].Counts.Total != 26 {
		t.Fatalf("FlushAll = %+v, want one session with Total=26", snaps)
	}
}

// TestObserveQuietMatchesObserve pins quiet and loud observes to identical
// session state: same entries, same final snapshot.
func TestObserveQuietMatchesObserve(t *testing.T) {
	loud, vc := newTestTracker(Config{DecisionMarks: []int64{10}})
	quiet, _ := newTestTracker(Config{DecisionMarks: []int64{10}, Clock: vc})
	now := vc.Now()
	key := Key{IP: "8.8.8.8", UserAgent: "UA"}
	paths := []string{"/a.html", "/s.css", "/i.jpg", "/a.html", "/b.html"}
	for round := 0; round < 4; round++ {
		for _, p := range paths {
			e := entry(key.IP, key.UserAgent, "GET", p, 200, "", now)
			loud.Observe(e)
			quiet.ObserveQuiet(e)
		}
	}
	a, okA := peekCopy(loud, key)
	b, okB := peekCopy(quiet, key)
	if !okA || !okB {
		t.Fatalf("sessions missing: %v %v", okA, okB)
	}
	if a.Counts != b.Counts || a.Epoch != b.Epoch {
		t.Fatalf("quiet state diverged:\n loud: counts=%+v epoch=%d\n quiet: counts=%+v epoch=%d",
			a.Counts, a.Epoch, b.Counts, b.Epoch)
	}
}

func TestDistinctKeysDistinctSessions(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	tr.Observe(entry("1.1.1.1", "Firefox", "GET", "/a.html", 200, "", now))
	tr.Observe(entry("1.1.1.1", "Wget", "GET", "/a.html", 200, "", now))
	tr.Observe(entry("2.2.2.2", "Firefox", "GET", "/a.html", 200, "", now))
	if tr.Active() != 3 {
		t.Fatalf("Active = %d, want 3 (<IP,UA> keying)", tr.Active())
	}
}

func TestCountsClassification(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	ip, ua := "3.3.3.3", "UA"
	reqs := []logfmt.Entry{
		entry(ip, ua, "GET", "/index.html", 200, "", now),
		entry(ip, ua, "GET", "/style.css", 200, "http://site/index.html", now),
		entry(ip, ua, "GET", "/pic.jpg", 200, "http://site/index.html", now),
		entry(ip, ua, "HEAD", "/index.html", 200, "", now),
		entry(ip, ua, "GET", "/cgi-bin/q.cgi?x=1", 302, "http://other-site/ref.html", now),
		entry(ip, ua, "GET", "/missing.html", 404, "", now),
		entry(ip, ua, "POST", "/cgi-bin/q.cgi", 500, "", now),
		entry(ip, ua, "GET", "/favicon.ico", 200, "", now),
	}
	var snap Snapshot
	for _, e := range reqs {
		snap = tr.Observe(e)
	}
	c := snap.Counts
	if c.Total != 8 {
		t.Fatalf("Total = %d", c.Total)
	}
	if c.Head != 1 || c.Post != 1 || c.Get != 6 {
		t.Fatalf("methods: %+v", c)
	}
	if c.HTML != 3 { // index.html, HEAD index.html, missing.html
		t.Fatalf("HTML = %d", c.HTML)
	}
	if c.Image != 2 { // pic.jpg + favicon.ico
		t.Fatalf("Image = %d", c.Image)
	}
	if c.CGI != 2 {
		t.Fatalf("CGI = %d", c.CGI)
	}
	if c.Favicon != 1 {
		t.Fatalf("Favicon = %d", c.Favicon)
	}
	if c.Embedded != 3 { // style.css, pic.jpg, favicon.ico
		t.Fatalf("Embedded = %d", c.Embedded)
	}
	if c.WithReferrer != 3 {
		t.Fatalf("WithReferrer = %d", c.WithReferrer)
	}
	// /index.html was visited before the css/jpg requests referencing it,
	// so those two are link-following; the cgi request's referer was never
	// visited by this session.
	if c.LinkFollowing != 2 || c.UnseenReferrer != 1 {
		t.Fatalf("LinkFollowing = %d UnseenReferrer = %d", c.LinkFollowing, c.UnseenReferrer)
	}
	if c.Status2xx != 5 || c.Status3xx != 1 || c.Status4xx != 1 || c.Status5xx != 1 {
		t.Fatalf("status counts: %+v", c)
	}
}

func TestEmbeddedCountExpectation(t *testing.T) {
	// Keep the embedded-object expectation from the previous test honest:
	// exactly css, jpg, favicon are embedded there. This test isolates it.
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	ip, ua := "3.3.3.4", "UA"
	tr.Observe(entry(ip, ua, "GET", "/style.css", 200, "", now))
	tr.Observe(entry(ip, ua, "GET", "/pic.jpg", 200, "", now))
	snap := tr.Observe(entry(ip, ua, "GET", "/favicon.ico", 200, "", now))
	if snap.Counts.Embedded != 3 {
		t.Fatalf("Embedded = %d, want 3", snap.Counts.Embedded)
	}
}

func TestMarkSignalsAndFirstObservation(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	key := Key{IP: "4.4.4.4", UserAgent: "Moz"}
	for i := 0; i < 5; i++ {
		tr.Observe(entry(key.IP, key.UserAgent, "GET", fmt.Sprintf("/p%d.html", i), 200, "", now))
	}
	newly := tr.Mark(key, SignalCSS)
	snap, _ := peekCopy(tr, key)
	if !newly || !snap.Signals.Has(SignalCSS) {
		t.Fatal("first Mark should set the signal")
	}
	if at, _ := snap.Signals.At(SignalCSS); at != 5 {
		t.Fatalf("SignalAt = %d, want 5", at)
	}
	// More requests, then a second signal: its first-observation count differs.
	for i := 5; i < 12; i++ {
		tr.Observe(entry(key.IP, key.UserAgent, "GET", fmt.Sprintf("/p%d.html", i), 200, "", now))
	}
	if !tr.Mark(key, SignalMouse) {
		t.Fatal("mouse signal should be newly set")
	}
	snap, _ = peekCopy(tr, key)
	if at, _ := snap.Signals.At(SignalMouse); at != 12 {
		t.Fatalf("mouse SignalAt = %d, want 12", at)
	}
	// Re-marking is not "newly" and does not change the request count.
	if tr.Mark(key, SignalCSS) {
		t.Fatal("second Mark of the same signal should not be newly")
	}
	snap, _ = peekCopy(tr, key)
	if at, _ := snap.Signals.At(SignalCSS); at != 5 {
		t.Fatalf("CSS SignalAt changed to %d", at)
	}
}

func TestMarkBeforeAnyRequest(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	key := Key{IP: "5.5.5.5", UserAgent: "X"}
	if !tr.Mark(key, SignalJS) {
		t.Fatal("Mark should create the session")
	}
	snap, _ := peekCopy(tr, key)
	if at, _ := snap.Signals.At(SignalJS); at != 1 {
		t.Fatalf("signal at %d, want 1", at)
	}
	if tr.Active() != 1 {
		t.Fatal("session not created by Mark")
	}
}

func TestIdleTimeoutSplitsSessions(t *testing.T) {
	var evicted []Snapshot
	tr, vc := newTestTracker(Config{IdleTimeout: time.Hour, Evicted: func(s Snapshot) { evicted = append(evicted, s) }})
	key := Key{IP: "6.6.6.6", UserAgent: "UA"}
	tr.Observe(entry(key.IP, key.UserAgent, "GET", "/a.html", 200, "", vc.Now()))
	tr.Observe(entry(key.IP, key.UserAgent, "GET", "/b.html", 200, "", vc.Now().Add(30*time.Minute)))
	// 2 hours later: new session.
	snap := tr.Observe(entry(key.IP, key.UserAgent, "GET", "/c.html", 200, "", vc.Now().Add(150*time.Minute)))
	if snap.Counts.Total != 1 {
		t.Fatalf("new session Total = %d, want 1", snap.Counts.Total)
	}
	if len(evicted) != 1 || evicted[0].Counts.Total != 2 {
		t.Fatalf("evicted = %+v", evicted)
	}
	if tr.Ended() != 1 {
		t.Fatalf("Ended = %d", tr.Ended())
	}

	// The boundary is exact: a gap of the timeout to the nanosecond continues
	// the session, one nanosecond more ends it — on the request path and in
	// the sweeper alike.
	for i, tc := range []struct {
		gap   time.Duration
		split bool
	}{{time.Hour - 1, false}, {time.Hour, false}, {time.Hour + 1, true}} {
		start := vc.Now().Add(1234567 * time.Nanosecond)
		byRequest, bySweep := fmt.Sprintf("6.6.7.%d", i), fmt.Sprintf("6.6.8.%d", i)
		tr.Observe(entry(byRequest, "UA", "GET", "/a.html", 200, "", start))
		snap := tr.Observe(entry(byRequest, "UA", "GET", "/b.html", 200, "", start.Add(tc.gap)))
		if (snap.Counts.Total == 1) != tc.split {
			t.Errorf("gap %v: Total = %d after the second request, split want %v", tc.gap, snap.Counts.Total, tc.split)
		}
		tr.Observe(entry(bySweep, "UA", "GET", "/a.html", 200, "", start))
		_, before := peekCopy(tr, Key{IP: bySweep, UserAgent: "UA"})
		expireAll(tr, start.Add(tc.gap))
		_, after := peekCopy(tr, Key{IP: bySweep, UserAgent: "UA"})
		if !before || after == tc.split {
			t.Errorf("gap %v: tracked before the sweep %v, after %v, split want %v", tc.gap, before, after, tc.split)
		}
	}
}

// TestStoreVerdictFollowsTheEpoch pins a stored verdict's lifetime: it is
// stored only at its snapshot's own epoch, every later snapshot carries it,
// and each thing that moves the epoch — a new request class, a signal, Bump —
// drops it. A verdict derived from a session that an idle split ended never
// lands on its successor, though both sit at the same epoch.
func TestStoreVerdictFollowsTheEpoch(t *testing.T) {
	tr, vc := newTestTracker(Config{IdleTimeout: time.Hour})
	key := Key{IP: "6.6.9.9", UserAgent: "UA"}
	v := StoredVerdict{ModelEpoch: 7, AtRequest: 3, Rule: 3, Origin: 1}
	stored := func(k Key) StoredVerdict { s, _ := peekCopy(tr, k); return s.StoredVerdict() }

	tr.ObserveQuiet(entry(key.IP, key.UserAgent, "GET", "/a.html", 200, "", vc.Now()))
	for name, moveEpoch := range map[string]func(){
		"new request class": func() { tr.ObserveQuiet(entry(key.IP, key.UserAgent, "GET", "/i.jpg", 404, "", vc.Now())) },
		"signal":            func() { tr.Mark(key, SignalCSS) },
		"Bump":              func() { tr.Bump(key) },
	} {
		snap, _ := peekCopy(tr, key)
		if !tr.StoreVerdict(&snap, v) || stored(key) != v {
			t.Fatalf("%s: a verdict at the session's epoch was not stored: %+v", name, stored(key))
		}
		tr.ObserveQuiet(entry(key.IP, key.UserAgent, "GET", "/a.html", 200, "", vc.Now()))
		if got, _ := peekCopy(tr, key); got.StoredVerdict() != v || got.Epoch != snap.Epoch {
			t.Fatalf("%s: a request that moved no epoch dropped the verdict: %+v", name, got.StoredVerdict())
		}
		moveEpoch()
		if stored(key) != (StoredVerdict{}) {
			t.Fatalf("%s moved the epoch but kept the verdict", name)
		}
		if tr.StoreVerdict(&snap, v) {
			t.Fatalf("%s: a verdict from the epoch before was stored", name)
		}
	}

	split := Key{IP: "6.6.9.10", UserAgent: "UA"}
	before := tr.Observe(entry(split.IP, split.UserAgent, "GET", "/a.html", 200, "", vc.Now()))
	after := tr.Observe(entry(split.IP, split.UserAgent, "GET", "/a.html", 200, "", vc.Now().Add(2*time.Hour)))
	if after.Epoch != before.Epoch || after.Counts.Total != 1 {
		t.Fatalf("want a fresh session at the old one's epoch: before %d, after %d (Total %d)", before.Epoch, after.Epoch, after.Counts.Total)
	}
	if tr.StoreVerdict(&before, v) || stored(split) != (StoredVerdict{}) {
		t.Fatal("the ended session's verdict landed on its successor")
	}
	if tr.StoreVerdict(&Snapshot{Key: Key{IP: "none"}}, v) {
		t.Fatal("a verdict was stored for an untracked session")
	}
}

// TestSnapshotTimesRoundTrip: the record keeps Unix nanoseconds and a
// snapshot hands back time.Time — the same instant that went in, whether it
// came from the wall clock (monotonic reading and all), a virtual clock, or a
// parsed log line with a zone offset.
func TestSnapshotTimesRoundTrip(t *testing.T) {
	parsed, err := logfmt.ParseLine(`9.9.9.9 - - [17/Mar/2006:23:59:58 -0500] "GET /a.html HTTP/1.1" 200 1000 "-" "UA"`)
	if err != nil {
		t.Fatal(err)
	}
	if _, offset := parsed.Time.Zone(); offset != -5*3600 {
		t.Fatalf("parsed zone offset = %d, want -18000", offset)
	}
	tr, vc := newTestTracker(Config{IdleTimeout: 1 << 62})
	vc.Advance(90*time.Minute + 7) // an odd nanosecond count
	for name, first := range map[string]time.Time{
		"wall":   time.Now(),
		"clf":    parsed.Time,
		"clock":  {}, // a zero Entry.Time reads the tracker's clock
		"subsec": time.Date(2006, 3, 17, 12, 0, 0, 123456789, time.FixedZone("", 9*3600)),
	} {
		want := first
		if first.IsZero() {
			want = vc.Now()
		}
		last := want.Add(42*time.Second + 1)
		snap := tr.Observe(entry("9.9.9.9", name, "GET", "/a.html", 200, "", first))
		if !snap.FirstSeen.Equal(want) || !snap.LastSeen.Equal(want) {
			t.Errorf("%s: first request at %v: FirstSeen %v, LastSeen %v", name, want, snap.FirstSeen, snap.LastSeen)
		}
		tr.ObserveQuiet(entry("9.9.9.9", name, "GET", "/b.html", 200, "", last))
		snap, _ = peekCopy(tr, Key{IP: "9.9.9.9", UserAgent: name})
		if d := snap.LastSeen.Sub(snap.FirstSeen); !snap.FirstSeen.Equal(want) || !snap.LastSeen.Equal(last) || d != 42*time.Second+1 {
			t.Errorf("%s: FirstSeen %v (want %v), LastSeen %v (want %v), duration %v", name, snap.FirstSeen, want, snap.LastSeen, last, d)
		}
	}
	// Mark stamps the clock's time, but never before the session's newest
	// request: the "clock" session's last one is 42 s ahead of the clock.
	key := Key{IP: "9.9.9.9", UserAgent: "clock"}
	newest := vc.Now().Add(42*time.Second + 1)
	vc.Advance(time.Second)
	tr.Mark(key, SignalCSS)
	if snap, _ := peekCopy(tr, key); !snap.LastSeen.Equal(newest) {
		t.Errorf("Mark behind the newest request: LastSeen %v, want %v", snap.LastSeen, newest)
	}
	vc.Advance(time.Minute)
	tr.Mark(key, SignalJS)
	if snap, _ := peekCopy(tr, key); !snap.LastSeen.Equal(vc.Now()) {
		t.Errorf("after Mark: LastSeen %v, clock %v", snap.LastSeen, vc.Now())
	}
}

// TestLastSeenNeverMovesBackwards: a fleet owner applies a forwarded request
// with its origin time, after mesh delay, so a request can arrive after a
// later one. It counts, but the session stays as recent as its newest
// request: a sweep one idle timeout after the late request's time ends
// nothing.
func TestLastSeenNeverMovesBackwards(t *testing.T) {
	tr, vc := newTestTracker(Config{IdleTimeout: time.Hour})
	base := vc.Now()
	key := Key{IP: "9.9.9.8", UserAgent: "UA"}
	tr.ObserveQuiet(entry(key.IP, key.UserAgent, "GET", "/a.html", 200, "", base.Add(10*time.Second)))
	snap := tr.Observe(entry(key.IP, key.UserAgent, "GET", "/b.html", 200, "", base.Add(5*time.Second)))
	if !snap.LastSeen.Equal(base.Add(10*time.Second)) || snap.Counts.Total != 2 {
		t.Fatalf("after a late request: LastSeen %v (want T+10s), %d requests (want 2)", snap.LastSeen, snap.Counts.Total)
	}
	if n := expireAll(tr, base.Add(5*time.Second+time.Hour+time.Second)); n != 0 || tr.Active() != 1 {
		t.Fatalf("a sweep inside the idle timeout of the newest request ended %d sessions, %d left", n, tr.Active())
	}
}

// expireAll makes one full pass of SweepStep over the tracker's shards and
// returns the number of sessions it ended.
func expireAll(tr *Tracker, now time.Time) int {
	n := 0
	for range tr.ShardCount() {
		n += tr.SweepStep(now)
	}
	return n
}

func TestExpireIdle(t *testing.T) {
	var evicted int
	tr, vc := newTestTracker(Config{IdleTimeout: time.Hour, Evicted: func(Snapshot) { evicted++ }})
	now := vc.Now()
	for i := 0; i < 10; i++ {
		tr.Observe(entry(fmt.Sprintf("7.7.7.%d", i), "UA", "GET", "/a.html", 200, "", now))
	}
	// Half the sessions stay active (refreshed within the idle timeout).
	for i := 0; i < 5; i++ {
		tr.Observe(entry(fmt.Sprintf("7.7.7.%d", i), "UA", "GET", "/b.html", 200, "", now.Add(30*time.Minute)))
	}
	n := expireAll(tr, now.Add(80*time.Minute))
	if n != 5 || evicted != 5 {
		t.Fatalf("expireAll = %d, evicted = %d, want 5", n, evicted)
	}
	if tr.Active() != 5 {
		t.Fatalf("Active = %d", tr.Active())
	}
}

func TestMaxSessionsEviction(t *testing.T) {
	// Shards: 1 pins every session to one shard so the global LRU eviction
	// order is exact; with more shards the cap is distributed per shard.
	var evicted []Snapshot
	tr, vc := newTestTracker(Config{MaxSessions: 3, Shards: 1, Evicted: func(s Snapshot) { evicted = append(evicted, s) }})
	now := vc.Now()
	for i := 0; i < 6; i++ {
		tr.Observe(entry(fmt.Sprintf("8.8.8.%d", i), "UA", "GET", "/a.html", 200, "", now.Add(time.Duration(i)*time.Minute)))
	}
	if tr.Active() != 3 {
		t.Fatalf("Active = %d", tr.Active())
	}
	if len(evicted) != 3 {
		t.Fatalf("evicted %d sessions", len(evicted))
	}
	// Oldest sessions were evicted.
	if evicted[0].Key.IP != "8.8.8.0" {
		t.Fatalf("first evicted = %s", evicted[0].Key.IP)
	}
}

func TestSnapshotsSortedAndFlushAll(t *testing.T) {
	var evicted int
	tr, vc := newTestTracker(Config{Evicted: func(Snapshot) { evicted++ }})
	base := vc.Now()
	tr.Observe(entry("9.9.9.2", "UA", "GET", "/a.html", 200, "", base.Add(2*time.Second)))
	tr.Observe(entry("9.9.9.1", "UA", "GET", "/a.html", 200, "", base.Add(time.Second)))
	tr.Observe(entry("9.9.9.3", "UA", "GET", "/a.html", 200, "", base.Add(3*time.Second)))
	snaps := tr.Snapshots()
	if len(snaps) != 3 || snaps[0].Key.IP != "9.9.9.1" || snaps[2].Key.IP != "9.9.9.3" {
		t.Fatalf("snapshots order: %v", []string{snaps[0].Key.IP, snaps[1].Key.IP, snaps[2].Key.IP})
	}
	flushed := tr.FlushAll()
	if len(flushed) != 3 || evicted != 3 {
		t.Fatalf("FlushAll returned %d sessions and called Evicted %d times, want 3 and 3", len(flushed), evicted)
	}
	if tr.Active() != 0 {
		t.Fatal("sessions remain after FlushAll")
	}
	if tr.Ended() != 3 {
		t.Fatalf("Ended = %d", tr.Ended())
	}
}

func TestGet(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	key := Key{IP: "10.0.0.1", UserAgent: "UA"}
	if _, ok := peekCopy(tr, key); ok {
		t.Fatal("Get on missing session should report false")
	}
	tr.Observe(entry(key.IP, key.UserAgent, "GET", "/a.html", 200, "", vc.Now()))
	snap, ok := peekCopy(tr, key)
	if !ok || snap.Counts.Total != 1 {
		t.Fatalf("Get = %+v, %v", snap, ok)
	}
}

func TestSignalStringNames(t *testing.T) {
	names := map[Signal]string{
		SignalCSS: "css", SignalJS: "js", SignalMouse: "mouse", SignalHidden: "hidden-link",
		SignalCaptcha: "captcha", SignalUAMismatch: "ua-mismatch", SignalDecoy: "decoy",
		SignalReplay: "replay", Signal(99): "unknown",
	}
	for sig, want := range names {
		if sig.String() != want {
			t.Fatalf("%d.String() = %q, want %q", sig, sig.String(), want)
		}
	}
}

func TestRefererPathNormalisation(t *testing.T) {
	cases := map[string]string{
		"http://www.example.com/a/b.html":     "/a/b.html",
		"http://www.example.com/a/b.html?q=1": "/a/b.html",
		"https://example.com":                 "/",
		"/relative/path.html#frag":            "/relative/path.html",
		"":                                    "/",
	}
	for in, want := range cases {
		if got := refererPath(in); got != want {
			t.Fatalf("refererPath(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDurationAndSnapshotIndependence(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	key := Key{IP: "11.0.0.1", UserAgent: "UA"}
	start := vc.Now()
	tr.Observe(entry(key.IP, key.UserAgent, "GET", "/a.html", 200, "", start))
	snap1 := tr.Observe(entry(key.IP, key.UserAgent, "GET", "/b.html", 200, "", start.Add(10*time.Minute)))
	if d := snap1.LastSeen.Sub(snap1.FirstSeen); d != 10*time.Minute {
		t.Fatalf("duration = %v", d)
	}
	// Mutating the returned snapshot must not affect the tracker: Signals is
	// a value type now, so overwriting the copy's field is purely local.
	snap1.Signals = Signals{}
	snap1.Signals.set(SignalCSS, 1)
	snap2, _ := peekCopy(tr, key)
	if snap2.Signals.Has(SignalCSS) {
		t.Fatal("snapshot mutation leaked into tracker state")
	}
}

func TestConcurrentObserveAndMark(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := Key{IP: fmt.Sprintf("12.0.0.%d", g), UserAgent: "UA"}
			for i := 0; i < 200; i++ {
				tr.Observe(entry(key.IP, key.UserAgent, "GET", fmt.Sprintf("/p%d.html", i), 200, "", now))
				if i%10 == 0 {
					tr.Mark(key, SignalCSS)
				}
			}
		}(g)
	}
	wg.Wait()
	if tr.Active() != 8 {
		t.Fatalf("Active = %d", tr.Active())
	}
	for _, s := range tr.Snapshots() {
		if s.Counts.Total != 200 {
			t.Fatalf("session %s total = %d", s.Key.IP, s.Counts.Total)
		}
		if !s.Signals.Has(SignalCSS) {
			t.Fatalf("session %s missing CSS signal", s.Key.IP)
		}
	}
}

func TestShardedMaxSessionsBoundsTotal(t *testing.T) {
	// With the default shard count the MaxSessions bound is distributed over
	// the shards: the tracker never holds more than MaxSessions sessions
	// (modulo per-shard rounding) and evicts the locally least recent ones.
	tr, vc := newTestTracker(Config{MaxSessions: 64})
	now := vc.Now()
	for i := 0; i < 1000; i++ {
		tr.Observe(entry(fmt.Sprintf("14.%d.%d.%d", i/250, i%250, i%7), fmt.Sprintf("UA-%d", i%11), "GET", "/a.html", 200, "", now.Add(time.Duration(i)*time.Second)))
	}
	perShard := (64 + tr.ShardCount() - 1) / tr.ShardCount()
	if tr.Active() > perShard*tr.ShardCount() {
		t.Fatalf("Active = %d exceeds distributed bound %d", tr.Active(), perShard*tr.ShardCount())
	}
	if tr.Active()+int(tr.Ended()) != 1000 {
		t.Fatalf("active %d + ended %d != 1000", tr.Active(), tr.Ended())
	}
}

func TestShardDistribution(t *testing.T) {
	// The FNV-1a key hash must spread realistic <IP, UA> keys evenly over the
	// shards: no empty shard and no shard with more than 2x the mean load.
	tr, _ := newTestTracker(Config{Shards: 32})
	const n = 8192
	counts := make([]int, tr.ShardCount())
	uas := []string{"Firefox/1.5", "MSIE 6.0", "Googlebot/2.1", "Wget/1.10", ""}
	for i := 0; i < n; i++ {
		key := Key{
			IP:        fmt.Sprintf("%d.%d.%d.%d", 10+i%80, (i/250)%250, i%250, 1+i%17),
			UserAgent: uas[i%len(uas)],
		}
		counts[key.Hash()%uint64(tr.ShardCount())]++
	}
	mean := n / tr.ShardCount()
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d received no keys", i)
		}
		if c > 2*mean {
			t.Fatalf("shard %d received %d keys (mean %d): hash is skewed", i, c, mean)
		}
	}
	// Different shard counts must still be powers of two.
	for _, in := range []int{0, 1, 3, 5, 16, 33} {
		tr2 := NewTracker(Config{Shards: in})
		n := tr2.ShardCount()
		if n&(n-1) != 0 || n == 0 {
			t.Fatalf("Shards=%d gave non-power-of-two shard count %d", in, n)
		}
	}
}

func TestKeyHashSeparatorDisambiguates(t *testing.T) {
	a := Key{IP: "ab", UserAgent: "c"}
	b := Key{IP: "a", UserAgent: "bc"}
	if a.Hash() == b.Hash() {
		t.Fatal("boundary-shifted keys hash identically: separator missing")
	}
}

func TestSweepStepCoversAllShards(t *testing.T) {
	var evicted int
	tr, vc := newTestTracker(Config{IdleTimeout: time.Hour, Evicted: func(Snapshot) { evicted++ }})
	now := vc.Now()
	for i := 0; i < 200; i++ {
		tr.Observe(entry(fmt.Sprintf("15.0.%d.%d", i/250, i%250), "UA", "GET", "/a.html", 200, "", now))
	}
	later := now.Add(2 * time.Hour)
	// One full round of SweepStep calls must expire every idle session.
	for i := 0; i < tr.ShardCount(); i++ {
		tr.SweepStep(later)
	}
	if tr.Active() != 0 || evicted != 200 {
		t.Fatalf("after full sweep: active=%d evicted=%d", tr.Active(), evicted)
	}
}

func TestEachStreamsAndStopsEarly(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	for i := 0; i < 50; i++ {
		tr.Observe(entry(fmt.Sprintf("16.0.0.%d", i), "UA", "GET", "/a.html", 200, "", now))
	}
	seen := 0
	tr.Each(func(Snapshot) bool { seen++; return true })
	if seen != 50 {
		t.Fatalf("Each visited %d sessions, want 50", seen)
	}
	seen = 0
	tr.Each(func(Snapshot) bool { seen++; return seen < 10 })
	if seen != 10 {
		t.Fatalf("early-stopping Each visited %d sessions, want 10", seen)
	}
}

func TestConcurrentOverlappingKeysWithExpiry(t *testing.T) {
	// Goroutines hammer Observe/Mark on OVERLAPPING keys while another
	// goroutine runs SweepStep: exercises shard locking under
	// contention (run with -race).
	tr, vc := newTestTracker(Config{IdleTimeout: time.Hour})
	now := vc.Now()
	keys := make([]Key, 16)
	for i := range keys {
		keys[i] = Key{IP: fmt.Sprintf("18.0.0.%d", i), UserAgent: "UA"}
	}
	var sweeper, writers sync.WaitGroup
	stop := make(chan struct{})
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.SweepStep(now)
			}
		}
	}()
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 400; i++ {
				k := keys[(g+i)%len(keys)]
				tr.Observe(entry(k.IP, k.UserAgent, "GET", fmt.Sprintf("/p%d.html", i), 200, "", now))
				if i%7 == 0 {
					tr.Mark(k, SignalCSS)
				}
				if i%13 == 0 {
					peekCopy(tr, k)
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	sweeper.Wait()
	if tr.Active() != len(keys) {
		t.Fatalf("Active = %d, want %d", tr.Active(), len(keys))
	}
	total := int64(0)
	tr.Each(func(s Snapshot) bool { total += int64(s.Counts.Total); return true })
	if total != 8*400 {
		t.Fatalf("total observed requests = %d, want %d", total, 8*400)
	}
}

func TestCountsConsistencyProperty(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	invocation := 0
	f := func(paths []uint16, statuses []uint8) bool {
		if len(paths) == 0 {
			return true
		}
		invocation++
		ip := fmt.Sprintf("13.0.%d.%d", invocation/256, invocation%256)
		key := Key{IP: ip, UserAgent: "prop"}
		var snap Snapshot
		for i, p := range paths {
			status := 200
			if i < len(statuses) {
				status = 200 + int(statuses[i]%4)*100
			}
			path := fmt.Sprintf("/f%d.html", p%50)
			if p%5 == 0 {
				path = fmt.Sprintf("/img%d.jpg", p%50)
			}
			snap = tr.Observe(entry(key.IP, key.UserAgent, "GET", path, status, "", now))
		}
		c := snap.Counts
		if int(c.Total) != len(paths) {
			return false
		}
		if c.Head+c.Get+c.Post != c.Total {
			return false
		}
		if c.Status2xx+c.Status3xx+c.Status4xx+c.Status5xx > c.Total {
			return false
		}
		if c.WithReferrer != c.LinkFollowing+c.UnseenReferrer {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
