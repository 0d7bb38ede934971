package session

import (
	"fmt"
	"testing"

	"botdetect/internal/logfmt"
)

// TestObserveQuietPeekZeroAlloc gates the steady-state request path the
// million-session engine is built around: once a session exists and its path
// table has grown to cover the working set, observing a request, peeking the
// snapshot and releasing it must allocate nothing, in any letter case of the
// path and the content type (classifying by lowered copies allocated 4, 3 and
// 11 times for the mixed-case requests). The runs cross power-of-two epoch
// bumps.
func TestObserveQuietPeekZeroAlloc(t *testing.T) {
	tr, vc := newTestTracker(Config{})
	now := vc.Now()
	key := Key{IP: "9.9.9.9", UserAgent: "Firefox"}
	request := func(path, contentType string) logfmt.Entry {
		e := entry("9.9.9.9", "Firefox", "GET", path, 200, "", now)
		e.ContentType = contentType
		return e
	}
	measured := []logfmt.Entry{
		request("/p0.html", ""),
		request("/IMG/A.JPG", "image/jpeg"),
		request("/img/a.jpg", "Image/JPEG"),
		request("/Photos/Index.HTML", "text/html"),
	}

	// Warm up: create the session and insert the full working set of paths
	// so the path set is done growing before measurement.
	for i := 0; i < 64; i++ {
		tr.ObserveQuiet(request(fmt.Sprintf("/p%d.html", i%8), ""))
	}
	for _, e := range measured {
		tr.ObserveQuiet(e)
	}

	for _, e := range measured {
		allocs := testing.AllocsPerRun(500, func() {
			tr.ObserveQuiet(e)
			snap, ok := tr.Peek(key)
			if !ok {
				t.Fatal("session vanished mid-run")
			}
			if snap.Counts.Total == 0 {
				t.Fatal("empty snapshot")
			}
			snap.Release()
		})
		if raceEnabled {
			continue
		}
		if allocs != 0 {
			t.Errorf("steady-state observe+peek of %s (%q) = %v allocs/op, want 0", e.Path, e.ContentType, allocs)
		}
	}
	if raceEnabled {
		t.Skip("alloc ceiling not meaningful under -race")
	}
}

// TestNewcomerLifecycleZeroAlloc gates new clients at a full tracker whose
// clients mostly make one request: a first request creates the session in
// a newcomer record (and evicts the least recently active one), a Peek
// expands it into a snapshot, and one client in four makes a second
// request, which promotes its record in place, all allocating nothing once
// the shard's chunks and index have grown to the cap.
func TestNewcomerLifecycleZeroAlloc(t *testing.T) {
	tr, vc := newTestTracker(Config{Shards: 1, MaxSessions: 64})
	now := vc.Now()
	ips := make([]string, 4096)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.7.%d.%d", i/256, i%256)
	}
	next := 0
	client := func() {
		ip := ips[next%len(ips)]
		next++
		tr.ObserveQuiet(entry(ip, "Firefox", "GET", "/index.html", 200, "", now))
		snap, ok := tr.Peek(Key{IP: ip, UserAgent: "Firefox"})
		if !ok || snap.Counts.Total != 1 {
			t.Fatal("a new client's session is missing or miscounted")
		}
		snap.Release()
		if next%4 == 0 {
			tr.ObserveQuiet(entry(ip, "Firefox", "GET", "/next.html", 200, "http://example.com/index.html", now))
		}
	}
	for range 256 {
		client()
	}
	allocs := testing.AllocsPerRun(500, client)
	if n := newcomers(tr); n == 0 || n == tr.Active() {
		t.Fatalf("%d of %d sessions in newcomer records: the run met no newcomer or no promotion", n, tr.Active())
	}
	if raceEnabled {
		t.Skip("alloc ceiling not meaningful under -race")
	}
	if allocs != 0 {
		t.Errorf("a new client's first request, peek and second request = %v allocs/op, want 0", allocs)
	}
}
