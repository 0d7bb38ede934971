package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"botdetect/internal/logfmt"
)

// onePageClients returns one page request from each of n clients with
// canonical IPv4 addresses, the kind a record keeps inline.
func onePageClients(n int, at time.Time) []logfmt.Entry {
	out := make([]logfmt.Entry, n)
	for i := range out {
		out[i] = logfmt.Entry{Time: at, ClientIP: fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff),
			UserAgent: "Mozilla/5.0 (X11; Linux x86_64) Firefox/1.5", Method: "GET", Path: "/index.html", Status: 200}
	}
	return out
}

// heapPerEnd runs end three times on a fresh world from setup and returns the
// least heap it allocated per ended session, with the count it ended: what
// the runtime allocates meanwhile only adds.
func heapPerEnd(t *testing.T, setup func() func() int) (perEnd int64, ended int) {
	t.Helper()
	perEnd = math.MaxInt64
	for range 3 {
		end := setup()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ended = end()
		runtime.ReadMemStats(&after)
		if ended == 0 {
			t.Fatal("no session ended")
		}
		perEnd = min(perEnd, int64(after.TotalAlloc-before.TotalAlloc)/int64(ended))
	}
	return perEnd, ended
}

// TestExpireWithoutListenerAllocs: with no OnSessionEnd listener (botproxy
// sets none), idle expiry builds no snapshot of the sessions it ends and
// rebuilds none of their keys. Expiring 1,000 one-page sessions over eight
// shards allocated 758 B a session while every end built a snapshot and an
// address string that nobody read.
func TestExpireWithoutListenerAllocs(t *testing.T) {
	const clients = 1000
	perEnd, ended := heapPerEnd(t, func() func() int {
		e, vc := newTestEngine(Config{Shards: 8})
		for _, ent := range onePageClients(clients, vc.Now()) {
			e.ObserveRequestQuiet(ent)
		}
		vc.Advance(2 * e.Config().SessionIdleTimeout)
		return func() int {
			n := 0
			for range e.ShardCount() {
				n += e.SweepStep(vc.Now())
			}
			return n
		}
	})
	if ended != clients {
		t.Fatalf("a sweep pass ended %d sessions, want %d", ended, clients)
	}
	t.Logf("expiry: %d B a session", perEnd)
	if raceEnabled {
		t.Skip("alloc ceiling not meaningful under -race")
	}
	if perEnd > 16 {
		t.Errorf("expiry without a listener allocates %d B a session, want <= 16", perEnd)
	}
}

// TestEvictWithoutListenerAllocs: with no OnSessionEnd listener, capacity
// eviction builds no snapshot either. 1,000 new canonical-IP clients churn
// through a 10-session engine, each one evicting the least recently active;
// that allocated 335 B an eviction while each built a snapshot.
func TestEvictWithoutListenerAllocs(t *testing.T) {
	const capacity, clients = 10, 1000
	perEnd, ended := heapPerEnd(t, func() func() int {
		e, vc := newTestEngine(Config{Shards: 1, MaxSessions: capacity})
		all := onePageClients(capacity+clients, vc.Now())
		for _, ent := range all[:capacity] {
			e.ObserveRequestQuiet(ent)
		}
		return func() int {
			for _, ent := range all[capacity:] {
				e.ObserveRequestQuiet(ent)
			}
			return int(e.sessions.Ended())
		}
	})
	if ended != clients {
		t.Fatalf("%d sessions evicted, want %d", ended, clients)
	}
	t.Logf("eviction: %d B a session", perEnd)
	if raceEnabled {
		t.Skip("alloc ceiling not meaningful under -race")
	}
	if perEnd > 16 {
		t.Errorf("eviction without a listener allocates %d B a session, want <= 16", perEnd)
	}
}
