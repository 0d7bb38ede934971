package session

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"botdetect/internal/intern"
	"botdetect/internal/keystore"
	"botdetect/internal/shard"
)

// FuzzClientKey holds the keys both client tables build to the strings they
// are built from. The session tracker keeps a ⟨address, User-Agent⟩ ID
// and the keystore an address, each without a pointer (intern.Addr and an
// interned handle); building one key for two clients would let one client
// write into another's session or key window. For any two address and agent
// pairs:
//   - the IDs the tracker builds for a new record are equal exactly when the
//     pairs are, and so are the addresses the keystore builds;
//   - the ID a lookup builds, without a reference, is the record's;
//   - an ID rebuilds to exactly its strings;
//   - a tracker and a keystore fed both clients hold one client when the
//     strings are equal and two when they are not, and the tracker's
//     snapshots name them by their own strings.
//
// The seeds are the pairs careless key building merges: an IPv4 address and
// its IPv4-mapped IPv6 spelling, a leading zero, a zone, a spelling netip
// prints otherwise, the empty strings and an address that is an agent.
func FuzzClientKey(f *testing.F) {
	for _, seed := range [][4]string{
		{"1.2.3.4", "ab", "::ffff:1.2.3.4", "ab"},
		{"010.0.0.1", "ab", "10.0.0.1", "ab"},
		{"fe80::1%eth0", "ab", "fe80::1", "ab"},
		{"::FFFF:1.2.3.4", "ab", "::ffff:1.2.3.4", "ab"},
		{"0::1", "", "::1", ""},
		{"ab", "", "", "ab"},
		{"", "", "", ""},
		{"1.2.3.4", "Mozilla/5.0", "1.2.3.4", "Mozilla/5.0 "},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, ip1, ua1, ip2, ua2 string) {
		in := intern.New(2)
		tr := NewTracker(Config{Interner: in, Shards: 1})
		k1, k2 := Key{IP: ip1, UserAgent: ua1}, Key{IP: ip2, UserAgent: ua2}
		a, b := tr.newID(k1), tr.newID(k2)
		if (a == b) != (k1 == k2) {
			t.Fatalf("IDs of %q and %q: equal %v", k1, k2, a == b)
		}
		if (in.Addr(ip1) == in.Addr(ip2)) != (ip1 == ip2) {
			t.Fatalf("addresses %q and %q: equal %v", ip1, ip2, in.Addr(ip1) == in.Addr(ip2))
		}
		for _, c := range []struct {
			key Key
			id  sessionID
		}{{k1, a}, {k2, b}} {
			if got, ok := tr.lookupID(c.key); !ok || got != c.id {
				t.Fatalf("lookup of %q = %v, %v; the record's ID is %v", c.key, got, ok, c.id)
			}
			if got := tr.keyOf(c.id); got != c.key {
				t.Fatalf("%q rebuilds to %q", c.key, got)
			}
		}

		clients := 2
		if k1 == k2 {
			clients = 1
		}
		now := time.Unix(1136073600, 0)
		tr = NewTracker(Config{Shards: 1})
		tr.ObserveQuiet(entry(ip1, ua1, "GET", "/", 200, "", now))
		tr.ObserveQuiet(entry(ip2, ua2, "GET", "/", 200, "", now))
		if tr.Active() != clients {
			t.Fatalf("%q and %q: the tracker holds %d sessions", k1, k2, tr.Active())
		}
		for _, s := range tr.FlushAll() {
			if s.Key != k1 && s.Key != k2 || s.Counts.Total != uint32(2/clients) {
				t.Fatalf("%q and %q: a snapshot names %q and counts %d requests", k1, k2, s.Key, s.Counts.Total)
			}
		}
		ks := keystore.New(keystore.Config{Shards: 1, Seed: 1})
		var pk keystore.PageKeys
		ks.IssuePage(ip1, "/", &pk)
		ks.IssuePage(ip2, "/", &pk)
		if want := map[bool]int{true: 1, false: 2}[ip1 == ip2]; ks.Clients() != want {
			t.Fatalf("%q and %q: the keystore holds %d clients, want %d", ip1, ip2, ks.Clients(), want)
		}
	})
}

// gcScanBytes is the heap the collector scanned in a full cycle it runs now
// (/gc/scan/heap:bytes reads the last cycle's scan work).
func gcScanBytes() int64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// gcHeapBytes is the heap in use after two full collections, the live heap
// the collector's next heap goal is set from.
func gcHeapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestGCHeapBytesPerSession holds what a session adds to the live heap,
// which the collector doubles into its heap goal under GOGC=100: 200,000
// one-page sessions on one P may grow it by at most 16 B a session. The
// records sit in the table's arena outside the heap, so what is left is the
// chunk directory and the bucket array: 6.7 B a session measured, against
// 198.6 B while the chunks were heap objects. Where the arena's blocks are
// heap arrays (under the race detector, and off unix) there is nothing to
// hold.
func TestGCHeapBytesPerSession(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sessions = 200000
	tr := NewTracker(Config{})
	now := time.Unix(1136073600, 0)
	before := gcHeapBytes()
	for i := range sessions {
		ip := fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
		tr.ObserveQuiet(entry(ip, "Mozilla/5.0 (X11; Linux x86_64)", "GET", "/index.html", 200, "", now))
	}
	if mapped, _ := shard.ArenaBytes(); mapped == 0 {
		t.Skip("the table's blocks are heap arrays here")
	}
	per := float64(gcHeapBytes()-before) / sessions
	runtime.KeepAlive(tr)
	t.Logf("%d sessions: %.1f B of live heap a session", tr.Active(), per)
	if tr.Active() != sessions || per > 16 {
		t.Fatalf("%d sessions hold %.1f B of live heap each, over 16 B: the records are back on the heap", tr.Active(), per)
	}
}

// TestGCScanBytesPerSession holds what a session costs the garbage
// collector: 200,000 one-page sessions on one P may grow a full cycle's scan
// work by at most 4 B a session. A record holds no pointer and sits by value
// in a chunk of eight, so the work is the chunk directory, one 8-byte word
// per chunk: 1.3 B a session measured. While the table kept a directory of
// record pointers, one word per slot, it measured 10.5 B against a bound of
// 16; while a record held three links, its key's two strings and the path
// set's slice, the collector scanned 192 of its 264 B.
func TestGCScanBytesPerSession(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory changes what the collector scans")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sessions = 200000
	tr := NewTracker(Config{})
	now := time.Unix(1136073600, 0)
	before := gcScanBytes()
	for i := range sessions {
		ip := fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
		tr.ObserveQuiet(entry(ip, "Mozilla/5.0 (X11; Linux x86_64)", "GET", "/index.html", 200, "", now))
	}
	per := float64(gcScanBytes()-before) / sessions
	runtime.KeepAlive(tr)
	t.Logf("%d sessions: the collector scans %.1f B a session", tr.Active(), per)
	if tr.Active() != sessions || per > 4 {
		t.Fatalf("%d sessions cost %.1f B of scan work each, over 4 B: a pointer is back in the record or the table", tr.Active(), per)
	}
}
