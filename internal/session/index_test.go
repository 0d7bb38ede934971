package session

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"botdetect/internal/clock"
)

// TestCollisionChainMatchesSeededIndex drives two trackers through the same
// 20,000 seeded operations on 1,000 keys (three User-Agents per address):
// one indexes by its seeded hash, the other has every key hash to 0, so all
// its sessions share one collision chain and every lookup, insert and
// removal walks it. Observe, Mark, Peek, Bump, verdict write-back, capacity
// eviction, idle splits and sweeps (the idle timeout is a minute, so
// sessions end one at a time from the middle of the chain), a pinned end of
// a chain's first record, and a final FlushAll must give the same
// snapshots, evictions, Active, Ended and MemoryEstimate on both.
func TestCollisionChainMatchesSeededIndex(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1136073600, 0))
	var gone [2][]Snapshot
	trackers := [2]*Tracker{}
	for i := range trackers {
		trackers[i] = NewTracker(Config{MaxSessions: 200, Shards: 1, IdleTimeout: time.Minute, Clock: vc,
			DecisionMarks: []int64{10}, Evicted: func(s Snapshot) { gone[i] = append(gone[i], s) }})
	}
	seeded, chained := trackers[0], trackers[1]
	chained.table.HashHook = func(Key) uint64 { return 0 }

	keys := make([]Key, 1000)
	for i := range keys {
		keys[i] = Key{IP: fmt.Sprintf("10.9.%d.%d", i/3/250, i/3%250), UserAgent: fmt.Sprintf("UA-%d", i%3)}
	}
	paths := []string{"/a.html", "/b.html", "/i.jpg", "/s.css", "/cgi-bin/q", "/missing.html"}
	same := func(step int, what string, a, b Snapshot) {
		t.Helper()
		a.pooled, b.pooled = nil, nil
		if a != b {
			t.Fatalf("step %d, %s:\n seeded  %+v\n chained %+v", step, what, a, b)
		}
	}

	longest := 0
	checkBooks := func(step int) {
		t.Helper()
		if seeded.Active() != chained.Active() || seeded.Ended() != chained.Ended() ||
			seeded.MemoryEstimate() != chained.MemoryEstimate() || seeded.Evictions() != chained.Evictions() {
			t.Fatalf("step %d: books differ: active %d/%d ended %d/%d estimate %d/%d evictions %+v/%+v", step,
				seeded.Active(), chained.Active(), seeded.Ended(), chained.Ended(),
				seeded.MemoryEstimate(), chained.MemoryEstimate(), seeded.Evictions(), chained.Evictions())
		}
		// Every chained session sits in the one chain: it is as long as the
		// tracker is full.
		longest = max(longest, chained.Active())
	}

	rnd := rand.New(rand.NewSource(26))
	writeBacks := [2]int{} // dropped, stored
	for step := 0; step < 20000; step++ {
		vc.Advance(time.Duration(rnd.Intn(200)) * time.Millisecond)
		key := keys[rnd.Intn(len(keys))]
		switch op := rnd.Intn(100); {
		case op < 45:
			e := entry(key.IP, key.UserAgent, "GET", paths[rnd.Intn(len(paths))], 200+100*rnd.Intn(4), "", vc.Now())
			same(step, "Observe", seeded.Observe(e), chained.Observe(e))
		case op < 60:
			sig := Signal(rnd.Intn(numSignals))
			if newlyA, newlyB := seeded.Mark(key, sig), chained.Mark(key, sig); newlyA != newlyB {
				t.Fatalf("step %d: Mark newly %v vs %v", step, newlyA, newlyB)
			}
			a, _ := peekCopy(seeded, key)
			b, _ := peekCopy(chained, key)
			same(step, "Mark", a, b)
		case op < 72:
			a, okA := seeded.Peek(key)
			b, okB := chained.Peek(key)
			if okA != okB {
				t.Fatalf("step %d: Peek found %v vs %v", step, okA, okB)
			}
			if okA {
				same(step, "Peek", *a, *b)
				a.Release()
				b.Release()
			}
		case op < 80:
			if a, b := seeded.Bump(key), chained.Bump(key); a != b {
				t.Fatalf("step %d: Bump found %v vs %v", step, a, b)
			}
		case op < 92:
			// A write-back from a snapshot that may have gone stale meanwhile.
			a, okA := peekCopy(seeded, key)
			b, _ := peekCopy(chained, key)
			if rnd.Intn(2) == 0 {
				seeded.Mark(key, SignalCSS)
				chained.Mark(key, SignalCSS)
			}
			v := StoredVerdict{ModelEpoch: uint32(step), AtRequest: uint32(rnd.Intn(50)), Rule: uint8(1 + rnd.Intn(9))}
			if okA {
				stored := seeded.StoreVerdict(&a, v)
				if stored != chained.StoreVerdict(&b, v) {
					t.Fatalf("step %d: StoreVerdict disagrees", step)
				}
				if stored {
					writeBacks[1]++
				} else {
					writeBacks[0]++
				}
			}
		case op < 99:
			now := vc.Now()
			if a, b := seeded.SweepStep(now), chained.SweepStep(now); a != b {
				t.Fatalf("step %d: SweepStep ended %d vs %d", step, a, b)
			}
		case rnd.Intn(3) == 0:
			vc.Advance(time.Duration(rnd.Intn(90)) * time.Second)
			if rnd.Intn(2) == 0 {
				now := vc.Now()
				if a, b := expireAll(seeded, now), expireAll(chained, now); a != b {
					t.Fatalf("step %d: a full sweep ended %d vs %d", step, a, b)
				}
			}
		}
		checkBooks(step)
	}

	// A chain's first record is its newest session, which the walk above
	// rarely ends while older ones live on. End one that way: three
	// sessions, the newest left idle while the others are touched.
	trio := keys[:3]
	observe := func(k Key) {
		e := entry(k.IP, k.UserAgent, "GET", "/a.html", 200, "", vc.Now())
		same(-1, "Observe", seeded.Observe(e), chained.Observe(e))
	}
	vc.Advance(time.Hour)
	expireAll(seeded, vc.Now())
	expireAll(chained, vc.Now())
	for _, k := range trio {
		observe(k)
	}
	vc.Advance(50 * time.Second)
	observe(trio[0])
	observe(trio[1])
	vc.Advance(20 * time.Second)
	if a, b := expireAll(seeded, vc.Now()), expireAll(chained, vc.Now()); a != 1 || b != 1 {
		t.Fatalf("a full sweep ended %d and %d sessions, want the newest only", a, b)
	}
	checkBooks(-1)
	for _, k := range trio[:2] {
		a, okA := peekCopy(seeded, k)
		b, okB := peekCopy(chained, k)
		if !okA || !okB {
			t.Fatalf("%v lost after the chain's first record ended: %v %v", k, okA, okB)
		}
		same(-1, "Get", a, b)
	}

	flushedA, flushedB := seeded.FlushAll(), chained.FlushAll()
	if len(flushedA) != len(flushedB) {
		t.Fatalf("FlushAll: %d vs %d sessions", len(flushedA), len(flushedB))
	}
	for i := range flushedA {
		same(i, "FlushAll", flushedA[i], flushedB[i])
	}
	if len(gone[0]) != len(gone[1]) {
		t.Fatalf("Evicted delivered %d vs %d sessions", len(gone[0]), len(gone[1]))
	}
	for i := range gone[0] {
		same(i, "Evicted", gone[0][i], gone[1][i])
	}
	ev := seeded.Evictions()
	t.Logf("longest chain %d; write-backs dropped %d, stored %d; evicted idle %d, capacity %d+%d, flushed %d",
		longest, writeBacks[0], writeBacks[1], ev.Idle, ev.CapacityAnonymous, ev.CapacityEvidence, ev.Flush)
	if longest < 100 || writeBacks[0] == 0 || writeBacks[1] == 0 || ev.Idle == 0 || ev.CapacityAnonymous+ev.CapacityEvidence == 0 {
		t.Fatal("the run never built a long chain, never stored or dropped a write-back, or never evicted for both reasons: it tests nothing")
	}
	// An emptied table's arena keeps one block as its spare, charged for the
	// chunks it handed out and its bookkeeping: at most a 256 KiB block and
	// 256 B. Nothing else may stay charged.
	for _, tr := range []*Tracker{seeded, chained} {
		if est := tr.MemoryEstimate(); tr.bytes.Load() != 0 || est != tr.table.IndexBytes() || est > 256<<10+256 {
			t.Fatalf("estimate after FlushAll: %d B, %d B of it not the table's; want the arena's spare block alone", est, tr.bytes.Load())
		}
	}
}
