package session

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"botdetect/internal/clock"
)

// evictOp is one input to a full tracker shard.
type evictOp int

const (
	opObserveNew  evictOp = iota // a request from a never-seen client
	opObserveTail                // a request from the least recently active session
	opMark0                      // a signal on the k-th session from the LRU tail
	opMark1
	opMark2
	opMarkNew // a signal from a never-seen client: Mark creates the session
	opSweep   // SweepStep, then the clock jumps past the idle timeout
	evictOps  // how many there are
)

func (o evictOp) String() string {
	return [...]string{"opObserveNew", "opObserveTail", "opMark0", "opMark1", "opMark2", "opMarkNew", "opSweep"}[o]
}

const (
	enumMaxSessions = 3
	enumIdle        = time.Hour
)

// modelSession is what the reference remembers of a session.
type modelSession struct {
	key      Key
	evidence bool
	lastSeen time.Time
}

// evictRun is a one-shard tracker at its cap beside a reference model of it:
// the sessions in LRU order (tail first), what ended and why.
type evictRun struct {
	tr       *Tracker
	vc       *clock.Virtual
	lru      []modelSession
	want     EvictionStats
	created  int64
	clients  int        // never-seen keys handed out so far
	requests int        // requests observed so far
	gone     []Snapshot // the Evicted callback's deliveries
}

func newEvictRun() *evictRun {
	r := &evictRun{vc: clock.NewVirtual(time.Time{})}
	r.tr = NewTracker(Config{MaxSessions: enumMaxSessions, Shards: 1, IdleTimeout: enumIdle, Clock: r.vc,
		Evicted: func(s Snapshot) { r.gone = append(r.gone, s) }})
	return r
}

// enumKeys and enumPaths are every client and path a sequence can need, made
// once: the enumeration replays some six million inputs.
var enumKeys, enumPaths = func() (keys [8]Key, paths [8]string) {
	for i := range keys {
		keys[i] = Key{IP: fmt.Sprintf("10.1.0.%d", i+1), UserAgent: "UA"}
		paths[i] = fmt.Sprintf("/p%d.html", i)
	}
	return
}()

func (r *evictRun) newKey() Key {
	r.clients++
	return enumKeys[r.clients-1]
}

// touch is the reference for what Observe (idleSplits) and Mark do to the
// table: a session idle past the timeout ends and starts again on a request
// but not on a signal, the touched session becomes the most recent, and a
// shard over its cap evicts the anonymous session nearest the LRU tail, or
// the tail itself when every session carries evidence.
func (r *evictRun) touch(key Key, evidence, idleSplits bool) {
	now := r.vc.Now()
	s := modelSession{key: key}
	for i, have := range r.lru {
		if have.key != key {
			continue
		}
		r.lru = append(r.lru[:i], r.lru[i+1:]...)
		if idleSplits && now.Sub(have.lastSeen) > enumIdle {
			r.want.Idle++
		} else {
			s = have
		}
		break
	}
	if s.lastSeen.IsZero() {
		r.created++
	}
	s.evidence, s.lastSeen = s.evidence || evidence, now
	r.lru = append(r.lru, s)
	for len(r.lru) > enumMaxSessions {
		victim := 0
		for i, have := range r.lru {
			if !have.evidence {
				victim = i
				break
			}
		}
		if r.lru[victim].evidence {
			r.want.CapacityEvidence++
		} else {
			r.want.CapacityAnonymous++
		}
		r.lru = append(r.lru[:victim], r.lru[victim+1:]...)
	}
}

// apply makes one input on the tracker and the model.
func (r *evictRun) apply(op evictOp) {
	r.vc.Advance(time.Minute)
	now := r.vc.Now()
	observe := func(key Key) {
		// A new path every time, so the session's charged bytes grow too.
		r.tr.ObserveQuiet(entry(key.IP, key.UserAgent, "GET", enumPaths[r.requests], 200, "", now))
		r.requests++
		r.touch(key, false, true)
	}
	mark := func(key Key) {
		r.tr.Mark(key, SignalJS)
		r.touch(key, true, false)
	}
	switch op {
	case opObserveNew:
		observe(r.newKey())
	case opObserveTail:
		if len(r.lru) == 0 {
			observe(r.newKey())
		} else {
			observe(r.lru[0].key)
		}
	case opMark0, opMark1, opMark2:
		if k := int(op - opMark0); k < len(r.lru) {
			mark(r.lru[k].key)
		} else {
			mark(r.newKey())
		}
	case opMarkNew:
		mark(r.newKey())
	case opSweep:
		r.tr.SweepStep(now)
		kept := r.lru[:0]
		for _, have := range r.lru {
			if now.Sub(have.lastSeen) > enumIdle {
				r.want.Idle++
			} else {
				kept = append(kept, have)
			}
		}
		r.lru = kept
		r.vc.Advance(enumIdle + time.Minute)
	}
}

// step applies op and checks the tracker against the model and against its
// own books; anonymousBefore is whether the shard held a session without
// evidence when the input arrived. It returns what broke, or "".
func (r *evictRun) step(op evictOp) string {
	anonymousBefore := false
	for _, have := range r.lru {
		anonymousBefore = anonymousBefore || !have.evidence
	}
	before, delivered := r.tr.Evictions(), len(r.gone)
	r.apply(op)
	got := r.tr.Evictions()

	// The guarantee itself, stated without the model: evidence is evicted for
	// capacity only when there was no anonymous session to take instead —
	// none in the shard and none arriving.
	if got.CapacityEvidence != before.CapacityEvidence && (anonymousBefore || op == opObserveNew || op == opObserveTail) {
		return "an evidence-bearing session was evicted for capacity with an anonymous one in the scan window"
	}
	capacity := (got.CapacityAnonymous - before.CapacityAnonymous) + (got.CapacityEvidence - before.CapacityEvidence)
	idle := int(got.Idle - before.Idle)
	for _, s := range r.gone[delivered+idle:] {
		if want := got.CapacityEvidence != before.CapacityEvidence; s.Signals.Any() != want {
			return fmt.Sprintf("capacity victim %v has evidence: %v, counted as evidence: %v", s.Key, s.Signals.Any(), want)
		}
	}
	if int64(len(r.gone)-delivered) != int64(idle)+capacity {
		return fmt.Sprintf("%d sessions delivered to Evicted, counters moved by %d", len(r.gone)-delivered, int64(idle)+capacity)
	}

	if got != r.want {
		return fmt.Sprintf("evictions %+v, model %+v", got, r.want)
	}
	ended := got.Idle + got.CapacityAnonymous + got.CapacityEvidence + got.Flush
	if r.tr.Ended() != ended || int64(r.tr.Active()) != r.created-ended || r.tr.Active() != len(r.lru) {
		return fmt.Sprintf("%d created, %d ended (counters %+v), Active %d, model holds %d",
			r.created, r.tr.Ended(), got, r.tr.Active(), len(r.lru))
	}
	sh := r.tr.table.Shard(0)
	sh.Lock()
	defer sh.Unlock()
	if sh.Len() > enumMaxSessions || sh.Len() != len(r.lru) {
		return fmt.Sprintf("shard holds %d sessions, cap %d, model %d", sh.Len(), enumMaxSessions, len(r.lru))
	}
	bytes, i := sh.Spill().Bytes(), 0
	for n := sh.Tail(); n != nil; n, i = sh.Prev(n), i+1 {
		key := r.tr.keyOf(n.ID())
		if _, h := r.tr.table.Locate(key); i >= len(r.lru) || key != r.lru[i].key || hasEvidence(sh, n) != r.lru[i].evidence || r.tr.find(sh, h, key) != n {
			return fmt.Sprintf("LRU position %d from the tail holds %v (evidence %v), model %+v", i, key, hasEvidence(sh, n), r.lru)
		}
		if st, _ := sh.Record(n); st != nil && st.npaths > inlinePaths {
			bytes += 4 * int64(cap(r.tr.pathsOf(sh, st).fps))
		}
	}
	if i != len(r.lru) {
		return fmt.Sprintf("LRU list has %d sessions, the model %d", i, len(r.lru))
	}
	if est := r.tr.MemoryEstimate(); est != bytes+r.tr.table.IndexBytes() {
		return fmt.Sprintf("MemoryEstimate %d, the spilled path sets and the spill store are charged %d and the records and index %d", est, bytes, r.tr.table.IndexBytes())
	}
	return ""
}

// TestCapacityEvictionEnumerated is the exhaustive small-scope check of the
// tracker's capacity eviction: every sequence of its seven inputs to depth 7
// over one shard holding at most three sessions, so the shard is at its cap
// for most of every sequence. After each input the tracker must agree with a
// reference model of the table (who is tracked, in which LRU order, with or
// without evidence, and why each session ended), must never have evicted an
// evidence-bearing session for capacity while an anonymous one was there to
// take, and must balance its books: Active, Ended, the Evicted callback and
// the per-reason counters account for every create and remove, and
// MemoryEstimate is exactly the spilled path sets and the spill store plus
// the table's IndexBytes, which holds the records. A tracker cannot be
// forked, so each sequence is replayed from an empty one; the first failure
// prints its sequence. Under the race detector the depth is 5.
func TestCapacityEvictionEnumerated(t *testing.T) {
	depth := 7
	if raceEnabled {
		depth = 5
	}
	seq := make([]evictOp, 0, depth)
	var walk func()
	walk = func() {
		if len(seq) == depth {
			return
		}
		for op := evictOp(0); op < evictOps; op++ {
			run := newEvictRun()
			for _, earlier := range seq {
				run.apply(earlier)
			}
			seq = append(seq, op)
			if why := run.step(op); why != "" {
				names := make([]string, len(seq))
				for i, o := range seq {
					names[i] = o.String()
				}
				t.Fatalf("[%s]\n%s", strings.Join(names, ", "), why)
			}
			walk()
			seq = seq[:len(seq)-1]
		}
	}
	walk()
}
