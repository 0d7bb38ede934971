package fleet

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/session"
)

// mergeJump is how far the clock jump input moves time. An origin's
// publications live two jumps (a) or one (b), so of two verdicts published
// at once the one a loses to by name lapses first. Five jumps stay inside
// stallTimeout: a frame later than that is given up on by the watermark and
// counted lost (EpochGaps), which is the epoch-lag bound, not a merge.
const mergeJump = 900 * time.Millisecond

// mergeNames are the two replicas, each an origin and the other's only peer;
// a publishes robot verdicts and b human ones, so their verdicts conflict.
var (
	mergeNames   = [2]string{"a", "b"}
	mergeClasses = [2]detect.Class{detect.ClassRobot, detect.ClassHuman}
	mergeLives   = [2]time.Duration{2 * mergeJump, mergeJump}
)

// mergeOps are each origin's inputs: publish a verdict or a block on one of
// two keys, deliver its oldest frame in flight to the other replica, deliver
// a copy of its newest (a duplicate that overtakes the frames before it), or
// crash (stop, wipe, restart).
var mergeOps = []string{"verdict k0", "verdict k1", "block k0", "block k1", "deliver", "duplicate", "crash"}

// mergeInputs counts both origins' inputs plus the clock jump, the last.
var mergeInputs = 2*len(mergeOps) + 1

func mergeInputName(in int) string {
	if in == mergeInputs-1 {
		return "jump"
	}
	return mergeNames[in/len(mergeOps)] + " " + mergeOps[in%len(mergeOps)]
}

var mergeKeys = [2]session.Key{{IP: "10.0.0.1", UserAgent: "k0"}, {IP: "10.0.0.1", UserAgent: "k1"}}

// flightTransport queues every frame a replica sends until the enumeration
// delivers it.
type flightTransport struct{ q *[]*Message }

func (t flightTransport) Send(_ string, msg *Message) error {
	*t.q = append(*t.q, msg)
	return nil
}

// mergeRun is the two replicas on one virtual clock and the frames in flight
// from each to the other, oldest first.
type mergeRun struct {
	vc     *clock.Virtual
	reps   [2]*Replicator
	flight [2][]*Message
}

func newMergeRun() *mergeRun {
	r := &mergeRun{vc: clock.NewVirtual(time.Time{})}
	for i, name := range mergeNames {
		r.reps[i] = New(Config{Name: name, Peers: mergeNames[:], Transport: flightTransport{&r.flight[i]}, Clock: r.vc,
			HeartbeatInterval: time.Millisecond, AntiEntropyInterval: time.Millisecond})
		r.reps[i].Start()
	}
	r.stepAll()
	for o := range r.flight {
		for _, msg := range r.flight[o] {
			r.reps[1-o].Receive(msg) // the first heartbeats: each has heard the other
		}
		r.flight[o] = nil
	}
	return r
}

func (r *mergeRun) stepAll() {
	for _, rep := range r.reps {
		rep.Step(r.vc.Now())
	}
}

// entryID names one store entry.
type entryID struct {
	kind int
	key  session.Key
}

func entriesOf(rep *Replicator) map[entryID]Record {
	out := map[entryID]Record{}
	for kind, store := range rep.stores {
		for k, rec := range store {
			out[entryID{kind, k}] = rec
		}
	}
	return out
}

// apply makes one input and then steps both replicas, which flushes what it
// published into flight. It reports an input that changed nothing (the
// enumeration skips it: its subtree is its parent's) and what broke.
func (r *mergeRun) apply(in int) (noop bool, why string) {
	if in == mergeInputs-1 {
		r.vc.Advance(mergeJump)
	} else {
		o := in / len(mergeOps)
		until := r.vc.Now().Add(mergeLives[o])
		switch op := in % len(mergeOps); op {
		case 0, 1:
			noop = !r.reps[o].PublishVerdict(mergeKeys[op], detect.Verdict{Class: mergeClasses[o], Confidence: detect.Definite}, until)
		case 2, 3:
			noop = !r.reps[o].PublishBlock(mergeKeys[op-2], until)
		case 4, 5:
			if len(r.flight[o]) == 0 {
				return true, ""
			}
			msg := r.flight[o][len(r.flight[o])-1]
			if op == 4 {
				msg, r.flight[o] = r.flight[o][0], r.flight[o][1:]
			}
			why = r.deliver(1-o, msg)
		case 6:
			r.reps[o].Stop()
			r.reps[o].Wipe()
			r.reps[o].Restart()
		}
	}
	if noop || why != "" {
		return noop, why
	}
	r.stepAll()
	return false, r.check()
}

// deliver hands one frame to reps[to], a batch one update at a time, so that
// each can be checked: an update from an incarnation the replica has already
// seen superseded changes nothing, and neither does one that has lapsed.
func (r *mergeRun) deliver(to int, msg *Message) string {
	rep := r.reps[to]
	if msg.Kind == MsgHeartbeat {
		rep.Receive(msg)
		return ""
	}
	for _, u := range msg.Updates {
		one := &Message{From: msg.From, Inc: msg.Inc, Kind: MsgBatch, Updates: []Update{u}}
		os := rep.wms[u.Origin]
		fenced := os != nil && u.Inc < os.inc
		if !fenced && u.Until > r.vc.Now().UnixNano() {
			rep.Receive(one)
			continue
		}
		before, applied := entriesOf(rep), rep.Stats().Applied
		rep.Receive(one)
		switch {
		case fenced && (rep.Stats().Applied != applied || !maps.Equal(before, entriesOf(rep))):
			return fmt.Sprintf("%s applied %s's epoch %d of incarnation %d after seeing incarnation %d",
				mergeNames[to], u.Origin, u.Epoch, u.Inc, os.inc)
		case !maps.Equal(before, entriesOf(rep)):
			return fmt.Sprintf("%s stored %s's epoch %d, lapsed on arrival", mergeNames[to], u.Origin, u.Epoch)
		}
	}
	return ""
}

// check holds after every input: VerdictFor serves exactly the live verdict
// records. (Every update that reaches a store passes through deliver, which
// checks that a lapsed one stores nothing.)
func (r *mergeRun) check() string {
	now := r.vc.Now().UnixNano()
	for i, rep := range r.reps {
		for k := 0; k < 2; k++ {
			rec, ok := rep.stores[KindVerdict][mergeKeys[k]]
			ok = ok && rec.Until > now
			if got, gotOK := rep.VerdictFor(mergeKeys[k]); gotOK != ok || got != rec && ok {
				return fmt.Sprintf("%s's VerdictFor(k%d) = %+v, %v; the store holds %+v, live %v", mergeNames[i], k, got, gotOK, rec, ok)
			}
		}
	}
	return ""
}

// settle delivers every frame in flight, lets heartbeats and anti-entropy
// run for ten milliseconds doing the same, and reports whether the replicas
// then disagree.
func (r *mergeRun) settle() string {
	for round := 0; round < 10; round++ {
		for o := range r.flight {
			for len(r.flight[o]) > 0 {
				msg := r.flight[o][0]
				r.flight[o] = r.flight[o][1:]
				if why := r.deliver(1-o, msg); why != "" {
					return why
				}
			}
		}
		r.vc.Advance(time.Millisecond)
		r.stepAll()
	}
	a, b := r.reps[0], r.reps[1]
	if gaps := a.Stats().EpochGaps + b.Stats().EpochGaps; gaps != 0 {
		return fmt.Sprintf("watermarks jumped %d epochs: the run outlasted stallTimeout", gaps)
	}
	if a.Digest() != b.Digest() {
		return fmt.Sprintf("settled replicas disagree: a holds %v, b holds %v", entriesOf(a), entriesOf(b))
	}
	for k := 0; k < 2; k++ {
		va, oka := a.VerdictFor(mergeKeys[k])
		vb, okb := b.VerdictFor(mergeKeys[k])
		if oka != okb || va.Verdict != vb.Verdict || va.Until != vb.Until {
			return fmt.Sprintf("settled replicas serve k%d as %+v (%v) and %+v (%v)", k, va, oka, vb, okb)
		}
	}
	return ""
}

// TestReplicaMergeEnumerated is the exhaustive small-scope check of the
// merge: two replicas, each an origin, every sequence of their 15 inputs
// (publish a verdict or a block on either of two keys, deliver a frame or a
// duplicate that overtakes, crash with wipe and restart, and the clock
// jumping past b's publications after one jump and a's after two) to depth 4,
// replayed on live replicators whose frames wait in flight until an input
// delivers them. After every input no lapsed entry may be stored and
// VerdictFor must serve exactly the live records; an update that arrives
// lapsed, or from an incarnation already seen superseded, must change
// nothing; and once every frame is delivered and anti-entropy has run, the
// replicas must agree.
// The first failure prints its sequence. Under the race detector the depth
// is 3.
func TestReplicaMergeEnumerated(t *testing.T) {
	depth := 4
	if raceEnabled {
		depth = 3
	}
	name := func(seq []int) string {
		names := make([]string, len(seq))
		for i, in := range seq {
			names[i] = mergeInputName(in)
		}
		return strings.Join(names, ", ")
	}
	var walk func(seq []int)
	walk = func(seq []int) {
		for in := 0; in < mergeInputs; in++ {
			next := append(seq[:len(seq):len(seq)], in)
			run := newMergeRun()
			noop, why := false, ""
			for _, x := range next {
				if noop, why = run.apply(x); why != "" {
					break
				}
			}
			switch {
			case why != "":
				t.Fatalf("[%s]\n%s", name(next), why)
			case noop:
			case len(next) < depth:
				walk(next)
			default:
				if why := run.settle(); why != "" {
					t.Fatalf("[%s], settled\n%s", name(next), why)
				}
			}
		}
	}
	walk(nil)
}
