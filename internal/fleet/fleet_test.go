package fleet

import (
	"fmt"
	"testing"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/rng"
	"botdetect/internal/session"
)

// nullTransport swallows every send (for replicators exercised only through
// Receive).
type nullTransport struct{}

// incarnation returns the current incarnation number.
func (r *Replicator) incarnation() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inc
}

// ackedEpoch returns the highest own-origin epoch successfully sent to the
// named peer — the origin-side bound on what a peer can be missing.
func (r *Replicator) ackedEpoch(peerName string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.peers[peerName]; ok {
		return p.acked
	}
	return 0
}

func (nullTransport) Send(string, *Message) error { return nil }

// later is an expiry no test reaches.
var later = time.Date(2100, time.January, 1, 0, 0, 0, 0, time.UTC)

func key(i int) session.Key {
	return session.Key{IP: fmt.Sprintf("10.%d.%d.%d", i/65536, (i/256)%256, i%256), UserAgent: "ua"}
}

// testRep builds a started replicator that only receives.
func testRep(t *testing.T, name string, peers []string, mut func(*Config)) *Replicator {
	t.Helper()
	cfg := Config{Name: name, Peers: peers, Transport: nullTransport{}}
	if mut != nil {
		mut(&cfg)
	}
	r := New(cfg)
	r.Start()
	return r
}

// updateSet builds a mixed durable update stream from three origins.
func updateSet() []Update {
	var ups []Update
	for _, origin := range []string{"a", "b", "c"} {
		epoch := uint64(0)
		for i := 0; i < 40; i++ {
			epoch++
			u := Update{Origin: origin, Inc: 1, Epoch: epoch, Stamp: int64(epoch) * 1000, Until: later.UnixNano()}
			switch i % 3 {
			case 0, 1:
				u.Kind = KindVerdict
				u.Key = key(i * 7)
				u.Verdict = detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy, AtRequest: int64(i + 1)}
			case 2:
				u.Kind = KindBlock
				u.Key = key(i * 7)
				u.Until += int64(i+1) * int64(time.Hour)
			}
			ups = append(ups, u)
		}
		// One model publication per origin, two of them racing for sequence 2
		// (the later stamp wins the tie).
		seq := map[string]uint64{"a": 1, "b": 2, "c": 2}[origin]
		ups = append(ups, Update{Origin: origin, Inc: 1, Epoch: epoch + 1, Stamp: int64(origin[0]), Kind: KindModel,
			Model: &adaboost.Model{TrainingError: float64(origin[0])}, ModelSeq: seq})
	}
	return ups
}

func deliverSequential(r *Replicator, ups []Update) {
	for i := range ups {
		r.Receive(&Message{From: ups[i].Origin, Inc: ups[i].Inc, Kind: MsgBatch, Updates: ups[i : i+1]})
	}
}

// TestConvergenceAnyInterleaving is the gossip property test: any delivery
// interleaving with duplicates and reorders (every update eventually arriving
// at least once — the guarantee retry plus anti-entropy provide) converges to
// exactly the sequential-delivery state.
func TestConvergenceAnyInterleaving(t *testing.T) {
	peers := []string{"a", "b", "c", "x"}
	ups := updateSet()

	ref := testRep(t, "x", peers, nil)
	deliverSequential(ref, ups)
	want := ref.Digest()
	if want == 0 {
		t.Fatalf("reference digest is zero — no state merged")
	}

	for seed := uint64(1); seed <= 8; seed++ {
		src := rng.New(seed).Fork("interleave")
		// Schedule each update once, plus ~30% duplicated deliveries, then
		// shuffle the whole schedule (reorder + late duplicates).
		sched := append([]Update(nil), ups...)
		for i := range ups {
			if src.Uint64n(10) < 3 {
				sched = append(sched, ups[i])
			}
		}
		for i := len(sched) - 1; i > 0; i-- {
			j := int(src.Uint64n(uint64(i + 1)))
			sched[i], sched[j] = sched[j], sched[i]
		}

		sub := testRep(t, "x", peers, nil)
		deliverSequential(sub, sched)
		if got := sub.Digest(); got != want {
			t.Fatalf("seed %d: digest %#x after interleaved delivery, want %#x", seed, got, want)
		}
		if sub.VerdictCount() != ref.VerdictCount() || sub.BlockCount() != ref.BlockCount() {
			t.Fatalf("seed %d: store sizes (%d,%d) diverged from (%d,%d)", seed,
				sub.VerdictCount(), sub.BlockCount(), ref.VerdictCount(), ref.BlockCount())
		}
		// The merge is spelled once, so the model and the sequence the next
		// PublishModel would build on end the same on every replica.
		wantM, wantSeq := ref.Model()
		if m, seq := sub.Model(); m != wantM || seq != wantSeq || wantSeq != 2 || wantM.TrainingError != 'c' {
			t.Fatalf("seed %d: model %v at sequence %d, want c's at sequence 2 (reference %v at %d)", seed, m, seq, wantM, wantSeq)
		}
		if sub.PublishModel(&adaboost.Model{}) != wantSeq+1 {
			t.Fatalf("seed %d: next publication does not build on sequence %d", seed, wantSeq)
		}
		if sub.Stats().Replays == 0 {
			t.Fatalf("seed %d: expected duplicate deliveries to be counted as replays", seed)
		}
	}
}

// TestMergeTotalOrder delivers two conflicting verdicts for one key in both
// orders and expects the same winner (higher confidence, then later stamp).
func TestMergeTotalOrder(t *testing.T) {
	peers := []string{"a", "b", "x"}
	k := key(1)
	v1 := Update{Origin: "a", Inc: 1, Epoch: 1, Stamp: 100, Until: later.UnixNano(), Kind: KindVerdict,
		Key: k, Verdict: detect.Verdict{Class: detect.ClassHuman, Confidence: detect.Probable, Rule: detect.RuleLearnedHuman}}
	v2 := Update{Origin: "b", Inc: 1, Epoch: 1, Stamp: 50, Until: later.UnixNano(), Kind: KindVerdict,
		Key: k, Verdict: detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}}

	for name, order := range map[string][]Update{"fwd": {v1, v2}, "rev": {v2, v1}} {
		r := testRep(t, "x", peers, nil)
		deliverSequential(r, order)
		rec, ok := r.VerdictFor(k)
		if !ok {
			t.Fatalf("%s: verdict missing", name)
		}
		if rec.Verdict.Class != detect.ClassRobot || rec.Verdict.Confidence != detect.Definite {
			t.Fatalf("%s: winner = %v/%v, want robot/definite", name, rec.Verdict.Class, rec.Verdict.Confidence)
		}
	}
}

func TestWatermarkRejectsReplays(t *testing.T) {
	r := testRep(t, "x", []string{"a", "x"}, nil)
	u := Update{Origin: "a", Inc: 1, Epoch: 1, Stamp: 1, Kind: KindVerdict,
		Key: key(1), Verdict: detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite}}
	deliverSequential(r, []Update{u, u, u})
	st := r.Stats()
	if st.Applied != 1 || st.Replays != 2 {
		t.Fatalf("applied=%d replays=%d, want 1 and 2", st.Applied, st.Replays)
	}
	if wm := r.Watermark("a"); wm != 1 {
		t.Fatalf("watermark = %d, want 1", wm)
	}
}

// TestStallJumpCountsGaps: a permanently missing epoch stalls the watermark
// only until stallTimeout (five seconds on the replicator's clock), then the
// gap is counted and jumped — the epoch-lag bound on loss.
func TestStallJumpCountsGaps(t *testing.T) {
	vc := clock.NewVirtual(time.Unix(1136505600, 0))
	r := testRep(t, "x", []string{"a", "x"}, func(c *Config) { c.Clock = vc })
	mk := func(e uint64) Update {
		return Update{Origin: "a", Inc: 1, Epoch: e, Stamp: int64(e), Kind: KindVerdict,
			Key: key(int(e)), Verdict: detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite}}
	}
	deliverSequential(r, []Update{mk(1), mk(3)}) // epoch 2 never arrives
	vc.Advance(stallTimeout - time.Millisecond)
	deliverSequential(r, []Update{mk(4)})
	if wm, gaps := r.Watermark("a"), r.Stats().EpochGaps; wm != 1 || gaps != 0 {
		t.Fatalf("watermark = %d, gaps = %d inside the stall timeout, want 1 and 0", wm, gaps)
	}
	vc.Advance(time.Millisecond)
	deliverSequential(r, []Update{mk(5)})
	if wm := r.Watermark("a"); wm != 5 {
		t.Fatalf("watermark = %d, want 5 after stall jump", wm)
	}
	if gaps := r.Stats().EpochGaps; gaps != 1 {
		t.Fatalf("epoch gaps = %d, want 1", gaps)
	}
}

// TestIncarnationReset: a restarted origin's fresh epochs apply under the
// higher incarnation, and the old incarnation's stragglers are rejected.
func TestIncarnationReset(t *testing.T) {
	r := testRep(t, "x", []string{"a", "x"}, nil)
	mk := func(inc uint32, e uint64, stamp int64) Update {
		return Update{Origin: "a", Inc: inc, Epoch: e, Stamp: stamp, Kind: KindBlock,
			Key: key(int(e) + int(inc)*100), Until: stamp + int64(time.Hour)}
	}
	deliverSequential(r, []Update{mk(1, 1, 10), mk(1, 2, 20)})
	deliverSequential(r, []Update{mk(2, 1, 30)}) // restarted origin, dense from 1 again
	if wm := r.Watermark("a"); wm != 1 {
		t.Fatalf("watermark = %d, want 1 under the new incarnation", wm)
	}
	deliverSequential(r, []Update{mk(1, 3, 15)}) // straggler from the dead incarnation
	st := r.Stats()
	if st.StaleInc != 1 {
		t.Fatalf("staleInc = %d, want 1", st.StaleInc)
	}
	if st.Applied != 3 {
		t.Fatalf("applied = %d, want 3", st.Applied)
	}
}

// fastCfg tunes a config for quick mesh tests.
func fastCfg(c *Config) {
	c.HeartbeatInterval = 2 * time.Millisecond
	c.AntiEntropyInterval = 5 * time.Millisecond
	c.RetryBackoff = time.Millisecond
	c.MaxBackoff = 5 * time.Millisecond
	c.SendPatience = 20 * time.Millisecond
}

// testFleet is a fully connected started fleet over an in-process mesh, all
// on one virtual clock that only run and waitFor move.
type testFleet struct {
	vc    *clock.Virtual
	mesh  *Mesh
	names []string
	reps  map[string]*Replicator
}

func meshFleet(t *testing.T, names []string, mut func(string, *Config)) *testFleet {
	t.Helper()
	f := &testFleet{vc: clock.NewVirtual(time.Time{}), mesh: NewMesh(), names: names, reps: map[string]*Replicator{}}
	for _, name := range names {
		cfg := Config{Name: name, Peers: names, Transport: f.mesh.Bind(name), Clock: f.vc, Seed: uint64(len(name))}
		fastCfg(&cfg)
		if mut != nil {
			mut(name, &cfg)
		}
		r := New(cfg)
		f.mesh.Attach(r)
		f.reps[name] = r
		r.Start()
	}
	return f
}

// run advances the fleet by d of virtual time, a millisecond (the finest of
// fastCfg's timings) per step.
func (f *testFleet) run(d time.Duration) {
	for end := f.vc.Now().Add(d); f.vc.Now().Before(end); {
		f.vc.Advance(time.Millisecond)
		now := f.vc.Now()
		f.mesh.Step(now)
		for _, name := range f.names {
			f.reps[name].Step(now)
		}
	}
}

// waitFor steps the fleet until cond holds or d of virtual time has passed.
func (f *testFleet) waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := f.vc.Now().Add(d); !cond(); f.run(time.Millisecond) {
		if !f.vc.Now().Before(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestMeshReplicationConverges: publishes on every node propagate everywhere.
func TestMeshReplicationConverges(t *testing.T) {
	names := []string{"a", "b", "c"}
	f := meshFleet(t, names, nil)
	for i, name := range names {
		f.reps[name].PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
		f.reps[name].PublishBlock(key(i+100), later)
	}
	f.waitFor(t, 5*time.Second, "digests to converge", func() bool {
		d := f.reps["a"].Digest()
		return d != 0 && d == f.reps["b"].Digest() && d == f.reps["c"].Digest()
	})
}

// TestAntiEntropyRepairsSilentDrops: batches silently dropped on one link are
// healed by the watermark-driven re-send, with no retry signal at all.
func TestAntiEntropyRepairsSilentDrops(t *testing.T) {
	dropBatches := true
	f := meshFleet(t, []string{"a", "b"}, nil)
	a, b := f.reps["a"], f.reps["b"]
	f.mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		if dropBatches && from == "a" && to == "b" && msg.Kind == MsgBatch {
			return FateDrop, 0
		}
		return FateDeliver, 0
	})
	for i := 0; i < 20; i++ {
		a.PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
	}
	// Give the (dropped) first delivery a moment, then heal the link: only
	// anti-entropy can repair what was silently lost.
	f.run(20 * time.Millisecond)
	if b.VerdictCount() != 0 {
		t.Fatalf("drops leaked: b has %d verdicts", b.VerdictCount())
	}
	dropBatches = false
	f.waitFor(t, 5*time.Second, "anti-entropy to backfill b", func() bool {
		return b.VerdictCount() == 20 && b.Digest() == a.Digest()
	})
	if a.Stats().AEResends == 0 {
		t.Fatalf("expected anti-entropy resends to be counted")
	}
}

// TestCrashRestartBackfill: a node that loses its memory and restarts under a
// new incarnation is repopulated by anti-entropy, model included — and the
// re-offered model travels under its origin's identity, not the re-offerer's.
func TestCrashRestartBackfill(t *testing.T) {
	gotModel := map[uint64]*adaboost.Model{}
	var reoffered []Update
	f := meshFleet(t, []string{"a", "b"}, func(name string, c *Config) {
		if name == "b" {
			c.Callbacks.OnModel = func(m *adaboost.Model, seq uint64) { gotModel[seq] = m }
		}
	})
	a, b := f.reps["a"], f.reps["b"]
	f.mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		for _, u := range msg.Updates {
			if u.Kind == KindModel && u.Epoch == 0 {
				reoffered = append(reoffered, u)
			}
		}
		return FateDeliver, 0
	})
	for i := 0; i < 10; i++ {
		a.PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
	}
	model := &adaboost.Model{}
	a.PublishModel(model)
	f.waitFor(t, 5*time.Second, "initial convergence", func() bool {
		m, _ := b.Model()
		return b.VerdictCount() == 10 && m != nil
	})

	b.Stop()
	b.Wipe()
	if b.VerdictCount() != 0 {
		t.Fatalf("wipe left state behind")
	}
	b.Restart()
	if b.incarnation() != 2 {
		t.Fatalf("incarnation = %d, want 2", b.incarnation())
	}
	f.waitFor(t, 5*time.Second, "post-restart backfill", func() bool {
		m, _ := b.Model()
		return b.VerdictCount() == 10 && m != nil && b.Digest() == a.Digest()
	})
	if gotModel[1] != model {
		t.Fatalf("b's OnModel saw %v, want the published model at sequence 1", gotModel)
	}
	// b re-offers a's model back to a: still a's name, a's incarnation.
	f.run(20 * time.Millisecond)
	fromB := false
	for _, u := range reoffered {
		if u.Origin != "a" || u.Inc != 1 {
			t.Fatalf("model re-offered as %s/inc %d, want its origin a/inc 1", u.Origin, u.Inc)
		}
		fromB = fromB || b.incarnation() != u.Inc
	}
	if !fromB {
		t.Fatalf("restarted b (inc 2) never re-offered the model")
	}
}

// TestOrphansAdoptedAfterOriginRestart: what an origin published under a dead
// incarnation cannot be backfilled by watermark once its peers have seen the
// new one — the fence would refuse it — so whoever holds it re-publishes it
// as its own. Here c missed a's first five verdicts (silent drops) and a lost
// them in its crash; b's adoption brings them to both.
func TestOrphansAdoptedAfterOriginRestart(t *testing.T) {
	dropToC := true
	f := meshFleet(t, []string{"a", "b", "c"}, nil)
	a, b, c := f.reps["a"], f.reps["b"], f.reps["c"]
	f.mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		if dropToC && from == "a" && to == "c" && msg.Kind == MsgBatch {
			return FateDrop, 0
		}
		return FateDeliver, 0
	})
	robot := detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}
	for i := 0; i < 5; i++ {
		a.PublishVerdict(key(i), robot, later)
	}
	f.run(time.Millisecond)
	if b.VerdictCount() != 5 || c.VerdictCount() != 0 {
		t.Fatalf("b holds %d and c %d of a's verdicts, want 5 and 0", b.VerdictCount(), c.VerdictCount())
	}
	a.Stop()
	a.Wipe()
	a.Restart()
	a.PublishVerdict(key(5), robot, later) // peers learn of incarnation 2 before any backfill
	dropToC = false
	f.waitFor(t, time.Second, "the orphans to reach a and c", func() bool {
		return a.VerdictCount() == 6 && c.VerdictCount() == 6 && a.Digest() == b.Digest() && b.Digest() == c.Digest()
	})
	if rec, _ := c.VerdictFor(key(0)); rec.Origin != "b" || rec.Verdict.Origin != "a" {
		t.Fatalf("c holds a's old verdict under %s/inc %d authored by %q, want it adopted by b, authored by a",
			rec.Origin, rec.Inc, rec.Verdict.Origin)
	}
}

// TestOwnVerdictRenewedWhileSessionGoesOn: the origin carries its verdict
// past the expiry it first published while the session it judged goes on,
// and lets it lapse with the session.
func TestOwnVerdictRenewedWhileSessionGoesOn(t *testing.T) {
	const life = time.Hour
	var sessionEnd time.Time
	f := meshFleet(t, []string{"a", "b"}, func(name string, c *Config) {
		if name == "a" {
			c.Callbacks.SessionEnd = func(session.Key) (time.Time, bool) { return sessionEnd, !sessionEnd.IsZero() }
		}
	})
	a, b := f.reps["a"], f.reps["b"]
	start := f.vc.Now()
	sessionEnd = start.Add(life)
	a.PublishVerdict(key(1), detect.Verdict{Class: detect.ClassHuman, Confidence: detect.Definite, Rule: detect.RuleCaptcha}, sessionEnd)
	f.waitFor(t, time.Second, "b to hold the verdict", func() bool { _, ok := b.VerdictFor(key(1)); return ok })
	// The client keeps browsing: a request every ten minutes for two hours.
	for at := 10 * time.Minute; at <= 2*time.Hour; at += 10 * time.Minute {
		f.vc.Advance(start.Add(at).Sub(f.vc.Now()))
		sessionEnd = f.vc.Now().Add(life)
		f.run(time.Millisecond)
		if _, ok := b.VerdictFor(key(1)); !ok {
			t.Fatalf("b lost the verdict %v into a session still browsing", at)
		}
	}
	if rec, _ := b.VerdictFor(key(1)); rec.Origin != "a" || rec.Verdict.Origin != "a" {
		t.Fatalf("renewed verdict travels as %s authored by %q, want a's own", rec.Origin, rec.Verdict.Origin)
	}
	// The client goes quiet: the verdict ends with its session.
	f.vc.Advance(sessionEnd.Sub(f.vc.Now()))
	f.run(time.Millisecond)
	if _, ok := b.VerdictFor(key(1)); ok {
		t.Fatalf("b still serves the verdict past its session's end")
	}
}

// TestAckedEpochCountsThisIncarnationOnly: a restarted node re-sends what it
// backfilled of its dead incarnation like any other entry a peer is missing;
// those epochs are not acks of anything it has published since.
func TestAckedEpochCountsThisIncarnationOnly(t *testing.T) {
	dropToC := true
	f := meshFleet(t, []string{"a", "b", "c"}, nil)
	a, c := f.reps["a"], f.reps["c"]
	f.mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		if dropToC && to == "c" && msg.Kind == MsgBatch {
			return FateDrop, 0
		}
		return FateDeliver, 0
	})
	for i := 0; i < 5; i++ {
		a.PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
	}
	f.run(time.Millisecond)
	a.Stop()
	a.Wipe()
	a.Restart()
	f.waitFor(t, time.Second, "a to backfill its own history from b", func() bool { return a.VerdictCount() == 5 })
	dropToC = false
	f.waitFor(t, time.Second, "c to be repaired", func() bool { return c.VerdictCount() == 5 })
	f.run(20 * time.Millisecond)
	if sent := a.PeerSnapshot()[1].Sent; sent == 0 {
		t.Fatalf("a re-sent nothing to c; the scenario did not happen")
	}
	if acked, published := a.ackedEpoch("c"), a.PublishedEpoch(); acked != 0 || published != 0 {
		t.Fatalf("a claims epoch %d acked by c having published %d under this incarnation", acked, published)
	}
}

// TestAcksVoidedByPeerRestart: a peer that crashed forgot what it had been
// delivered, so its first frame under a new incarnation voids its acks — they
// are not regained until the entries reach it again.
func TestAcksVoidedByPeerRestart(t *testing.T) {
	restarted, heard := false, false
	f := meshFleet(t, []string{"a", "b"}, nil)
	a, b := f.reps["a"], f.reps["b"]
	f.mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		if restarted && from == "a" && msg.Kind == MsgBatch {
			return FateDrop, 0
		}
		heard = heard || restarted && from == "b"
		return FateDeliver, 0
	})
	for i := 0; i < 5; i++ {
		a.PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
	}
	f.waitFor(t, time.Second, "b to ack a's verdicts", func() bool { return a.ackedEpoch("b") == 5 })
	b.Stop()
	b.Wipe()
	b.Restart()
	restarted = true
	f.waitFor(t, time.Second, "b's first frame after its restart", func() bool { return heard })
	if got := a.ackedEpoch("b"); got != 0 {
		t.Fatalf("a holds epoch %d acked by b after b restarted empty", got)
	}
}

// TestSuspicionAndQuorum: silence flips peers down and quorum loss reports
// Isolated; recovery clears both.
func TestSuspicionAndQuorum(t *testing.T) {
	f := meshFleet(t, []string{"a", "b", "c"}, nil)
	a := f.reps["a"]
	f.waitFor(t, 5*time.Second, "all peers up", func() bool { return a.UpPeers() == 2 })
	if a.Isolated() {
		t.Fatalf("a isolated with all peers up")
	}
	f.reps["b"].Stop()
	f.reps["c"].Stop()
	f.waitFor(t, 5*time.Second, "a to lose quorum", a.Isolated)
	f.reps["b"].Restart()
	f.reps["c"].Restart()
	f.waitFor(t, 5*time.Second, "a to regain quorum", func() bool { return !a.Isolated() })
}

// TestObservationAndHandoff: fire-and-forget observations reach the owner's
// callback; handoff requests are answered from HandoffSource.
func TestObservationAndHandoff(t *testing.T) {
	obs := map[string]bool{}
	handoff := map[session.Key][]SignalAt{}
	f := meshFleet(t, []string{"a", "b"}, func(name string, c *Config) {
		switch name {
		case "a":
			c.Callbacks.OnObservation = func(u Update) { obs[u.Path] = true }
			c.Callbacks.HandoffSource = func(k session.Key) ([]SignalAt, bool) {
				return []SignalAt{{Signal: session.SignalMouse, At: 3}}, true
			}
		case "b":
			c.Callbacks.OnHandoff = func(k session.Key, sigs []SignalAt) { handoff[k] = sigs }
		}
	})
	f.reps["b"].ForwardObservation("a", Update{Key: key(1), Method: "GET", Path: "/p1", Status: 200})
	f.waitFor(t, 5*time.Second, "observation to arrive", func() bool { return obs["/p1"] })
	f.reps["b"].RequestHandoff("a", key(1))
	f.waitFor(t, 5*time.Second, "handoff reply", func() bool {
		sigs := handoff[key(1)]
		return len(sigs) == 1 && sigs[0].Signal == session.SignalMouse && sigs[0].At == 3
	})
}

// TestSendPatienceDropsAndAcks: a peer that always fails sends costs only its
// own outbox — batches drop after patience — while a healthy peer acks.
func TestSendPatienceDropsAndAcks(t *testing.T) {
	f := meshFleet(t, []string{"a", "b", "c"}, func(_ string, c *Config) {
		c.SendPatience = 5 * time.Millisecond
	})
	a := f.reps["a"]
	attempts := 0
	f.mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		if to == "c" {
			if from == "a" && msg.Kind == MsgBatch {
				attempts++
			}
			return FateFail, 0
		}
		return FateDeliver, 0
	})
	for i := 0; i < 10; i++ {
		a.PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
	}
	f.waitFor(t, 5*time.Second, "c's batches to drop", func() bool {
		var dropped int64
		for _, ps := range a.PeerSnapshot() {
			if ps.Name == "c" {
				dropped = ps.Dropped
			}
		}
		return dropped > 0 && a.ackedEpoch("c") == 0
	})
	// Retried with doubling backoff inside the 5ms of patience: more than
	// once, and not once per step.
	if attempts < 2 || attempts > 5 {
		t.Fatalf("a made %d attempts at c's batch before dropping it, want 2..5", attempts)
	}
	f.waitFor(t, 5*time.Second, "b to apply and ack", func() bool {
		return f.reps["b"].VerdictCount() == 10 && a.ackedEpoch("b") == 10
	})
	if a.MinAckedEpoch() != 0 {
		t.Fatalf("MinAckedEpoch = %d, want 0 with c unreachable", a.MinAckedEpoch())
	}
}

// TestDelayedMessagesWaitForMeshStep: a delayed message reports success to
// its sender at once and reaches its target at the first mesh Step at or
// after its due time — never by sleeping, never early.
func TestDelayedMessagesWaitForMeshStep(t *testing.T) {
	f := meshFleet(t, []string{"a", "b"}, nil)
	f.mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		if msg.Kind == MsgBatch {
			return FateDup, 10 * time.Millisecond
		}
		return FateDeliver, 0
	})
	f.reps["a"].PublishVerdict(key(1), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
	f.run(time.Millisecond)
	sentAt := f.vc.Now()
	if got := f.reps["a"].ackedEpoch("b"); got != 1 {
		t.Fatalf("acked epoch = %d, want 1: the link took the frame", got)
	}
	f.waitFor(t, time.Second, "the delayed verdict", func() bool { return f.reps["b"].VerdictCount() == 1 })
	if waited := f.vc.Now().Sub(sentAt); waited != 10*time.Millisecond {
		t.Fatalf("delivered %v after the send, want the 10ms delay", waited)
	}
	if st := f.reps["b"].Stats(); st.Applied != 1 || st.Replays != 1 {
		t.Fatalf("applied=%d replays=%d, want the duplicated frame applied once and replayed once", st.Applied, st.Replays)
	}
}

// TestStoppedReplicatorIgnoresStep: Stop is a state flip — a stopped
// replicator refuses Receive, sends nothing when stepped, and keeps its
// outbox for the next Start.
func TestStoppedReplicatorIgnoresStep(t *testing.T) {
	f := meshFleet(t, []string{"a", "b"}, nil)
	a, b := f.reps["a"], f.reps["b"]
	a.Stop()
	a.PublishVerdict(key(1), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
	f.run(50 * time.Millisecond)
	if b.VerdictCount() != 0 || b.PeerUp("a") {
		t.Fatalf("stopped a reached b: verdicts=%d up=%v", b.VerdictCount(), b.PeerUp("a"))
	}
	if err := a.Receive(&Message{From: "b", Kind: MsgHeartbeat}); err != ErrNodeDown {
		t.Fatalf("stopped Receive = %v, want ErrNodeDown", err)
	}
	a.Start()
	f.run(50 * time.Millisecond)
	if b.VerdictCount() != 1 {
		t.Fatalf("retained outbox not delivered after Start: b has %d verdicts", b.VerdictCount())
	}
}

// reentrantTransport calls back into the sending replicator from Send, the
// way a transport that reports health or an in-process peer that answers at
// once would.
type reentrantTransport struct{ r *Replicator }

func (rt *reentrantTransport) Send(to string, msg *Message) error {
	rt.r.Stats()
	rt.r.PeerSnapshot()
	rt.r.PublishBlock(key(900+len(msg.Updates)), later)
	return nil
}

// TestNoLockAcrossSendOrCallbacks: the replicator's one mutex is never held
// across Transport.Send or a Callbacks function — both call straight back
// into Publish*, Stats and the state reads here, which would deadlock.
func TestNoLockAcrossSendOrCallbacks(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt := &reentrantTransport{}
		var r *Replicator
		reenter := func(k session.Key) {
			r.Stats()
			r.VerdictFor(k)
			r.PublishVerdict(session.Key{IP: k.IP, UserAgent: "echo"}, detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite}, later)
		}
		r = New(Config{Name: "x", Peers: []string{"a", "x"}, Transport: rt, Callbacks: Callbacks{
			OnVerdict:     func(k session.Key) { reenter(k) },
			OnBlock:       func(k session.Key, _ time.Time) { reenter(k) },
			OnModel:       func(*adaboost.Model, uint64) { reenter(key(0)) },
			OnObservation: func(u Update) { reenter(u.Key) },
			OnHandoff:     func(k session.Key, _ []SignalAt) { reenter(k) },
			HandoffSource: func(k session.Key) ([]SignalAt, bool) {
				reenter(k)
				return []SignalAt{{Signal: session.SignalMouse, At: 1}}, true
			},
			SessionEnd: func(k session.Key) (time.Time, bool) {
				reenter(k)
				return later.Add(time.Hour), true
			},
		}})
		rt.r = r
		r.Start()
		ups := []Update{
			{Origin: "a", Inc: 1, Epoch: 1, Stamp: 1, Kind: KindVerdict, Key: key(1), Until: later.UnixNano(), Verdict: detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite}},
			{Origin: "a", Inc: 1, Epoch: 2, Stamp: 2, Kind: KindBlock, Key: key(2), Until: later.UnixNano()},
			{Origin: "a", Inc: 1, Epoch: 3, Stamp: 3, Kind: KindModel, Model: &adaboost.Model{}, ModelSeq: 1},
			{Origin: "a", Inc: 1, Kind: KindObservation, Key: key(4)},
			{Origin: "a", Inc: 1, Kind: KindHandoff, Key: key(5)},
			{Origin: "a", Inc: 1, Kind: KindHandoff, Key: key(6), HandoffReply: true},
		}
		deliverSequential(r, ups)
		for i := 0; i < 3; i++ {
			r.Step(time.Unix(int64(i), 0))
		}
		r.Step(later.Add(-time.Second)) // the echo verdicts are due for renewal
		if st := r.Stats(); st.Published < 6 {
			t.Errorf("published = %d, want every callback's re-entrant publish counted", st.Published)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: the replicator held its mutex across Transport.Send or a callback")
	}
}

// TestRingDistributionAndMovement: vnode hashing spreads keys roughly evenly
// and losing one node only moves that node's keys.
func TestRingDistributionAndMovement(t *testing.T) {
	nodes := []string{"n0", "n1", "n2", "n3"}
	ring := NewRing(nodes)
	counts := map[string]int{}
	const keys = 8192
	primaries := make([]string, keys)
	for i := 0; i < keys; i++ {
		p := ring.Primary(key(i).Hash())
		counts[p]++
		primaries[i] = p
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("node %s owns %.1f%% of the keyspace — vnode spread broken", n, share*100)
		}
	}
	// Owners are distinct.
	owners := ring.OwnersAppend(key(1).Hash(), 2, nil)
	if len(owners) != 2 || owners[0] == owners[1] {
		t.Fatalf("owners = %v, want 2 distinct", owners)
	}
	// Remove n3: only keys n3 owned may move.
	smaller := NewRing(nodes[:3])
	for i := 0; i < keys; i++ {
		p := smaller.Primary(key(i).Hash())
		if primaries[i] != "n3" && p != primaries[i] {
			t.Fatalf("key %d moved %s → %s though its owner survived", i, primaries[i], p)
		}
	}
}

// BenchmarkVerdictFor measures the serving chain's remote-stage lookup
// against a store of 65,536 live verdicts, alone and with a concurrent Step
// running a full prune-and-renew scan on every call (the worst case: Step
// holds the mutex across the whole store).
func BenchmarkVerdictFor(b *testing.B) {
	const entries = 1 << 16
	vc := clock.NewVirtual(time.Time{})
	r := New(Config{Name: "x", Peers: []string{"a", "x"}, Transport: nullTransport{}, Clock: vc,
		Callbacks: Callbacks{SessionEnd: func(session.Key) (time.Time, bool) { return time.Time{}, false }}})
	r.Start()
	until := vc.Now().Add(time.Hour)
	keys := make([]session.Key, entries)
	for i := range keys {
		keys[i] = key(i)
		r.PublishVerdict(keys[i], detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite}, until)
	}
	lookup := func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if _, ok := r.VerdictFor(keys[i%entries]); !ok {
					b.Error("lookup missed a live verdict")
					return
				}
			}
		})
	}
	b.Run("idle", lookup)
	b.Run("stepping", func(b *testing.B) {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			// A prune pass is due every quarter hour of the clock; moving the
			// clock by that much but staying short of every expiry makes each
			// Step scan the whole store.
			for t := vc.Now(); ; t = t.Add(15 * time.Minute) {
				select {
				case <-stop:
					return
				default:
				}
				if !t.Before(until) {
					t = vc.Now()
				}
				r.mu.Lock()
				r.pruned = 0
				r.mu.Unlock()
				r.Step(t)
			}
		}()
		lookup(b)
		close(stop)
		<-done
	})
}
