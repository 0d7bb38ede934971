package fleet

import (
	"fmt"
	"sync"
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

func (nullTransport) Send(string, *Message) error { return nil }

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
	t.Cleanup(r.Stop)
	return r
}

// updateSet builds a mixed durable update stream from three origins.
func updateSet() []Update {
	var ups []Update
	for _, origin := range []string{"a", "b", "c"} {
		epoch := uint64(0)
		for i := 0; i < 40; i++ {
			epoch++
			u := Update{Origin: origin, Inc: 1, Epoch: epoch, Stamp: int64(epoch) * 1000}
			switch i % 3 {
			case 0, 1:
				u.Kind = KindVerdict
				u.Key = key(i * 7)
				u.Class = detect.ClassRobot
				u.Confidence = detect.Definite
				u.Reason = "decoy fetch"
				u.AtRequest = int64(i + 1)
			case 2:
				u.Kind = KindBlock
				u.Key = key(i * 7)
				u.Until = int64(i+1) * int64(time.Hour)
			}
			ups = append(ups, u)
		}
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
	v1 := Update{Origin: "a", Inc: 1, Epoch: 1, Stamp: 100, Kind: KindVerdict,
		Key: k, Class: detect.ClassHuman, Confidence: detect.Probable, Reason: "model"}
	v2 := Update{Origin: "b", Inc: 1, Epoch: 1, Stamp: 50, Kind: KindVerdict,
		Key: k, Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "decoy"}

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
		Key: key(1), Class: detect.ClassRobot, Confidence: detect.Definite}
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
			Key: key(int(e)), Class: detect.ClassRobot, Confidence: detect.Definite}
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

// meshFleet spins up a fully connected started fleet over an in-process mesh.
func meshFleet(t *testing.T, names []string, mut func(string, *Config)) (*Mesh, map[string]*Replicator) {
	t.Helper()
	mesh := NewMesh()
	reps := make(map[string]*Replicator, len(names))
	for _, name := range names {
		cfg := Config{Name: name, Peers: names, Transport: mesh.Bind(name), Seed: uint64(len(name))}
		fastCfg(&cfg)
		if mut != nil {
			mut(name, &cfg)
		}
		r := New(cfg)
		mesh.Attach(r)
		reps[name] = r
	}
	for _, r := range reps {
		r.Start()
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.Stop()
		}
	})
	return mesh, reps
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMeshReplicationConverges: publishes on every node propagate everywhere.
func TestMeshReplicationConverges(t *testing.T) {
	names := []string{"a", "b", "c"}
	_, reps := meshFleet(t, names, nil)
	for i, name := range names {
		reps[name].PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "r"})
		reps[name].PublishBlock(key(i+100), time.Unix(0, int64(time.Hour)))
	}
	waitFor(t, 5*time.Second, "digests to converge", func() bool {
		d := reps["a"].Digest()
		return d != 0 && d == reps["b"].Digest() && d == reps["c"].Digest()
	})
}

// TestAntiEntropyRepairsSilentDrops: batches silently dropped on one link are
// healed by the watermark-driven re-send, with no retry signal at all.
func TestAntiEntropyRepairsSilentDrops(t *testing.T) {
	var dropBatches sync.Map // "on"/nil
	mesh, reps := meshFleet(t, []string{"a", "b"}, nil)
	mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		if _, on := dropBatches.Load("on"); on && from == "a" && to == "b" && msg.Kind == MsgBatch {
			return FateDrop, 0
		}
		return FateDeliver, 0
	})
	dropBatches.Store("on", true)
	for i := 0; i < 20; i++ {
		reps["a"].PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "r"})
	}
	// Give the (dropped) first delivery a moment, then heal the link: only
	// anti-entropy can repair what was silently lost.
	time.Sleep(20 * time.Millisecond)
	if reps["b"].VerdictCount() != 0 {
		t.Fatalf("drops leaked: b has %d verdicts", reps["b"].VerdictCount())
	}
	dropBatches.Delete("on")
	waitFor(t, 5*time.Second, "anti-entropy to backfill b", func() bool {
		return reps["b"].VerdictCount() == 20 && reps["b"].Digest() == reps["a"].Digest()
	})
	if reps["a"].Stats().AEResends == 0 {
		t.Fatalf("expected anti-entropy resends to be counted")
	}
}

// TestCrashRestartBackfill: a node that loses its memory and restarts under a
// new incarnation is repopulated by anti-entropy, model included.
func TestCrashRestartBackfill(t *testing.T) {
	var gotModel sync.Map
	_, reps := meshFleet(t, []string{"a", "b"}, func(name string, c *Config) {
		if name == "b" {
			c.Callbacks.OnModel = func(m *adaboost.Model, seq uint64) { gotModel.Store(seq, m) }
		}
	})
	for i := 0; i < 10; i++ {
		reps["a"].PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "r"})
	}
	reps["a"].PublishModel(&adaboost.Model{})
	waitFor(t, 5*time.Second, "initial convergence", func() bool {
		m, _ := reps["b"].Model()
		return reps["b"].VerdictCount() == 10 && m != nil
	})

	reps["b"].Stop()
	reps["b"].Wipe()
	if reps["b"].VerdictCount() != 0 {
		t.Fatalf("wipe left state behind")
	}
	reps["b"].Restart()
	if reps["b"].Incarnation() != 2 {
		t.Fatalf("incarnation = %d, want 2", reps["b"].Incarnation())
	}
	waitFor(t, 5*time.Second, "post-restart backfill", func() bool {
		m, _ := reps["b"].Model()
		return reps["b"].VerdictCount() == 10 && m != nil && reps["b"].Digest() == reps["a"].Digest()
	})
}

// TestSuspicionAndQuorum: silence flips peers down and quorum loss reports
// Isolated; recovery clears both.
func TestSuspicionAndQuorum(t *testing.T) {
	_, reps := meshFleet(t, []string{"a", "b", "c"}, nil)
	waitFor(t, 5*time.Second, "all peers up", func() bool { return reps["a"].UpPeers() == 2 })
	if reps["a"].Isolated() {
		t.Fatalf("a isolated with all peers up")
	}
	reps["b"].Stop()
	reps["c"].Stop()
	waitFor(t, 5*time.Second, "a to lose quorum", func() bool { return reps["a"].Isolated() })
	reps["b"].Restart()
	reps["c"].Restart()
	waitFor(t, 5*time.Second, "a to regain quorum", func() bool { return !reps["a"].Isolated() })
}

// TestObservationAndHandoff: fire-and-forget observations reach the owner's
// callback; handoff requests are answered from HandoffSource.
func TestObservationAndHandoff(t *testing.T) {
	var obs sync.Map
	var handoff sync.Map
	_, reps := meshFleet(t, []string{"a", "b"}, func(name string, c *Config) {
		switch name {
		case "a":
			c.Callbacks.OnObservation = func(u Update) { obs.Store(u.Path, true) }
			c.Callbacks.HandoffSource = func(k session.Key) ([]SignalAt, bool) {
				return []SignalAt{{Signal: session.SignalMouse, At: 3}}, true
			}
		case "b":
			c.Callbacks.OnHandoff = func(k session.Key, sigs []SignalAt) { handoff.Store(k, sigs) }
		}
	})
	reps["b"].ForwardObservation("a", Update{Key: key(1), Method: "GET", Path: "/p1", Status: 200})
	waitFor(t, 5*time.Second, "observation to arrive", func() bool {
		_, ok := obs.Load("/p1")
		return ok
	})
	reps["b"].RequestHandoff("a", key(1))
	waitFor(t, 5*time.Second, "handoff reply", func() bool {
		v, ok := handoff.Load(key(1))
		if !ok {
			return false
		}
		sigs := v.([]SignalAt)
		return len(sigs) == 1 && sigs[0].Signal == session.SignalMouse && sigs[0].At == 3
	})
}

// TestSendPatienceDropsAndAcks: a peer that always fails sends costs only its
// own outbox — batches drop after patience — while a healthy peer acks.
func TestSendPatienceDropsAndAcks(t *testing.T) {
	mesh, reps := meshFleet(t, []string{"a", "b", "c"}, func(_ string, c *Config) {
		c.SendPatience = 5 * time.Millisecond
	})
	mesh.SetIntercept(func(from, to string, msg *Message) (Fate, time.Duration) {
		if to == "c" {
			return FateFail, 0
		}
		return FateDeliver, 0
	})
	for i := 0; i < 10; i++ {
		reps["a"].PublishVerdict(key(i), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "r"})
	}
	waitFor(t, 5*time.Second, "b to apply and ack", func() bool {
		return reps["b"].VerdictCount() == 10 && reps["a"].AckedEpoch("b") == 10
	})
	waitFor(t, 5*time.Second, "c's batches to drop", func() bool {
		var dropped int64
		for _, ps := range reps["a"].PeerSnapshot() {
			if ps.Name == "c" {
				dropped = ps.Dropped
			}
		}
		return dropped > 0 && reps["a"].AckedEpoch("c") == 0
	})
	if reps["a"].MinAckedEpoch() != 0 {
		t.Fatalf("MinAckedEpoch = %d, want 0 with c unreachable", reps["a"].MinAckedEpoch())
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
	owners := ring.Owners(key(1).Hash(), 2)
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
