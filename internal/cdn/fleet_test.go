package cdn

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/agents"
	"botdetect/internal/chaos"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/detect"
	"botdetect/internal/fleet"
	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/shard"
	"botdetect/internal/webmodel"
)

// fleetNet builds a replicated network at the fleet's fixed timings.
func fleetNet(t *testing.T, numNodes int, intercept fleet.Intercept) (*Network, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(time.Time{})
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 11, NumPages: 20})
	net := NewNetwork(numNodes, site, core.Config{Seed: 7, Clock: vc}, true, 99)
	net.EnableReplication(FleetConfig{Seed: 42, Intercept: intercept})
	t.Cleanup(net.StopReplication)
	runUntil(t, vc, 5*time.Second, "fleet heartbeats to settle", func() bool {
		for _, nd := range net.Nodes() {
			if nd.Replicator().UpPeers() != numNodes-1 {
				return false
			}
		}
		return true
	})
	return net, vc
}

// runUntil runs the fleet's clock — the replicators step as events on it —
// until cond holds or d of virtual time has passed.
func runUntil(t *testing.T, vc *clock.Virtual, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := vc.Now().Add(d); !cond(); vc.RunUntil(vc.Now().Add(time.Millisecond)) {
		if !vc.Now().Before(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// readVerdict is one verdict read: Decide, then Release.
func readVerdict(e *core.Engine, key session.Key) core.Verdict {
	snap, v, _ := e.Decide(key)
	snap.Release()
	return v
}

// TestFleetVerdictReplication: a Definite verdict derived on one node's
// engine (CAPTCHA pass) reaches every peer's replicator tagged with its
// origin, and a peer serving the session answers with it through its remote
// detector stage.
func TestFleetVerdictReplication(t *testing.T) {
	net, vc := fleetNet(t, 3, nil)
	ip, ua := "10.1.0.1", "Firefox"
	key := session.Key{IP: ip, UserAgent: ua}
	home := net.NodeFor(ip)

	net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: agents.CaptchaSolvePath})
	net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})

	runUntil(t, vc, 5*time.Second, "verdict to reach every peer", func() bool {
		for _, nd := range net.Nodes() {
			rec, ok := nd.Replicator().VerdictFor(key)
			if !ok || rec.Verdict.Class != detect.ClassHuman || rec.Verdict.Confidence != detect.Definite {
				return false
			}
			if rec.Origin != home.Name() {
				t.Fatalf("replicated verdict origin = %q, want %q", rec.Origin, home.Name())
			}
		}
		return true
	})
	for _, nd := range net.Nodes() {
		if nd == home {
			continue
		}
		nd.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
		if v := readVerdict(nd.Engine(), key); v.Class != detect.ClassHuman || v.Origin != home.Name() {
			t.Fatalf("node %s serves %+v, want the human verdict from %s", nd.Name(), v, home.Name())
		}
	}
}

// TestCrashForgetsReplicatedVerdicts: a crash loses the peers' verdicts with
// the rest of the replicated state. Restarted with its links cut, so nothing
// can backfill them, the node judges the session from its own evidence.
func TestCrashForgetsReplicatedVerdicts(t *testing.T) {
	links := chaos.NewLinks()
	net, vc := fleetNet(t, 3, links.Intercept)
	ip, ua := "10.1.0.2", "Firefox"
	key := session.Key{IP: ip, UserAgent: ua}
	home := net.NodeFor(ip)
	var b *Node
	for _, nd := range net.Nodes() {
		if nd != home {
			b = nd
			break
		}
	}

	home.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: agents.CaptchaSolvePath})
	home.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
	runUntil(t, vc, 5*time.Second, "the verdict to reach "+b.Name(), func() bool {
		_, ok := b.Replicator().VerdictFor(key)
		return ok
	})

	var others []string
	for _, nd := range net.Nodes() {
		if nd != b {
			others = append(others, nd.Name())
		}
	}
	links.Partition([]string{b.Name()}, others)
	b.Crash()
	b.Restart()
	vc.RunUntil(vc.Now().Add(20 * time.Millisecond))

	b.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
	if v := readVerdict(b.Engine(), key); v.Origin != "" {
		t.Fatalf("restarted %s serves %+v, a verdict from %s it should have forgotten", b.Name(), v, v.Origin)
	}
}

// TestAdoptedVerdictsStillServed: when the node that derived a verdict
// crashes and restarts, its peers adopt what it published — re-publish it
// under their own names — and every one of them still serves it as the
// deriving node's verdict, whichever adopter's label the merge keeps.
func TestAdoptedVerdictsStillServed(t *testing.T) {
	for h := 0; h < 3; h++ {
		t.Run("home"+strconv.Itoa(h), func(t *testing.T) {
			net, vc := fleetNet(t, 3, nil)
			home := net.Nodes()[h]
			ua := "Firefox"
			ipOn := func(nd *Node, from int) (string, int) {
				for i := from; ; i++ {
					if ip := "10.1.3." + strconv.Itoa(i); net.NodeFor(ip) == nd {
						return ip, i + 1
					}
				}
			}
			ip, next := ipOn(home, 0)
			key := session.Key{IP: ip, UserAgent: ua}
			home.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: agents.CaptchaSolvePath})
			home.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
			runUntil(t, vc, 5*time.Second, "the verdict to reach every peer", func() bool {
				for _, nd := range net.Nodes() {
					if _, ok := nd.Replicator().VerdictFor(key); !ok {
						return false
					}
				}
				return true
			})

			home.Crash()
			home.Restart()
			// A publication under the new incarnation tells the peers the old
			// one is dead: they adopt what they hold of it.
			other, _ := ipOn(home, next)
			home.Do(agents.Request{Time: vc.Now(), IP: other, UserAgent: ua, Method: "GET", Path: agents.CaptchaSolvePath})
			home.Do(agents.Request{Time: vc.Now(), IP: other, UserAgent: ua, Method: "GET", Path: "/"})
			runUntil(t, vc, 5*time.Second, "adoption to settle", func() bool {
				d := home.Replicator().Digest()
				for _, nd := range net.Nodes() {
					rec, ok := nd.Replicator().VerdictFor(key)
					adopted := rec.Origin != home.Name() || rec.Inc > 1
					if !ok || !adopted || nd.Replicator().Digest() != d {
						return false
					}
				}
				return true
			})
			for _, nd := range net.Nodes() {
				if nd == home {
					continue
				}
				nd.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
				if v := readVerdict(nd.Engine(), key); v.Class != detect.ClassHuman || v.Origin != home.Name() {
					rec, _ := nd.Replicator().VerdictFor(key)
					t.Fatalf("node %s serves %+v after adoption (record under %s), want the human verdict from %s",
						nd.Name(), v, rec.Origin, home.Name())
				}
			}
		})
	}
}

// TestVerdictLastsWhileSessionBrowses: a client that keeps browsing keeps
// its replicated verdict past the expiry it was first published with — a peer
// that starts serving it two hours in still sees it.
func TestVerdictLastsWhileSessionBrowses(t *testing.T) {
	net, vc := fleetNet(t, 3, nil)
	ip, ua := "10.1.0.4", "Firefox"
	key := session.Key{IP: ip, UserAgent: ua}
	home := net.NodeFor(ip)
	net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: agents.CaptchaSolvePath})
	net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
	var peer *Node
	for _, nd := range net.Nodes() {
		if nd != home {
			peer = nd
		}
	}
	runUntil(t, vc, 5*time.Second, "the verdict to reach "+peer.Name(), func() bool {
		_, ok := peer.Replicator().VerdictFor(key)
		return ok
	})
	for i := 1; i <= 12; i++ {
		vc.Advance(10 * time.Minute)
		net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
		vc.RunUntil(vc.Now().Add(10 * time.Millisecond))
		if _, ok := peer.Replicator().VerdictFor(key); !ok {
			t.Fatalf("%s lost the verdict of a session browsing for %d minutes", peer.Name(), 10*i)
		}
	}
	peer.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
	if v := readVerdict(peer.Engine(), key); v.Class != detect.ClassHuman || v.Origin != home.Name() {
		t.Fatalf("%s serves %+v two hours in, want the human verdict from %s", peer.Name(), v, home.Name())
	}
}

// TestFleetStateEndsWithSessions: every replicated verdict and block lapses
// one session idle timeout after its last publication, on every node at
// once, so the fleet's stores drain once its clients go quiet.
func TestFleetStateEndsWithSessions(t *testing.T) {
	net, vc := fleetNet(t, 3, nil)
	agree := func() bool {
		d := net.Nodes()[0].Replicator().Digest()
		for _, nd := range net.Nodes()[1:] {
			if nd.Replicator().Digest() != d {
				return false
			}
		}
		return true
	}
	stored := func() (n int) {
		for _, nd := range net.Nodes() {
			n += nd.Replicator().VerdictCount() + nd.Replicator().BlockCount()
		}
		return n
	}

	const clients = 12
	for i := 0; i < clients; i++ {
		ip, ua := "10.7.0."+strconv.Itoa(i), "Firefox"
		if i%2 == 0 {
			net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: agents.CaptchaSolvePath})
		} else {
			net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/__bd/12345.jpg"})
		}
		net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
	}
	abused := net.Nodes()[0]
	for i := 0; i < 120 && abused.Replicator().BlockCount() == 0; i++ {
		abused.Do(agents.Request{Time: vc.Now(), IP: "10.7.1.1", UserAgent: "BadBot", Method: "GET",
			Path: "/cgi-bin/app0.cgi?x=" + string(rune('a'+i%26))})
		vc.RunUntil(vc.Now().Add(100 * time.Millisecond))
	}
	runUntil(t, vc, 5*time.Second, "every verdict and the block to replicate", func() bool {
		for _, nd := range net.Nodes() {
			if nd.Replicator().VerdictCount() != clients || nd.Replicator().BlockCount() != 1 {
				return false
			}
		}
		return agree()
	})

	idle := abused.Engine().Config().SessionIdleTimeout
	vc.Advance(idle - time.Minute)
	vc.RunUntil(vc.Now().Add(10 * time.Millisecond))
	if got := stored(); got != 3*(clients+1) || !agree() {
		t.Fatalf("%d entries stored fleet-wide a minute before they lapse, want %d in agreement", got, 3*(clients+1))
	}
	// Lapsed, the entries are invisible at once; Step drops them at its next
	// pass, at most a quarter of their lifetime later.
	vc.Advance(2 * time.Minute)
	vc.RunUntil(vc.Now().Add(10 * time.Millisecond))
	for _, nd := range net.Nodes() {
		if d := nd.Replicator().Digest(); d != 0 {
			t.Fatalf("node %s still serves lapsed entries (digest %x)", nd.Name(), d)
		}
	}
	vc.Advance(idle / 4)
	vc.RunUntil(vc.Now().Add(10 * time.Millisecond))
	for _, nd := range net.Nodes() {
		rep := nd.Replicator()
		if n := rep.VerdictCount() + rep.BlockCount(); n != 0 {
			t.Fatalf("node %s holds %d entries past an idle timeout and a prune", nd.Name(), n)
		}
		if rep.Stats().Expired != clients+1 {
			t.Fatalf("node %s counted %d entries expired, want %d", nd.Name(), rep.Stats().Expired, clients+1)
		}
	}
}

// TestFleetBlockReplication: a session blocked by one node's policy ladder is
// refused everywhere via the replicated block list's fast path.
func TestFleetBlockReplication(t *testing.T) {
	net, vc := fleetNet(t, 3, nil)
	ip, ua := "10.2.0.2", "BadBot"
	key := session.Key{IP: ip, UserAgent: ua}
	abused := net.Nodes()[0]

	blocked := false
	for i := 0; i < 120 && !blocked; i++ {
		resp := abused.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET",
			Path: "/cgi-bin/app0.cgi?x=" + string(rune('a'+i%26))})
		vc.RunUntil(vc.Now().Add(100 * time.Millisecond))
		blocked = resp.Status == 403
	}
	if !blocked {
		t.Fatalf("abusive session never blocked at its node")
	}
	runUntil(t, vc, 5*time.Second, "block to replicate", func() bool {
		for _, nd := range net.Nodes() {
			if nd.cfg.Policy == nil || !nd.cfg.Policy.IsBlocked(key) {
				return false
			}
		}
		return true
	})
	// Every node now refuses the session ahead of its own session state, even
	// the ones that never tracked it.
	for _, nd := range net.Nodes() {
		if nd == abused {
			continue
		}
		resp := nd.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
		if resp.Status != 403 {
			t.Fatalf("node %s served a fleet-blocked session: %d", nd.Name(), resp.Status)
		}
		if nd.Stats().FleetBlocked == 0 {
			t.Fatalf("node %s fast-path counter not incremented", nd.Name())
		}
	}
}

// TestFleetModelPublication: SetModel reaches every live engine and backfills
// a node that was down during the publish.
func TestFleetModelPublication(t *testing.T) {
	net, vc := fleetNet(t, 3, nil)
	down := net.Nodes()[2]
	down.Crash()
	m := &adaboost.Model{TrainingError: 0.125}
	net.SetModel(m)
	for _, nd := range net.Nodes()[:2] {
		if nd.Engine().Model() != m {
			t.Fatalf("node %s did not get the model synchronously", nd.Name())
		}
	}
	down.Restart()
	runUntil(t, vc, 5*time.Second, "restarted node to backfill the model", func() bool {
		got := down.Engine().Model()
		return got != nil && got.TrainingError == m.TrainingError
	})
}

// TestFailoverDegradedServing: when a session's primary owner dies, the
// network routes the client to the replica, which serves immediately —
// degraded-instrumented, never blocking on the dead peer.
func TestFailoverDegradedServing(t *testing.T) {
	net, vc := fleetNet(t, 3, nil)
	ip, ua := "10.3.0.3", "Firefox"
	primary := net.NodeFor(ip)
	if primary.Name() != net.ring.Primary(shard.HashString(ip)) {
		t.Fatalf("fleet routing should pick the ring primary while it is up")
	}
	primary.Crash()

	if resp := primary.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"}); resp.Status != 503 {
		t.Fatalf("crashed node answered %d, want 503", resp.Status)
	}
	replica := net.NodeFor(ip)
	if replica == primary {
		t.Fatalf("routing still points at the dead primary")
	}
	start := time.Now()
	resp := net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET", Path: "/"})
	if resp.Status != 200 {
		t.Fatalf("failover serve status = %d", resp.Status)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("failover serve blocked for %v", elapsed)
	}
	if replica.Stats().FailoverDegraded == 0 {
		t.Fatalf("replica did not record degraded failover serving; stats=%+v", replica.Stats())
	}
	if primary.Stats().Unavailable == 0 {
		t.Fatalf("crashed node did not count the refused request")
	}
}

// TestCrashedNodeKeepsStatsSkipsFlush: a crash loses none of a node's
// counters — the fleet total still holds its requests, and the requests it
// refused while down — and flushing the network skips the crashed node,
// whose sessions died with it: a session its engine holds after the crash
// is neither returned nor ended.
func TestCrashedNodeKeepsStatsSkipsFlush(t *testing.T) {
	net, vc := fleetNet(t, 3, nil)
	victim := net.Nodes()[1]
	for i := 0; i < 5; i++ {
		victim.Do(agents.Request{Time: vc.Now(), IP: "10.5.0.5", UserAgent: "Firefox", Method: "GET", Path: "/"})
	}
	for _, node := range net.Nodes() {
		if node != victim {
			node.Do(agents.Request{Time: vc.Now(), IP: "10.5.0.6", UserAgent: "Firefox", Method: "GET", Path: "/"})
		}
	}
	victim.Crash()
	victim.Do(agents.Request{Time: vc.Now(), IP: "10.5.0.5", UserAgent: "Firefox", Method: "GET", Path: "/"})
	victim.Engine().ObserveRequestQuiet(logfmt.Entry{Time: vc.Now(), ClientIP: "10.5.0.7", UserAgent: "Firefox",
		Method: "GET", Path: "/", Status: 200, ContentType: "text/html"})

	if s := victim.Stats(); s.Requests != 5 || s.Unavailable != 1 {
		t.Fatalf("crashed node stats = %+v, want 5 requests and 1 unavailable", s)
	}
	if total := net.TotalStats(); total.Requests != 5+int64(len(net.Nodes())-1) || total.Unavailable != 1 {
		t.Fatalf("total = %+v, want the crashed node's 5 requests and 1 unavailable beside the live nodes' one each", total)
	}
	flushed := net.FlushSessions()
	if len(flushed) != len(net.Nodes())-1 {
		t.Fatalf("flush returned %d sessions, want one from each live node", len(flushed))
	}
	for _, cs := range flushed {
		if cs.Snapshot.Key.IP != "10.5.0.6" {
			t.Fatalf("flush returned %v, a session of the crashed node", cs.Snapshot.Key)
		}
	}
	if n := victim.Engine().SessionCount(); n != 1 {
		t.Fatalf("the crashed node's engine holds %d sessions after the flush, want its 1 untouched", n)
	}
}

// TestKillMidPublishLosesNothingAcked: every verdict a crashing node had
// pushed to a peer survives on that peer — loss is bounded by the ack
// watermark (the epoch-lag bound).
func TestKillMidPublishLosesNothingAcked(t *testing.T) {
	net, vc := fleetNet(t, 3, nil)
	origin := net.Nodes()[0]
	rep := origin.Replicator()
	for i := 0; i < 50; i++ {
		rep.PublishVerdict(session.Key{IP: "10.6.0.1", UserAgent: string(rune('a' + i))},
			detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, vc.Now().Add(time.Hour))
	}
	runUntil(t, vc, 5*time.Second, "some acks", func() bool { return rep.MinAckedEpoch() > 0 })
	minAcked := rep.MinAckedEpoch()
	origin.Crash()

	for _, nd := range net.Nodes()[1:] {
		if wm := nd.Replicator().Watermark(origin.Name()); wm < minAcked {
			t.Fatalf("node %s watermark %d < acked %d — acked verdicts lost", nd.Name(), wm, minAcked)
		}
	}
}

// TestFleetChaosHammer drives replication, classification, model rotation,
// message-layer faults and node kills concurrently, while this goroutine
// steps the fleet's clock. Run with -race: the assertion is that nothing
// deadlocks, panics or races, and the serve path keeps answering.
func TestFleetChaosHammer(t *testing.T) {
	// Every message is delayed 200 µs; the chaos goroutine refills budgets
	// of drops, erroring sends and duplicates, spent in that order.
	var drop, fail, dup, crashes atomic.Int64
	net, vc := fleetNet(t, 3, func(from, to string, msg *fleet.Message) (fleet.Fate, time.Duration) {
		const delay = 200 * time.Microsecond
		switch {
		case drop.Add(-1) >= 0:
			return fleet.FateDrop, delay
		case fail.Add(-1) >= 0:
			return fleet.FateFail, delay
		case dup.Add(-1) >= 0:
			return fleet.FateDup, delay
		}
		return fleet.FateDeliver, delay
	})

	var wg sync.WaitGroup
	var served atomic.Int64
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	// pause waits for d to pass on the fleet's clock, which only the test
	// goroutine moves.
	pause := func(d time.Duration) {
		for until := vc.Now().Add(d); vc.Now().Before(until) && !stopped(); {
			runtime.Gosched()
		}
	}

	// Traffic: network-routed humans and direct-to-node bot floods.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w) + 1).Fork("hammer")
			for i := 0; !stopped(); i++ {
				ip := "10.9." + string(rune('0'+w)) + "." + string(rune('0'+i%10))
				req := agents.Request{Time: vc.Now(), IP: ip, UserAgent: "UA", Method: "GET", Path: "/cgi-bin/app0.cgi"}
				var resp agents.Response
				if src.Uint64n(2) == 0 {
					resp = net.Do(req)
				} else {
					resp = net.Nodes()[src.Uint64n(3)].Do(req)
				}
				served.Add(1)
				switch resp.Status {
				case 200, 403, 429, 503, 404, 302:
				default:
					t.Errorf("unexpected status %d", resp.Status)
					return
				}
			}
		}(w)
	}
	// Chaos: drops/dups/failures plus crash-restart cycles.
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := rng.New(77).Fork("chaos")
		for !stopped() {
			drop.Store(3)
			dup.Store(2)
			fail.Store(2)
			nd := net.Nodes()[src.Uint64n(3)]
			nd.Crash()
			crashes.Add(1)
			pause(5 * time.Millisecond)
			nd.Restart()
			pause(2 * time.Millisecond)
		}
	}()
	// Model rotation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			net.SetModel(&adaboost.Model{})
			pause(3 * time.Millisecond)
		}
	}()

	// Step the fleet until every kind of work has had its share.
	for served.Load() < 4000 || crashes.Load() < 20 {
		vc.RunUntil(vc.Now().Add(time.Millisecond))
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	for _, nd := range net.Nodes() {
		if nd.Down() {
			t.Fatalf("node %s left down after the hammer", nd.Name())
		}
	}
}
