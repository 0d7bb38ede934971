// Fleet wiring: turns a Network of isolated detection nodes into one
// fault-tolerant fleet. EnableReplication gives every node a
// fleet.Replicator over an in-process mesh, partitions sessions across the
// nodes with a consistent-hash ring (two owners per session), and wires the
// replication callbacks into each node's engines:
//
//   - locally derived Definite verdicts export through the engine's fleet
//     hook and replicate fleet-wide until one session idle timeout past the
//     session's last request (each peer's engine reads them from its
//     replicator in the remote detector stage);
//   - policy block escalations replicate into every peer's block list, so a
//     session blocked anywhere is refused everywhere;
//   - model publications reach every engine (single trainer, fleet-wide
//     swap);
//   - request observations forward to the session's partition owner, so a
//     crawler spreading requests across many open proxies still accumulates
//     one session's evidence on one node;
//   - a node serving a session another node owns (partition failover) serves
//     degraded instrumentation immediately and backfills the session's
//     evidence with a handoff — the serve path never waits on a peer.
//
// Node.Crash/Restart simulate the failure the chaos harness (internal/chaos)
// drives: a crash loses the node's memory (sessions, replicated stores) and
// anti-entropy backfills it after Restart under a new incarnation.
package cdn

import (
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/fleet"
	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/shard"
)

// nodeDownBody is the 503 body a crashed node returns.
var nodeDownBody = []byte("node down")

// FleetConfig controls Network.EnableReplication. What a session's
// partition looks like is fixed — replicas owners on a ring of fleet.NewRing's
// 64 virtual points per node — as are the replication timings below and the
// replication layer's sizes (see the constants in internal/fleet). The
// replicators run on the engines' clock.
type FleetConfig struct {
	// Intercept, when non-nil, is installed on the mesh for fault injection
	// (see internal/chaos.Links).
	Intercept fleet.Intercept

	// Seed drives backoff jitter.
	Seed uint64
}

// The simulated fleet's replication timings, passed to fleet.Config: one
// fixed speed, scaled to a mesh that delivers within a step.
const (
	retryBackoff        = time.Millisecond
	maxBackoff          = 10 * time.Millisecond
	sendPatience        = 100 * time.Millisecond
	heartbeatInterval   = 5 * time.Millisecond
	antiEntropyInterval = 10 * time.Millisecond
)

// replicas is how many ring owners each session has: the primary aggregates
// the session's evidence, the other can serve it degraded and take over on
// failure.
const replicas = 2

// replicationStep is the simulated fleet's time resolution: the mesh and
// every node's replicator step once per millisecond of the engines' clock.
const replicationStep = time.Millisecond

// EnableReplication joins the network's nodes into one replicated fleet.
// Call it once, after NewNetwork and before serving traffic. The replicators
// share the engines' clock, which must be a clock.Virtual: their steps are
// events on it, so replication advances exactly as far as the caller runs the
// clock (RunUntil), and not at all while it only serves requests.
func (n *Network) EnableReplication(cfg FleetConfig) {
	vc, ok := n.nodes[0].cfg.Engine.Config().Clock.(*clock.Virtual)
	if !ok {
		panic("cdn: EnableReplication steps the fleet on the engines' clock, which must be a *clock.Virtual")
	}
	names := make([]string, len(n.nodes))
	for i, node := range n.nodes {
		names[i] = node.cfg.Name
	}
	n.ring = fleet.NewRing(names)
	mesh := fleet.NewMesh()
	if cfg.Intercept != nil {
		mesh.SetIntercept(cfg.Intercept)
	}
	n.byName = make(map[string]*Node, len(n.nodes))
	n.index = make(map[string]int, len(n.nodes))
	src := rng.New(cfg.Seed ^ 0x636f6465656e).Fork("cdn-fleet")
	for i, node := range n.nodes {
		n.byName[node.cfg.Name] = node
		n.index[node.cfg.Name] = i
		node.ring = n.ring
		node.rep = fleet.New(fleet.Config{
			Name:      node.cfg.Name,
			Peers:     names,
			Transport: mesh.Bind(node.cfg.Name),
			Callbacks: n.fleetCallbacks(node),
			Clock:     vc,

			RetryBackoff:        retryBackoff,
			MaxBackoff:          maxBackoff,
			SendPatience:        sendPatience,
			HeartbeatInterval:   heartbeatInterval,
			AntiEntropyInterval: antiEntropyInterval,
			Seed:                src.Uint64(),
		})
		mesh.Attach(node.rep)
		node.rep.RegisterMetrics(n.tel.Registry(), node.cfg.Name)
		n.wireExportHooks(node, names)
	}
	for _, node := range n.nodes {
		node.rep.Start()
	}
	var step func(now time.Time)
	step = func(now time.Time) {
		mesh.Step(now)
		for _, node := range n.nodes {
			node.rep.Step(now)
		}
		if !n.repStopped.Load() {
			vc.Schedule(replicationStep, step)
		}
	}
	vc.Schedule(0, step)
}

// wireExportHooks points the node's engines at its replicator: locally
// derived Definite verdicts and policy block escalations publish fleet-wide,
// and the engine's remote row reads peers' verdicts. Both publishing hooks
// check the down flag — a crashed node must not publish epochs while its
// engine flushes, or Wipe's epoch-counter reset would later reissue them.
func (n *Network) wireExportHooks(node *Node, members []string) {
	cfg := node.cfg.Engine.Config()
	node.cfg.Engine.SetFleet(nodeFleet{node: node, clock: cfg.Clock, idle: cfg.SessionIdleTimeout, members: members})
	if node.cfg.Policy != nil {
		node.cfg.Policy.SetOnBlock(func(key session.Key, until time.Time) {
			if node.down.Load() {
				return
			}
			node.rep.PublishBlock(key, until)
		})
	}
}

// nodeFleet is a node's replicator as its engine sees it (core.Fleet).
type nodeFleet struct {
	node    *Node
	clock   clock.Clock
	idle    time.Duration
	members []string // every node's name, in the network's fixed order
}

// ExportVerdict publishes a locally derived verdict until one session idle
// timeout from now: a replicated verdict ends with the session it judged.
func (f nodeFleet) ExportVerdict(key session.Key, v core.Verdict) {
	if f.node.down.Load() {
		return
	}
	f.node.rep.PublishVerdict(key, v, f.clock.Now().Add(f.idle))
}

// PeerVerdict serves the merged record for key unless it is this node's own
// publication, which its engine's verdict is already. A record this node
// adopted from a peer is the peer's: its Verdict.Origin still names the node
// that derived it. (What a restarted node adopts back of its own earlier
// verdicts counts as its own.)
func (f nodeFleet) PeerVerdict(key session.Key) (core.Verdict, bool) {
	rec, ok := f.node.rep.VerdictFor(key)
	if !ok || rec.Origin == f.node.cfg.Name && rec.Verdict.Origin == f.node.cfg.Name {
		return core.Verdict{}, false
	}
	return rec.Verdict, true
}

// Members is the network's fixed node list.
func (f nodeFleet) Members() []string { return f.members }

// fleetCallbacks builds the replication callbacks that apply peer updates to
// one node's local engines. Every callback checks the down flag first: a
// crashed node neither applies nor re-exports anything.
func (n *Network) fleetCallbacks(node *Node) fleet.Callbacks {
	eng := node.cfg.Engine
	pol := node.cfg.Policy
	idle := eng.Config().SessionIdleTimeout
	return fleet.Callbacks{
		OnVerdict: func(key session.Key) {
			if node.down.Load() {
				return
			}
			eng.ApplyRemoteVerdict(key)
		},
		OnBlock: func(key session.Key, until time.Time) {
			if node.down.Load() || pol == nil {
				return
			}
			pol.BlockUntil(key, until)
		},
		OnModel: func(m *adaboost.Model, seq uint64) {
			if node.down.Load() {
				return
			}
			eng.SetModel(m)
		},
		OnObservation: func(u fleet.Update) {
			if node.down.Load() {
				return
			}
			// Fold the forwarded request into the owner's session exactly as a
			// local request would be.
			eng.ObserveRequestQuiet(logfmt.Entry{
				Time: time.Unix(0, u.When), ClientIP: u.Key.IP, UserAgent: u.Key.UserAgent,
				Method: u.Method, Path: u.Path, Status: u.Status, Bytes: u.Bytes,
				Referer: u.Refer, ContentType: u.CT,
			})
			// Then classify and run the policy ladder, the same enforcement a
			// local request gets: this is where a distributed crawler's
			// aggregated evidence crosses a threshold, the verdict export hook
			// fires and the resulting block replicates back out.
			if snap, verdict, tracked := eng.Decide(u.Key); tracked {
				if pol != nil {
					pol.Evaluate(*snap, verdict)
				}
				snap.Release()
			}
		},
		OnHandoff: func(key session.Key, sigs []session.Signal) {
			if node.down.Load() || len(sigs) == 0 {
				return
			}
			eng.AdoptSession(key, sigs)
		},
		HandoffSource: func(key session.Key) ([]session.Signal, bool) {
			if node.down.Load() {
				return nil, false
			}
			snap, ok := eng.Session(key)
			if !ok {
				return nil, false
			}
			sigs := signalsOf(snap)
			return sigs, len(sigs) > 0
		},
		SessionEnd: func(key session.Key) (time.Time, bool) {
			if node.down.Load() {
				return time.Time{}, false
			}
			snap, ok := eng.Session(key)
			return snap.LastSeen.Add(idle), ok
		},
	}
}

// signalsOf extracts a snapshot's observed signals, in wire form.
func signalsOf(snap session.Snapshot) []session.Signal {
	var sigs []session.Signal
	snap.Signals.Each(func(sig session.Signal, _ int64) bool {
		sigs = append(sigs, sig)
		return true
	})
	return sigs
}

// routeIndex picks the node serving a client IP. Without a fleet it is the
// legacy FNV pinning; with one it is the partition ring's first live owner,
// so clients fail over to their session's replica when the primary dies, and
// to any live node when every owner is down.
func (n *Network) routeIndex(ip string) int {
	if n.ring == nil {
		return n.nodeIndex(ip)
	}
	var buf [4]string
	owners := n.ring.OwnersAppend(shard.HashString(ip), replicas, buf[:0])
	for _, o := range owners {
		if node := n.byName[o]; node != nil && !node.down.Load() {
			return n.index[o]
		}
	}
	for i, node := range n.nodes {
		if !node.down.Load() {
			return i
		}
	}
	return n.nodeIndex(ip)
}

// Replicator returns the node's fleet replicator (nil on an isolated node).
func (n *Node) Replicator() *fleet.Replicator { return n.rep }

// Down reports whether the node is refusing requests (crashed).
func (n *Node) Down() bool { return n.down.Load() }

// failoverAdmission downgrades admission for a session this node has never
// seen but another node owns: the degraded page still proves humanity
// through its real key, and a handoff request backfills the
// session's evidence from the partition owner in the background. Sessions
// this node tracks — or owns as ring primary — keep full admission.
func (n *Node) failoverAdmission(key session.Key, adm core.Admission) core.Admission {
	if _, ok := n.cfg.Engine.Session(key); ok {
		return adm
	}
	primary := n.ring.Primary(shard.HashString(key.IP))
	if primary == "" || primary == n.cfg.Name {
		return adm
	}
	n.stats.failoverDegraded.Add(1)
	if n.rep.PeerUp(primary) {
		n.rep.RequestHandoff(primary, key)
	}
	return core.AdmitDegraded
}

// forwardObservation sends one observed request to the session's acting
// partition owner — the first live ring owner — unless this node is it. The
// enqueue is bounded and non-blocking; with no owner reachable the primary
// gets it anyway and a dead primary's outbox drops it (evidence forwarding is
// fire-and-forget).
func (n *Node) forwardObservation(entry logfmt.Entry) {
	var buf [4]string
	owners := n.ring.OwnersAppend(shard.HashString(entry.ClientIP), replicas, buf[:0])
	if len(owners) == 0 {
		return
	}
	target := ""
	for _, o := range owners {
		if o == n.cfg.Name {
			return // this node is the acting owner; the evidence is home
		}
		if n.rep.PeerUp(o) {
			target = o
			break
		}
	}
	if target == "" {
		target = owners[0]
	}
	n.rep.ForwardObservation(target, fleet.Update{
		Key:    session.Key{IP: entry.ClientIP, UserAgent: entry.UserAgent},
		Method: entry.Method, Path: entry.Path, Status: entry.Status,
		Bytes: entry.Bytes, Refer: entry.Referer, CT: entry.ContentType,
		When: entry.Time.UnixNano(),
	})
}

// Crash simulates a node failure: the node stops serving and receiving,
// its sessions die with it, and its replicated stores and epoch counters are
// wiped. Restart brings it back under a new incarnation; anti-entropy
// backfills everything it lost.
func (n *Node) Crash() {
	n.down.Store(true)
	if n.rep != nil {
		n.rep.Stop()
	}
	// Sessions are process memory: a crash loses them. The export hooks see
	// the down flag and stay silent during the flush, so no epochs are
	// allocated between here and the wipe.
	n.cfg.Engine.FlushSessions()
	if n.rep != nil {
		n.rep.Wipe()
	}
}

// Restart brings a crashed node back: the replicator restarts
// under a bumped incarnation (so peers reset its watermark instead of
// treating its fresh epochs as replays) and the node accepts requests again.
func (n *Node) Restart() {
	if n.rep != nil {
		n.rep.Restart()
	}
	n.down.Store(false)
}

// StopReplication stops every node's replicator and their step event
// (test/experiment teardown).
func (n *Network) StopReplication() {
	n.repStopped.Store(true)
	for _, node := range n.nodes {
		if node.rep != nil {
			node.rep.Stop()
		}
	}
}
