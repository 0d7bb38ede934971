package chaos

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/fleet"
	"botdetect/internal/rng"
	"botdetect/internal/session"
)

const (
	// simSeeds is how many seeded schedules TestFleetSimulationSeeds runs.
	simSeeds = 1000
	// simMaxDelay bounds the link latency a schedule imposes. It is below the
	// shortest crash (5ms), so a frame a link accepted lands on the
	// incarnation it was sent to.
	simMaxDelay = 2 * time.Millisecond
	// simShortLife is the longest life of a short-lived publication; one in
	// four lives 5ms to this, every other outlives the run.
	simShortLife = 40 * time.Millisecond
)

// simNode is one replicator of a simulated fleet with the simulation's model
// of it: which live updates its store should hold (every merge since its last
// wipe, less what has lapsed — keys are unique per update, so every merge is
// an insert), what it published under its current incarnation, and the
// highest incarnation of each origin it has applied a verdict from.
type simNode struct {
	name    string
	rep     *fleet.Replicator
	down    bool
	upAt    time.Time       // when a crashed node restarts
	holds   map[string]bool // update ids
	own     []simUpdate     // published under the current incarnation
	seenInc map[string]uint32
	// acksVoid marks that the acks this incarnation collected prove nothing
	// any more: a link silently dropped one of its batch frames after
	// reporting success.
	acksVoid bool
	// unheard names the peers that crashed and have not yet been heard from
	// under their new incarnation: until then this node's acks still count
	// what the dead incarnation had been delivered.
	unheard map[string]bool
}

type simUpdate struct {
	id    string
	epoch uint64
}

// simFleet is 3–5 replicators on one virtual clock and one mesh, stepped
// single-threaded.
type simFleet struct {
	vc     *clock.Virtual
	mesh   *fleet.Mesh
	links  *Links
	nodes  []*simNode
	byName map[string]*simNode
	errs   []string
	// survive lists the updates that were at or below their origin's
	// MinAckedEpoch when it crashed: a peer must hold each by the time the
	// slowest link has delivered (ackChecks), and every replica at the end —
	// unless a later crash took its last holder (lost).
	survive   []string
	ackChecks []ackCheck
	lost      map[string]bool
	// until is every update's expiry, short the short-lived ones not yet
	// lapsed, and lastLapse the latest short expiry.
	until     map[string]time.Time
	short     map[string]bool
	lastLapse time.Time
	// heard are frames from restarted nodes the links accepted, each to
	// clear its receiver's unheard mark once it has landed.
	heard []heardFrame
	// What the schedule exercised, summed over seeds by the test.
	crashes, fenced, expired int
}

// heardFrame is one accepted frame from a restarted node, landing by due.
type heardFrame struct {
	due      time.Time
	from, to string
}

// ackCheck is one crashed origin's acked updates, to be looked for on its
// peers once the frames the links had accepted have landed.
type ackCheck struct {
	due    time.Time
	origin string
	ids    []string
}

// lapsed reports whether the update's expiry has passed.
func (f *simFleet) lapsed(id string) bool { return !f.vc.Now().Before(f.until[id]) }

// held reports whether any replica's store holds the update.
func (f *simFleet) held(id string) bool {
	for _, nd := range f.nodes {
		if nd.holds[id] {
			return true
		}
	}
	return false
}

func (f *simFleet) failf(format string, args ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, args...))
}

func newSimFleet(src *rng.Source) *simFleet {
	f := &simFleet{vc: clock.NewVirtual(time.Time{}), mesh: fleet.NewMesh(), links: NewLinks(),
		byName: map[string]*simNode{}, lost: map[string]bool{}, until: map[string]time.Time{}, short: map[string]bool{}}
	n := 3 + src.Intn(3)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	f.mesh.SetIntercept(func(from, to string, msg *fleet.Message) (fleet.Fate, time.Duration) {
		fate, delay := f.links.Intercept(from, to, msg)
		if fate == fleet.FateDrop && msg.Kind == fleet.MsgBatch {
			f.byName[from].acksVoid = true
		}
		if fate != fleet.FateDrop && fate != fleet.FateFail && f.byName[to].unheard[from] {
			f.heard = append(f.heard, heardFrame{due: f.vc.Now().Add(delay), from: from, to: to})
		}
		return fate, delay
	})
	for _, name := range names {
		nd := &simNode{name: name, holds: map[string]bool{}, seenInc: map[string]uint32{}, unheard: map[string]bool{}}
		merged := func(id string) {
			if f.lapsed(id) {
				f.failf("%s stored %s, lapsed on arrival", nd.name, id)
			}
			nd.holds[id] = true
		}
		nd.rep = fleet.New(fleet.Config{
			Name: name, Peers: names, Transport: f.mesh.Bind(name), Clock: f.vc, Seed: src.Uint64(),
			HeartbeatInterval: 2 * time.Millisecond, AntiEntropyInterval: 5 * time.Millisecond,
			RetryBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond, SendPatience: 20 * time.Millisecond,
			Callbacks: fleet.Callbacks{
				OnVerdict: func(key session.Key) {
					// The record just merged carries the identity it travelled
					// under: it must not be from an incarnation this node had
					// already seen superseded.
					rec, _ := nd.rep.VerdictFor(key)
					id := verdictID(rec.Verdict.AtRequest)
					merged(id)
					if rec.Inc < nd.seenInc[rec.Origin] {
						f.failf("%s applied %s from %s inc %d after seeing inc %d", nd.name, id, rec.Origin, rec.Inc, nd.seenInc[rec.Origin])
					}
					nd.seenInc[rec.Origin] = rec.Inc
				},
				OnBlock: func(_ session.Key, until time.Time) { merged(blockID(until)) },
			},
		})
		f.mesh.Attach(nd.rep)
		nd.rep.Start()
		f.byName[name] = nd
		f.nodes = append(f.nodes, nd)
	}
	return f
}

// blockID names a block update by its (unique) expiry.
func blockID(until time.Time) string { return fmt.Sprintf("block/%d", until.UnixNano()) }

// step moves the fleet one millisecond: restarts that are due, the mesh's
// held messages, then every replicator; the model forgets what has lapsed.
func (f *simFleet) step() {
	f.vc.Advance(time.Millisecond)
	now := f.vc.Now()
	for _, nd := range f.nodes {
		if nd.down && !now.Before(nd.upAt) {
			nd.down = false
			nd.rep.Restart()
		}
	}
	f.mesh.Step(now)
	for _, nd := range f.nodes {
		nd.rep.Step(now)
	}
	for id := range f.short {
		if !now.Before(f.until[id]) {
			delete(f.short, id)
			for _, nd := range f.nodes {
				delete(nd.holds, id)
			}
		}
	}
	for len(f.heard) > 0 && !now.Before(f.heard[0].due) {
		delete(f.byName[f.heard[0].to].unheard, f.heard[0].from)
		f.heard = f.heard[1:]
	}
	for len(f.ackChecks) > 0 && !now.Before(f.ackChecks[0].due) {
		for _, id := range f.ackChecks[0].ids {
			if !f.held(id) && !f.lapsed(id) {
				f.failf("every peer of %s had acked %s when it crashed, and none holds it", f.ackChecks[0].origin, id)
			}
		}
		f.ackChecks = f.ackChecks[1:]
	}
}

// verdictID names the verdict published with serial.
func verdictID(serial int64) string { return fmt.Sprintf("verdict/%d", serial) }

// publish originates one update with a never-reused key on nd: a verdict
// whose AtRequest is its serial, or a block whose (unique) expiry is. It lives past
// the run, or for life when that is not zero.
func (f *simFleet) publish(nd *simNode, serial int, block bool, life time.Duration) {
	key := session.Key{IP: fmt.Sprintf("10.0.%d.%d", serial/250, serial%250), UserAgent: nd.name}
	until := time.Unix(int64(3e9+serial), 0)
	if life > 0 {
		until = f.vc.Now().Add(life + time.Duration(serial))
		if until.After(f.lastLapse) {
			f.lastLapse = until
		}
	}
	var id string
	if block {
		id = blockID(until)
		nd.rep.PublishBlock(key, until)
	} else {
		id = verdictID(int64(serial))
		nd.rep.PublishVerdict(key, detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy, AtRequest: int64(serial)}, until)
	}
	f.until[id] = until
	if life > 0 {
		f.short[id] = true
	}
	nd.holds[id] = true
	nd.own = append(nd.own, simUpdate{id: id, epoch: nd.rep.PublishedEpoch()})
}

// crash kills nd the way cdn.Node.Crash does — stop, wipe — after noting
// what its acks promise while they are good: every own update at or below
// MinAckedEpoch has reached a peer. What only nd held is lost, and nobody's
// fault.
func (f *simFleet) crash(nd *simNode, downFor time.Duration) {
	if acked := nd.rep.MinAckedEpoch(); !nd.acksVoid && len(nd.unheard) == 0 {
		var ids []string
		for _, u := range nd.own {
			if u.epoch <= acked {
				ids = append(ids, u.id)
			}
		}
		f.survive = append(f.survive, ids...)
		f.ackChecks = append(f.ackChecks, ackCheck{due: f.vc.Now().Add(simMaxDelay), origin: nd.name, ids: ids})
	}
	f.crashes++
	f.fenced += int(nd.rep.Stats().StaleInc)
	f.expired += int(nd.rep.Stats().Expired)
	nd.rep.Stop()
	nd.rep.Wipe()
	held := nd.holds
	nd.down, nd.upAt = true, f.vc.Now().Add(downFor)
	nd.holds, nd.own, nd.seenInc, nd.unheard = map[string]bool{}, nil, map[string]uint32{}, map[string]bool{}
	nd.acksVoid = false
	for _, other := range f.nodes {
		if other != nd {
			other.unheard[nd.name] = true
		}
	}
	for id := range held {
		if !f.held(id) {
			f.lost[id] = true
		}
	}
}

// converged reports whether every replica holds the same digest and the
// same modelled store, and every short-lived entry has lapsed long enough
// for each replica's Step to have dropped it.
func (f *simFleet) converged() bool {
	if f.vc.Now().Before(f.lastLapse.Add(simShortLife/4 + time.Millisecond)) {
		return false
	}
	for _, nd := range f.nodes[1:] {
		if nd.down || nd.rep.Digest() != f.nodes[0].rep.Digest() || len(nd.holds) != len(f.nodes[0].holds) {
			return false
		}
	}
	return !f.nodes[0].down
}

// simulate runs one seeded schedule and returns the fleet, with what went
// wrong (if anything) in errs.
func simulate(seed uint64) *simFleet {
	src := rng.New(seed).Fork("fleet-sim")
	f := newSimFleet(src)
	for i := 0; i < 10; i++ {
		f.step() // heartbeats settle
	}
	// One link latency per schedule, so frames on a link stay in order.
	f.links.SetDelay(time.Duration(src.Intn(4)) * simMaxDelay / 4)
	serial := 0
	for i, steps := 0, 100+src.Intn(200); i < steps; i++ {
		live := f.nodes[:0:0]
		for _, nd := range f.nodes {
			if !nd.down {
				live = append(live, nd)
			}
		}
		for n := src.Intn(3); n > 0; n-- {
			serial++
			var life time.Duration
			if src.Intn(4) == 0 {
				life = 5*time.Millisecond + time.Duration(src.Intn(int(simShortLife-5*time.Millisecond)))
			}
			f.publish(live[src.Intn(len(live))], serial, src.Intn(3) == 0, life)
		}
		switch a, b := f.nodes[src.Intn(len(f.nodes))], f.nodes[src.Intn(len(f.nodes))]; src.Intn(40) {
		case 0:
			f.links.DropNext(1 + src.Intn(3))
		case 1:
			f.links.DupNext(1 + src.Intn(3))
		case 2:
			f.links.FailNext(1 + src.Intn(6))
		case 3:
			f.links.PartitionOneWay(a.name, b.name)
		case 4:
			f.links.Heal()
		case 5, 6:
			// One crash at a time: the fleet keeps a live majority of holders.
			if len(live) == len(f.nodes) {
				f.crash(a, time.Duration(5+src.Intn(20))*time.Millisecond)
			}
		}
		f.step()
	}

	// Heal everything, then a bounded number of steps must converge the fleet.
	f.links.Heal()
	f.links.SetDelay(0)
	f.links.DropNext(0)
	f.links.DupNext(0)
	f.links.FailNext(0)
	for i := 0; i < 500 && !f.converged(); i++ {
		f.step()
	}
	ref := f.nodes[0]
	for _, nd := range f.nodes {
		f.fenced += int(nd.rep.Stats().StaleInc)
		f.expired += int(nd.rep.Stats().Expired)
		if nd.down {
			f.failf("%s never restarted", nd.name)
			continue
		}
		if got, want := nd.rep.Digest(), ref.rep.Digest(); got != want {
			f.failf("%s digest %#x, %s has %#x", nd.name, got, ref.name, want)
		}
		if got, want := nd.rep.VerdictCount()+nd.rep.BlockCount(), len(nd.holds); got != want {
			f.failf("%s stores %d entries, the callbacks it saw say %d", nd.name, got, want)
		}
		var missing []string
		for id := range ref.holds {
			if !nd.holds[id] {
				missing = append(missing, id)
			}
		}
		for _, id := range f.survive {
			if !nd.holds[id] && !f.lost[id] && !f.lapsed(id) {
				missing = append(missing, id+" (acked by every peer before its origin crashed)")
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			f.failf("%s is missing %s", nd.name, strings.Join(missing, ", "))
		}
	}
	return f
}

// TestFleetSimulationSeeds is the deterministic fleet simulation: for each
// seed, 3–5 replicators on one virtual clock and one mesh run a seeded
// schedule of publishes (a quarter of them lapsing within the run), link
// faults (drops, duplicates, failures, latency, one-way partitions) and
// crash + Wipe + Restart cycles, single-threaded. After the links heal, a
// bounded number of steps must leave every replica with the same Digest and
// the same live entries, the lapsed ones dropped; nothing live that a crashed
// node's peers had all acknowledged may be missing anywhere; no replica may
// ever apply a verdict from an incarnation it had already seen superseded;
// and none may store an entry that had lapsed when it arrived.
func TestFleetSimulationSeeds(t *testing.T) {
	var ran, crashes, acked, fenced, expired int
	for seed := uint64(1); seed <= simSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := simulate(seed)
			ran, crashes, acked, fenced, expired = ran+1, crashes+f.crashes, acked+len(f.survive), fenced+f.fenced, expired+f.expired
			if len(f.errs) > 0 {
				t.Errorf("%s\n\trepro: go test ./internal/chaos -run 'TestFleetSimulationSeeds/seed=%d$'", strings.Join(f.errs, "; "), seed)
			}
		})
	}
	t.Logf("%d seeds: %d crashes, %d acked updates followed past their origin's crash, %d stragglers fenced, %d entries expired",
		ran, crashes, acked, fenced, expired)
	if ran == simSeeds && (crashes < simSeeds || acked == 0 || fenced == 0 || expired == 0) { // not under a -run that picks seeds
		t.Errorf("the schedules exercised too little: %d crashes, %d acked updates followed, %d stragglers fenced, %d entries expired",
			crashes, acked, fenced, expired)
	}
}
