// Package fleet is the replicated control plane that turns a set of
// detection nodes into one fault-tolerant fleet. Each node runs a
// Replicator that gossips epoch-stamped updates — definite verdicts,
// block-list entries and model publications — to every peer through
// per-peer outboxes, and applies updates received from peers through
// idempotent, commutative merges, so any delivery interleaving (drops,
// duplicates, reorders) converges to the same verdict/block state as
// sequential delivery.
//
// The design generalises the repo's single-node publication pattern
// (Engine.SetModel's atomic swap) to cross-node asynchrony:
//
//   - Every durable update carries its origin node, an incarnation number
//     and a per-origin dense epoch (1, 2, 3, …). Receivers keep a per-origin
//     applied-epoch watermark (the highest contiguous applied epoch) plus a
//     small out-of-order window above it, so replays are rejected in O(1)
//     and reordering is harmless.
//   - Merges are last-writer-wins under a deterministic total order
//     (verdicts and blocks: latest expiry, then confidence, stamp and
//     origin; models: highest sequence), so duplicated or reordered
//     deliveries cannot diverge replicas.
//   - Every verdict and block entry ends: it carries its expiry (Until),
//     readers ignore it from then on, a late frame carrying it is admitted
//     to the watermark but never stored, and Step drops it. The origin
//     stamps the expiry, so every replica loses the entry at the same time,
//     and re-publishes a verdict with a later one while its session goes on.
//   - Senders never block the serve path: Publish enqueues into a bounded
//     per-peer outbox (full ⇒ counted drop) and returns. Step flushes the
//     outboxes: a batch the transport refuses is retried on later Steps with
//     doubling backoff + jitter, for at most SendPatience, as plain per-peer
//     arithmetic. A dead peer costs its own outbox, nothing else.
//   - Anti-entropy heals silent loss: heartbeats advertise each node's
//     applied watermarks, and every node periodically re-sends store
//     entries a peer's watermarks show it to be missing — which also
//     backfills a node that restarted empty (it simply advertises nothing).
//     A watermark speaks for one incarnation of its origin, so when an
//     origin restarts, whoever holds entries from its dead incarnations
//     adopts them: re-publishes them as its own updates, stamps kept.
//   - Peer health is a phi-style accrual suspicion over the inter-arrival
//     times of what Receive hears, read off Config.Clock; when a quorum of
//     the fleet is unreachable the node reports Isolated and keeps serving
//     from its local engine alone.
//
// A Replicator is a passive state machine: it owns no goroutine, no timer
// and no channel. Its state is guarded by one mutex, and time reaches it two
// ways only — Config.Clock stamps what it publishes and hears, and
// Step(now), called by whoever owns the node's clock, does everything that
// is due: heartbeats, anti-entropy scans, outbox flushes and retries, stall
// jumps, adoptions. N replicators on one virtual clock stepped in a loop are
// a deterministic simulation (internal/chaos's seed sweep, cdn.Network); a
// socket binary drives the same Step from a ticker.
//
// Observations and session handoffs ride the same transport with epoch 0:
// they are fire-and-forget evidence streams whose loss only delays a
// threshold crossing, so they stay outside the watermark machinery.
//
// What a deployment sets (Config) is who it is, whom it talks to and through
// what, and the five timings that scale with its network: retry backoff and
// its ceiling, send patience, heartbeat and anti-entropy intervals. The
// sizes — outbox capacity, batch size, suspicion threshold, anti-entropy
// batch — and the stall timeout are constants; the stores need no bound, as
// every entry lapses at the expiry its publisher gave it.
package fleet

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/telemetry"
)

// Kind is the type of one replicated update.
type Kind uint8

const (
	// KindVerdict replicates a definite classification.
	KindVerdict Kind = iota
	// KindBlock replicates a block-list entry.
	KindBlock
	// KindModel replicates a trained model publication.
	KindModel
	// KindObservation forwards one observed request to the session's
	// partition owner (fire-and-forget, epoch 0).
	KindObservation
	// KindHandoff requests or carries a session's evidence (signals) between
	// a partition owner and a replica (fire-and-forget, epoch 0).
	KindHandoff
)

// Update is one replicated state change. Durable kinds (verdict, block,
// model) carry a dense per-origin epoch; fire-and-forget kinds (observation,
// handoff) carry epoch 0 and skip the watermark machinery.
type Update struct {
	// Origin is the node that originated the update; Inc is that node's
	// incarnation (bumped on restart, so a node that comes back with a reset
	// epoch counter is not mistaken for a replayer).
	Origin string
	Inc    uint32
	// Epoch is the origin's dense update sequence (1, 2, 3, …); 0 marks a
	// fire-and-forget update.
	Epoch uint64
	// Stamp is the origin's wall clock in Unix nanoseconds when the update
	// was published, used for merge tie-breaks and convergence-lag metrics.
	Stamp int64
	// Kind selects which of the payload groups below is meaningful.
	Kind Kind

	// Key identifies the session (verdict, block, observation, handoff).
	Key session.Key

	// Verdict payload. Its Origin names the node whose engine derived it:
	// the update's Origin changes when a node adopts the entry, that never does.
	Verdict detect.Verdict

	// Verdict and block: when the entry lapses, in Unix nanoseconds.
	Until int64

	// Model payload.
	Model    *adaboost.Model
	ModelSeq uint64

	// Observation payload (one request of the session's access log).
	Method string
	Path   string
	Status int
	Bytes  int64
	Refer  string
	CT     string // response content type
	When   int64  // request time, Unix nanoseconds

	// Handoff payload: nil Signals with HandoffReply false is a request for
	// the session's evidence; HandoffReply true carries it.
	Signals      []session.Signal
	HandoffReply bool
}

// MsgKind is the transport-level message type.
type MsgKind uint8

const (
	// MsgBatch carries a batch of updates.
	MsgBatch MsgKind = iota
	// MsgHeartbeat carries the sender's applied watermarks.
	MsgHeartbeat
)

// Watermark advertises one origin's applied contiguous epoch.
type Watermark struct {
	Origin string
	Inc    uint32
	Epoch  uint64
}

// Message is one transport frame between two replicators.
type Message struct {
	From       string
	Inc        uint32
	Kind       MsgKind
	Updates    []Update    // MsgBatch
	Watermarks []Watermark // MsgHeartbeat
}

// Transport delivers messages between replicators. Send is called from Step
// with no replicator lock held; it must be safe for concurrent use and
// return promptly (a slow link queues, it does not make Step wait). An error
// means the message was not (or may not have been) delivered and the sender
// may retry — receivers therefore must tolerate duplicate delivery, which
// the merge layer guarantees. A transport may hold on to the frame.
type Transport interface {
	Send(to string, msg *Message) error
}

// ErrNodeDown is returned by Replicator.Receive (and propagated by the
// in-process mesh) when the target replicator is stopped.
var ErrNodeDown = errors.New("fleet: node down")

// Callbacks wire applied updates into the node's local engines. They run on
// the goroutine that called Receive, with no replicator lock held, so they
// may call back into the replicator; nil callbacks are skipped.
type Callbacks struct {
	// OnVerdict fires when a replicated verdict changed this node's merged
	// verdict state for key (VerdictFor reads the new state).
	OnVerdict func(key session.Key)
	// OnBlock fires when a replicated block extended this node's merged
	// block state for key.
	OnBlock func(key session.Key, until time.Time)
	// OnModel fires when a replicated model publication superseded the
	// node's current model.
	OnModel func(m *adaboost.Model, seq uint64)
	// OnObservation receives forwarded request observations for sessions
	// this node owns.
	OnObservation func(u Update)
	// OnHandoff receives a session's evidence handed off by a peer.
	OnHandoff func(key session.Key, signals []session.Signal)
	// HandoffSource supplies the local evidence for a session when a peer
	// requests a handoff (anti-entropy backfill for failover serving).
	HandoffSource func(key session.Key) ([]session.Signal, bool)
	// SessionEnd reports when the local session for key ends if it stays
	// idle from now on, or false when none is tracked. Step uses it to carry
	// this node's own verdicts on past their expiry while their sessions go
	// on; without it they lapse at the expiry they were published with.
	SessionEnd func(key session.Key) (time.Time, bool)
}

// Config controls one Replicator.
type Config struct {
	// Name is this node's unique name; Peers are the other fleet members.
	Name  string
	Peers []string
	// Transport carries messages; required.
	Transport Transport
	// Callbacks apply replicated state to the local engines.
	Callbacks Callbacks
	// RetryBackoff is the initial send-retry delay, doubled (with jitter) up
	// to MaxBackoff (defaults 5ms and 500ms). Step cannot retry more finely
	// than it is called.
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// SendPatience bounds how long one batch is retried against an
	// unresponsive peer before it is dropped (counted) and the sender moves
	// on — the per-peer timeout that keeps a dead peer from pinning its
	// outbox forever (default 2s). Anti-entropy re-sends dropped durable
	// updates once the peer heals.
	SendPatience time.Duration
	// HeartbeatInterval paces watermark advertisement and feeds the phi
	// suspicion (default 100ms).
	HeartbeatInterval time.Duration
	// AntiEntropyInterval paces the per-peer store re-scan (default 300ms).
	AntiEntropyInterval time.Duration
	// Clock stamps published updates and times what Receive hears (suspicion,
	// stall ages, apply lag); defaults to the wall clock. Pacing is Step's
	// argument, not this.
	Clock clock.Clock
	// Seed drives backoff jitter.
	Seed uint64
}

// The replication layer's fixed sizes. The timings above are what a
// deployment (or the fleet experiment) scales to its network; these bound
// memory and work per peer and nobody has needed to move them.
const (
	// outboxCapacity bounds each per-peer outbox; a full outbox drops new
	// updates (counted) instead of blocking the publisher.
	outboxCapacity = 1024
	// batchSize caps updates per transport message.
	batchSize = 128
	// phiThreshold is the multiple of the mean heartbeat inter-arrival after
	// which a peer is suspected down.
	phiThreshold = 8.0
	// antiEntropyBatch caps re-sent entries per peer per scan.
	antiEntropyBatch = 256
	// stallTimeout bounds how long a watermark waits on a missing epoch
	// before jumping past the gap and counting the loss — the epoch-lag
	// bound: an update is either applied or counted as a gap within
	// stallTimeout of its neighbours.
	stallTimeout = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.SendPatience <= 0 {
		c.SendPatience = 2 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.AntiEntropyInterval <= 0 {
		c.AntiEntropyInterval = 300 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// Record is one merged verdict or block entry: the identity it travelled
// under, its origin's stamp, when it lapses, and for a verdict the verdict.
type Record struct {
	Verdict detect.Verdict // KindVerdict only
	Origin  string
	Inc     uint32
	Epoch   uint64
	Stamp   int64
	Until   int64 // Unix nanoseconds; from then on no reader sees the entry
}

// record returns the store entry a verdict or block update merges as.
func (u *Update) record() Record {
	return Record{Verdict: u.Verdict, Origin: u.Origin, Inc: u.Inc, Epoch: u.Epoch, Stamp: u.Stamp, Until: u.Until}
}

// update rebuilds, for re-sending, the update a record was merged from.
func (rec *Record) update(kind Kind, key session.Key) Update {
	return Update{Origin: rec.Origin, Inc: rec.Inc, Epoch: rec.Epoch, Stamp: rec.Stamp, Kind: kind, Key: key, Until: rec.Until, Verdict: rec.Verdict}
}

type modelEntry struct {
	m      *adaboost.Model
	seq    uint64
	origin string
	inc    uint32
	stamp  int64
}

// originState tracks one origin's applied epochs: the contiguous watermark
// and the out-of-order window above it.
type originState struct {
	inc     uint32
	contig  uint64
	pending map[uint64]int64 // applied epoch above contig → first-seen nanos
	// orphaned marks that the origin has restarted since the last Step: what
	// this node holds from its dead incarnations is due for adoption.
	orphaned bool
}

// Replicator is one node's half of the fleet control plane: a passive state
// machine. Publish*, ForwardObservation, the handoff calls and Receive change
// its state; Step is the only thing that moves its time — whoever owns the
// node's clock (the simulated CDN's virtual-clock event, a socket binary's
// ticker) calls it. It is safe for concurrent use.
type Replicator struct {
	cfg       Config
	peers     map[string]*peer // fixed after New; the peers themselves are guarded by mu
	peerNames []string
	lag       telemetry.Histogram // apply lag, origin stamp → local apply

	// mu guards everything below and every peer's fields. It is never held
	// across Transport.Send or a Callbacks function.
	mu      sync.Mutex
	running bool
	inc     uint32                    // incarnation, bumped by Restart
	epoch   uint64                    // own dense epoch counter for durable updates
	stores  [2]map[session.Key]Record // indexed by KindVerdict, KindBlock
	model   modelEntry
	wms     map[string]*originState
	jitter  *rng.Source
	stats   Counters
	minLife int64 // shortest Until − Stamp merged since the last wipe
	pruned  int64 // when Step last dropped lapsed entries
}

// New creates a stopped Replicator; Start lets it receive and step.
func New(cfg Config) *Replicator {
	cfg = cfg.withDefaults()
	if cfg.Name == "" || cfg.Transport == nil {
		panic("fleet: Config.Name and Config.Transport are required")
	}
	r := &Replicator{
		cfg:    cfg,
		inc:    1,
		stores: [2]map[session.Key]Record{{}, {}},
		wms:    make(map[string]*originState),
		peers:  make(map[string]*peer),
		jitter: rng.New(cfg.Seed ^ 0x666c6565742d6a69).Fork("fleet-jitter"),
	}
	for _, name := range cfg.Peers {
		if name == cfg.Name {
			continue
		}
		p := newPeer(name)
		r.peers[name] = &p
		r.peerNames = append(r.peerNames, name)
	}
	sort.Strings(r.peerNames)
	return r
}

// Name returns the node name.
func (r *Replicator) Name() string { return r.cfg.Name }

// Start marks the replicator running: it accepts Receive and acts on Step.
// Each peer's heartbeat period is drawn here (the interval plus up to a
// quarter of jitter, so a fleet's beats do not align) and its first beat is
// due at the next Step. It is idempotent while running.
func (r *Replicator) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	r.running = true
	hb := r.cfg.HeartbeatInterval
	for _, name := range r.peerNames {
		p := r.peers[name]
		p.beatEvery = int64(hb) + int64(r.jitter.Uint64n(uint64(hb/4)+1))
		p.nextBeat, p.nextScan = 0, 0
	}
}

// Stop marks the replicator stopped: Receive refuses with ErrNodeDown and
// Step does nothing (outbox contents are retained for a later Start). It is
// idempotent.
func (r *Replicator) Stop() {
	r.mu.Lock()
	r.running = false
	r.mu.Unlock()
}

// Wipe clears all replicated state — stores, watermarks, epoch counter and
// outboxes — simulating a crash that lost the node's memory. Call only while
// stopped.
func (r *Replicator) Wipe() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stores = [2]map[session.Key]Record{{}, {}}
	r.model = modelEntry{}
	r.wms = make(map[string]*originState)
	r.epoch, r.minLife, r.pruned = 0, 0, 0
	for _, p := range r.peers {
		*p = newPeer(p.name)
	}
}

// Restart bumps the incarnation and starts the replicator again; peers reset
// their watermark state for this origin when they see the higher incarnation.
func (r *Replicator) Restart() {
	r.mu.Lock()
	r.inc++
	r.mu.Unlock()
	r.Start()
}

// nowNanos returns the configured clock's time in Unix nanoseconds.
func (r *Replicator) nowNanos() int64 { return r.cfg.Clock.Now().UnixNano() }

// ---- publishing (origin side) ----

// publishLocked stamps a durable update with this origin's identity and next
// dense epoch, merges it locally and enqueues it to every peer outbox. It
// never blocks: full outboxes drop (counted) and anti-entropy repairs the
// difference later.
func (r *Replicator) publishLocked(u Update) {
	r.epoch++
	u.Origin, u.Inc, u.Epoch = r.cfg.Name, r.inc, r.epoch
	now := r.nowNanos()
	if u.Stamp == 0 {
		u.Stamp = now
	}
	r.admitLocked(&u, now)
	r.mergeLocked(&u, now)
	for _, p := range r.peers {
		p.enqueue(u)
	}
}

// adoptLocked re-publishes, as this node's own updates with their stamps,
// expiries and authors kept, the live entries it holds from origin's incarnations before
// inc. A watermark speaks for one incarnation of an origin, so once a peer
// has seen the new one nothing can tell it is missing an entry of the old —
// and the fence would refuse it anyway. Every holder adopts what it holds;
// the merge order settles whose label an entry ends up under.
func (r *Replicator) adoptLocked(origin string, inc uint32, now int64) {
	for kind, store := range r.stores {
		for k, rec := range store {
			if rec.Origin == origin && rec.Inc < inc && rec.Until > now {
				delete(store, k) // the re-publication replaces it, whatever the merge order says
				r.publishLocked(rec.update(Kind(kind), k))
			}
		}
	}
}

// PublishVerdict replicates a definite verdict fleet-wide until the given
// time. While the key's merged record is live, publishing the same class at
// no higher confidence is a no-op, so the engine's export hook can fire on
// every recompute without flooding the mesh; once the record has lapsed, the
// next recompute publishes it afresh.
func (r *Replicator) PublishVerdict(key session.Key, v detect.Verdict, until time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.stores[KindVerdict][key]; ok && cur.Until > r.nowNanos() &&
		cur.Verdict.Class == v.Class && cur.Verdict.Confidence >= v.Confidence {
		return false
	}
	v.Origin = r.cfg.Name
	r.publishLocked(Update{Kind: KindVerdict, Key: ownKey(key), Until: until.UnixNano(), Verdict: v})
	return true
}

// PublishBlock replicates a block-list entry (key blocked until the given
// time). Earlier-or-equal expiries for an already-replicated key are no-ops.
func (r *Replicator) PublishBlock(key session.Key, until time.Time) bool {
	nanos := until.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.stores[KindBlock][key]; ok && cur.Until >= nanos {
		return false
	}
	r.publishLocked(Update{Kind: KindBlock, Key: ownKey(key), Until: nanos})
	return true
}

// ownKey copies a key the fleet keeps past the request that named it: a
// snapshot's key holds the caller's strings, and a client address may be cut
// from a request line the store must not pin.
func ownKey(key session.Key) session.Key {
	return session.Key{IP: strings.Clone(key.IP), UserAgent: strings.Clone(key.UserAgent)}
}

// PublishModel replicates a trained model fleet-wide with the next model
// sequence number — one past the highest this node has seen, so a trainer
// failover publishes with a winning sequence. The fleet assumes a single
// trainer at a time; concurrent publications converge on the highest
// sequence.
func (r *Replicator) PublishModel(m *adaboost.Model) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq := r.model.seq + 1
	r.publishLocked(Update{Kind: KindModel, Model: m, ModelSeq: seq})
	return seq
}

// sendTo enqueues one fire-and-forget update to a peer's outbox: a full
// outbox or dead peer drops it.
func (r *Replicator) sendTo(to string, u Update) bool {
	p, ok := r.peers[to]
	if !ok {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	u.Origin, u.Inc, u.Epoch = r.cfg.Name, r.inc, 0
	if u.Stamp == 0 {
		u.Stamp = r.nowNanos()
	}
	if u.Kind == KindObservation {
		r.stats.ObsForward++
	}
	return p.enqueue(u)
}

// ForwardObservation forwards one observed request to the session's
// partition owner. Fire-and-forget: losing it only delays the owner's
// threshold crossing.
func (r *Replicator) ForwardObservation(owner string, u Update) {
	u.Kind = KindObservation
	r.sendTo(owner, u)
}

// RequestHandoff asks owner for the session's evidence (signals); the reply
// arrives through Callbacks.OnHandoff.
func (r *Replicator) RequestHandoff(owner string, key session.Key) {
	r.sendTo(owner, Update{Kind: KindHandoff, Key: key})
}

// ---- receiving / applying ----

// Receive applies one transport frame. It is the Transport's delivery
// entry point and is safe for concurrent use; it returns ErrNodeDown while
// the replicator is stopped (a crashed node does not receive).
func (r *Replicator) Receive(msg *Message) error {
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return ErrNodeDown
	}
	if p, ok := r.peers[msg.From]; ok {
		if msg.Inc > p.inc {
			// The peer restarted and forgot what it had applied: neither what
			// was delivered to it nor what it advertised holds any more.
			p.inc, p.acked = msg.Inc, 0
			clear(p.wms)
		}
		p.touch(r.nowNanos())
		if msg.Kind == MsgHeartbeat {
			// Only fleet members' watermarks are kept: a frame cannot grow the
			// vector past the fleet's size.
			clear(p.wms)
			for _, w := range msg.Watermarks {
				if _, member := r.peers[w.Origin]; member || w.Origin == r.cfg.Name {
					p.wms[w.Origin] = w
				}
			}
		}
	}
	r.mu.Unlock()
	if msg.Kind == MsgHeartbeat {
		return nil
	}
	for i := range msg.Updates {
		r.apply(&msg.Updates[i])
	}
	return nil
}

// apply routes one update: durable kinds (and the model re-offer) go through
// the watermark and merge machinery, fire-and-forget kinds dispatch straight
// to callbacks.
func (r *Replicator) apply(u *Update) {
	cb := &r.cfg.Callbacks
	switch {
	case u.Epoch != 0 || u.Kind == KindModel:
		r.applyDurable(u)
	case u.Kind == KindObservation:
		if cb.OnObservation != nil {
			cb.OnObservation(*u)
		}
	case u.Kind == KindHandoff && u.HandoffReply:
		if cb.OnHandoff != nil {
			cb.OnHandoff(u.Key, u.Signals)
		}
	case u.Kind == KindHandoff && cb.HandoffSource != nil:
		// A handoff request, served from local evidence.
		if sigs, ok := cb.HandoffSource(u.Key); ok && len(sigs) > 0 {
			r.sendTo(u.Origin, Update{Kind: KindHandoff, Key: u.Key, Signals: sigs, HandoffReply: true})
		}
	}
}

// applyDurable admits and merges one durable update from a peer and fires
// the callback of a merge that changed this node's state. Anti-entropy
// re-offers the merged model with epoch 0: its merge is sequence-idempotent,
// so it needs no watermark admission.
func (r *Replicator) applyDurable(u *Update) {
	now := r.nowNanos()
	r.mu.Lock()
	fresh := u.Epoch == 0
	if !fresh && r.admitLocked(u, now) {
		fresh = true
		r.stats.Applied++
		r.lag.Observe(time.Duration(now - u.Stamp))
	}
	changed := fresh && r.mergeLocked(u, now)
	r.mu.Unlock()
	if !changed {
		return
	}
	cb := &r.cfg.Callbacks
	switch {
	case u.Kind == KindVerdict && cb.OnVerdict != nil:
		cb.OnVerdict(u.Key)
	case u.Kind == KindBlock && cb.OnBlock != nil:
		cb.OnBlock(u.Key, time.Unix(0, u.Until))
	case u.Kind == KindModel && cb.OnModel != nil:
		cb.OnModel(u.Model, u.ModelSeq)
	}
}

// admitLocked runs the watermark admission for one durable update: stale
// incarnations and already-applied epochs are rejected; fresh epochs are
// recorded and the contiguous watermark advances (jumping past gaps older
// than stallTimeout, counting the lost epochs).
func (r *Replicator) admitLocked(u *Update, now int64) bool {
	os := r.wms[u.Origin]
	if os == nil {
		os = &originState{inc: u.Inc, pending: make(map[uint64]int64)}
		r.wms[u.Origin] = os
	}
	switch {
	case u.Inc < os.inc:
		r.stats.StaleInc++
		return false
	case u.Inc > os.inc:
		// The origin restarted: its epochs restart dense from 1 under the
		// new incarnation, so the applied window resets with it.
		os.inc = u.Inc
		os.contig = 0
		os.orphaned = true
		clear(os.pending)
	}
	if _, dup := os.pending[u.Epoch]; dup || u.Epoch <= os.contig {
		r.stats.Replays++
		return false
	}
	os.pending[u.Epoch] = now
	r.advanceLocked(os, now)
	return true
}

// advanceLocked moves the contiguous watermark through the pending window,
// jumping past gaps whose successors have waited longer than stallTimeout.
func (r *Replicator) advanceLocked(os *originState, now int64) {
	for {
		if _, ok := os.pending[os.contig+1]; ok {
			delete(os.pending, os.contig+1)
			os.contig++
			continue
		}
		if len(os.pending) == 0 {
			return
		}
		// Gap: find the lowest pending epoch and its age.
		low, oldest := uint64(0), int64(0)
		for e, at := range os.pending {
			if low == 0 || e < low {
				low = e
			}
			if oldest == 0 || at < oldest {
				oldest = at
			}
		}
		if now-oldest < int64(stallTimeout) {
			return
		}
		// The missing epochs are declared lost (the configured epoch-lag
		// bound): count them and jump the watermark to the edge of the gap.
		r.stats.EpochGaps += low - os.contig - 1
		os.contig = low - 1
	}
}

// mergeLocked merges one admitted update into the stores — the one place
// each kind's last-writer-wins order is spelled — and reports whether it
// changed this node's merged state. An entry that has lapsed by now is not
// stored: a late frame cannot bring it back.
func (r *Replicator) mergeLocked(u *Update, now int64) bool {
	switch u.Kind {
	case KindVerdict, KindBlock:
		rec := u.record()
		if rec.Until <= now {
			return false
		}
		store := r.stores[u.Kind]
		if cur, ok := store[u.Key]; ok && !recordLess(cur, rec) {
			return false
		}
		store[u.Key] = rec
		if life := rec.Until - rec.Stamp; life > 0 && (r.minLife == 0 || life < r.minLife) {
			r.minLife = life
		}
		return true
	case KindModel:
		// Highest sequence, then stamp, wins; a frame without a model is
		// not a publication.
		if u.Model == nil || u.ModelSeq < r.model.seq || (u.ModelSeq == r.model.seq && u.Stamp <= r.model.stamp) {
			return false
		}
		r.model = modelEntry{m: u.Model, seq: u.ModelSeq, origin: u.Origin, inc: u.Inc, stamp: u.Stamp}
		return true
	}
	return false
}

// recordLess orders two records for one key deterministically (the merge's
// total order): the later expiry wins, then higher confidence, later stamp,
// origin name, incarnation and epoch. The winner is the last of the key's
// records to lapse, so keeping only it loses nothing a reader could still
// see, and any delivery order and timing of the same updates leaves every
// replica the same winner.
func recordLess(a, b Record) bool {
	if a.Until != b.Until {
		return a.Until < b.Until
	}
	if a.Verdict.Confidence != b.Verdict.Confidence {
		return a.Verdict.Confidence < b.Verdict.Confidence
	}
	if a.Stamp != b.Stamp {
		return a.Stamp < b.Stamp
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	if a.Inc != b.Inc {
		return a.Inc < b.Inc
	}
	return a.Epoch < b.Epoch
}

// ownLocked reports whether rec is this node's own publication of a verdict
// its engine derived — not one it adopted from a peer.
func (r *Replicator) ownLocked(rec Record) bool {
	return rec.Origin == r.cfg.Name && rec.Verdict.Origin == r.cfg.Name
}

// pruneLocked drops every entry that has lapsed by now and lists this node's
// own verdicts that lapse within half the shortest lifetime: Step's pass, at
// most a quarter of it apart, sees each of them at least once before it does.
func (r *Replicator) pruneLocked(now int64) (expiring []session.Key) {
	for kind, store := range r.stores {
		for k, rec := range store {
			switch {
			case rec.Until <= now:
				delete(store, k)
				r.stats.Expired++
			case Kind(kind) == KindVerdict && rec.Until-now <= r.minLife/2 && r.ownLocked(rec) && r.cfg.Callbacks.SessionEnd != nil:
				expiring = append(expiring, k)
			}
		}
	}
	return expiring
}

// renew re-publishes each expiring own verdict whose session goes on past
// the verdict's expiry, until the session's new end: a verdict lasts as long
// as the session it judged, not only as long as its first publication said.
func (r *Replicator) renew(keys []session.Key) {
	for _, k := range keys {
		end, ok := r.cfg.Callbacks.SessionEnd(k)
		r.mu.Lock()
		if rec, live := r.stores[KindVerdict][k]; ok && live && r.running && r.ownLocked(rec) && end.UnixNano() > rec.Until {
			u := rec.update(KindVerdict, k)
			u.Stamp, u.Until = 0, end.UnixNano()
			r.publishLocked(u)
		}
		r.mu.Unlock()
	}
}

// LagQuantile returns the q-quantile (0..1) of the apply-lag samples as a
// duration (the upper bound of the histogram bucket it falls in), and false
// when no samples exist.
func (r *Replicator) LagQuantile(q float64) (time.Duration, bool) {
	s := r.lag.Snapshot()
	return s.Quantile(q), s.Count > 0
}

// ---- state reads ----

// VerdictFor returns the live merged fleet verdict for key, if any.
func (r *Replicator) VerdictFor(key session.Key) (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.stores[KindVerdict][key]
	if !ok || rec.Until <= r.nowNanos() {
		return Record{}, false
	}
	return rec, true
}

// Model returns the merged fleet model and its sequence.
func (r *Replicator) Model() (*adaboost.Model, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.model.m, r.model.seq
}

// VerdictCount and BlockCount return merged store sizes, counting entries
// that have lapsed but that Step has not dropped yet.
func (r *Replicator) VerdictCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stores[KindVerdict])
}

// BlockCount returns the number of merged block entries.
func (r *Replicator) BlockCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.stores[KindBlock])
}

// Digest returns a delivery-order-independent hash of the live merged
// verdict/block state, for convergence assertions across nodes.
func (r *Replicator) Digest() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.nowNanos()
	var h uint64
	for kind, store := range r.stores {
		for k, rec := range store {
			if rec.Until > now {
				h ^= entryHash(k, uint64(kind)<<40|uint64(rec.Verdict.Class)<<32|uint64(rec.Verdict.Confidence),
					uint64(rec.Stamp)^uint64(rec.Until)*0x94d049bb133111eb)
			}
		}
	}
	return h
}

// entryHash hashes one store entry; entries combine with XOR so iteration
// order is irrelevant.
func entryHash(k session.Key, kind, val uint64) uint64 {
	h := k.Hash() ^ kind*0x9e3779b97f4a7c15 ^ val*0xbf58476d1ce4e5b9
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Watermark returns the applied contiguous epoch for origin.
func (r *Replicator) Watermark(origin string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if os := r.wms[origin]; os != nil {
		return os.contig
	}
	return 0
}

// PublishedEpoch returns this origin's own durable epoch counter.
func (r *Replicator) PublishedEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// MinAckedEpoch returns the smallest epoch acked by a peer: every own
// update at or below it survives this node's crash on at least every peer.
func (r *Replicator) MinAckedEpoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	min, first := uint64(0), true
	for _, p := range r.peers {
		if first || p.acked < min {
			min, first = p.acked, false
		}
	}
	return min
}

// Counters are the replicator's cumulative counters.
type Counters struct {
	Applied    uint64 // durable updates applied fresh from peers
	Replays    uint64 // duplicate/stale deliveries rejected
	StaleInc   uint64 // updates from an old incarnation rejected
	EpochGaps  uint64 // epochs the watermark jumped past (lost updates)
	ObsForward uint64
	AEResends  uint64
	Expired    uint64 // lapsed verdict and block entries Step dropped
}

// Stats returns a snapshot of the counters.
func (r *Replicator) Stats() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// ---- Step: heartbeats, anti-entropy, outbox flush ----

// Step is the replicator's clock edge: it drops lapsed entries and renews
// this node's own verdicts whose sessions outlast them (Callbacks.SessionEnd)
// — at most once per quarter of the shortest lifetime (Until − Stamp) it has
// stored — advances watermarks stalled past stallTimeout, sends each peer the
// heartbeat and runs the anti-entropy scan that are due at now, and flushes
// each peer's outbox — batches of up to batchSize, a failed batch retried on
// later Steps with doubling backoff + jitter for at most SendPatience before
// it is dropped (counted; anti-entropy repairs durable updates once the peer
// heals). A stopped replicator ignores it. Calling it more often than the
// timings need is harmless.
func (r *Replicator) Step(now time.Time) {
	t := now.UnixNano()
	var expiring []session.Key
	r.mu.Lock()
	if r.running {
		if r.minLife > 0 && t-r.pruned >= r.minLife/4 {
			r.pruned = t
			expiring = r.pruneLocked(t)
		}
		for origin, os := range r.wms {
			r.advanceLocked(os, t)
			if os.orphaned {
				os.orphaned = false
				r.adoptLocked(origin, os.inc, t)
			}
		}
	}
	r.mu.Unlock()
	r.renew(expiring)
	for _, name := range r.peerNames {
		p := r.peers[name]
		if hb := r.dueHeartbeat(p, t); hb != nil {
			// Failures are ignored — the peer's phi detector reads silence as
			// suspicion.
			_ = r.cfg.Transport.Send(name, hb)
		}
		for msg := r.dueBatch(p, t); msg != nil; msg = r.dueBatch(p, t) {
			if !r.sent(p, msg.Updates, r.cfg.Transport.Send(name, msg), t) {
				break
			}
		}
	}
}

// dueHeartbeat returns the heartbeat to send the peer if one is due —
// advertising this node's applied watermarks, its own published epochs
// included — and runs the peer's anti-entropy scan if that is due too.
func (r *Replicator) dueHeartbeat(p *peer, t int64) *Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.running || t < p.nextBeat {
		return nil
	}
	p.nextBeat = t + p.beatEvery
	if t >= p.nextScan {
		p.nextScan = t + int64(r.cfg.AntiEntropyInterval)
		r.antiEntropyLocked(p, t)
	}
	wms := make([]Watermark, 0, len(r.wms))
	for origin, os := range r.wms {
		wms = append(wms, Watermark{Origin: origin, Inc: os.inc, Epoch: os.contig})
	}
	return &Message{From: r.cfg.Name, Inc: r.inc, Kind: MsgHeartbeat, Watermarks: wms}
}

// dueBatch returns the batch frame to send the peer now: the one being
// retried if its backoff has run out, else a fresh one cut from the outbox —
// a new slice each time, since a transport may hold on to a frame. It returns
// nil when nothing is due or another Step is mid-send to this peer.
func (r *Replicator) dueBatch(p *peer, t int64) *Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.running || p.sending {
		return nil
	}
	if p.batch == nil {
		n := min(len(p.out), batchSize)
		if n == 0 {
			return nil
		}
		p.batch = append([]Update(nil), p.out[:n]...)
		p.out = append(p.out[:0], p.out[n:]...)
		p.batchSince, p.nextAttempt, p.backoff = t, t, int64(r.cfg.RetryBackoff)
	}
	if t < p.nextAttempt {
		return nil
	}
	p.sending = true
	return &Message{From: r.cfg.Name, Inc: r.inc, Kind: MsgBatch, Updates: p.batch}
}

// sent records one send's outcome and reports whether the batch is done
// with, so the next can be cut: success advances the peer's acked own-epoch
// high-water mark; failure schedules the retry, or drops the batch once
// SendPatience has run out.
func (r *Replicator) sent(p *peer, batch []Update, err error, t int64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(p.batch) == 0 || &p.batch[0] != &batch[0] {
		return false // wiped while the send was in flight
	}
	p.sending = false
	switch {
	case err == nil:
		p.sent += int64(len(batch))
		for _, u := range batch {
			// Own epochs of this incarnation only: a restarted node re-sends
			// what it backfilled of its dead incarnations, and those epochs
			// say nothing about the counter it publishes under now.
			if u.Origin == r.cfg.Name && u.Inc == r.inc && u.Epoch > p.acked {
				p.acked = u.Epoch
			}
		}
		p.batch = nil
	case t-p.batchSince >= int64(r.cfg.SendPatience):
		p.dropped += int64(len(batch))
		p.batch = nil
	default:
		p.nextAttempt = t + p.backoff + int64(r.jitter.Uint64n(uint64(p.backoff/2)+1))
		p.backoff = min(p.backoff*2, int64(r.cfg.MaxBackoff))
	}
	return p.batch == nil
}

// antiEntropyLocked re-sends the live store entries the peer's advertised
// watermarks show it to be missing: silent drops, partition backlogs and
// post-restart backfills all heal through this one path. Entries are enqueued
// through the normal outbox (bounded, non-blocking).
func (r *Replicator) antiEntropyLocked(p *peer, now int64) {
	if p.lastRecv == 0 {
		return // never heard from the peer; don't flood a dead outbox
	}
	missing := func(origin string, inc uint32, epoch uint64) bool {
		w, ok := p.wms[origin]
		if !ok {
			return true
		}
		if w.Inc != inc {
			return w.Inc < inc
		}
		return w.Epoch < epoch
	}
	budget := antiEntropyBatch
	resend := func(u Update) {
		budget--
		if p.enqueue(u) {
			r.stats.AEResends++
		}
	}
	for kind, store := range r.stores {
		for k, rec := range store {
			if budget <= 0 {
				return
			}
			if rec.Until > now && missing(rec.Origin, rec.Inc, rec.Epoch) {
				resend(rec.update(Kind(kind), k))
			}
		}
	}
	if r.model.m != nil && budget > 0 {
		// The model entry is keyed by sequence, not epoch: re-offer it with
		// epoch 0 under its origin's own identity whenever the peer might be
		// behind (the merge discards stale ones).
		resend(Update{
			Origin: r.model.origin, Inc: r.model.inc, Stamp: r.model.stamp, Kind: KindModel,
			Model: r.model.m, ModelSeq: r.model.seq,
		})
	}
}
