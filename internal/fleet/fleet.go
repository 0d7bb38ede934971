// Package fleet is the replicated control plane that turns a set of
// detection nodes into one fault-tolerant fleet. Each node runs a
// Replicator that gossips epoch-stamped updates — definite verdicts,
// block-list entries and model publications — to every peer through
// per-peer outboxes, and applies updates received from peers through
// idempotent, commutative merges, so any delivery interleaving (drops,
// duplicates, reorders) converges to the same verdict/block state as
// sequential delivery.
//
// The design generalises the repo's existing single-node publication
// patterns (the policy ladder's copy-on-write snapshot, Engine.SetModel's
// atomic swap) to cross-node asynchrony:
//
//   - Every durable update carries its origin node, an incarnation number
//     and a per-origin dense epoch (1, 2, 3, …). Receivers keep a per-origin
//     applied-epoch watermark (the highest contiguous applied epoch, read
//     lock-free) plus a small out-of-order window above it, so replays are
//     rejected in O(1) and reordering is harmless.
//   - Merges are last-writer-wins under a deterministic total order
//     (verdicts: confidence, then stamp, then origin; blocks: latest
//     expiry; models: highest sequence), so duplicated or reordered
//     deliveries cannot diverge replicas.
//   - Senders never block the serve path: Publish enqueues into a bounded
//     per-peer outbox (full ⇒ counted drop), and a dedicated goroutine per
//     peer drains it with doubling backoff + jitter. A dead peer costs its
//     own outbox, nothing else.
//   - Anti-entropy heals silent loss: heartbeats advertise each node's
//     applied watermarks, and every node periodically re-sends store
//     entries a peer's watermarks show it to be missing — which also
//     backfills a node that restarted empty (it simply advertises nothing).
//   - Peer health is a phi-style accrual suspicion over heartbeat
//     inter-arrival times; when a quorum of the fleet is unreachable the
//     node reports Isolated and keeps serving from its local engine alone.
//
// Observations and session handoffs ride the same transport with epoch 0:
// they are fire-and-forget evidence streams whose loss only delays a
// threshold crossing, so they stay outside the watermark machinery.
//
// What a deployment sets (Config) is who it is, whom it talks to and through
// what, and the five timings that scale with its network: retry backoff and
// its ceiling, send patience, heartbeat and anti-entropy intervals. The
// sizes — outbox capacity, batch size, suspicion threshold, anti-entropy
// batch, verdict-store bound — and the stall timeout are constants.
package fleet

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/rng"
	"botdetect/internal/session"
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

// String returns the kind's short name.
func (k Kind) String() string {
	switch k {
	case KindVerdict:
		return "verdict"
	case KindBlock:
		return "block"
	case KindModel:
		return "model"
	case KindObservation:
		return "observation"
	case KindHandoff:
		return "handoff"
	default:
		return "unknown"
	}
}

// SignalAt is one detection signal with the request index it was observed at,
// as carried by a session handoff.
type SignalAt struct {
	Signal session.Signal
	At     int64
}

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

	// Verdict payload.
	Class      detect.Class
	Confidence detect.Confidence
	Reason     string
	AtRequest  int64

	// Block payload: expiry in Unix nanoseconds.
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
	Signals      []SignalAt
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

// Transport delivers messages between replicators. Send must be safe for
// concurrent use; an error means the message was not (or may not have been)
// delivered and the sender may retry — receivers therefore must tolerate
// duplicate delivery, which the merge layer guarantees.
type Transport interface {
	Send(to string, msg *Message) error
}

// ErrNodeDown is returned by Replicator.Receive (and propagated by the
// in-process mesh) when the target replicator is stopped.
var ErrNodeDown = errors.New("fleet: node down")

// Callbacks wire applied updates into the node's local engines. All
// callbacks may be invoked concurrently from peer goroutines; nil callbacks
// are skipped.
type Callbacks struct {
	// OnVerdict fires when a replicated verdict changed this node's merged
	// verdict state for key.
	OnVerdict func(key session.Key, v detect.Verdict, origin string)
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
	OnHandoff func(key session.Key, signals []SignalAt)
	// HandoffSource supplies the local evidence for a session when a peer
	// requests a handoff (anti-entropy backfill for failover serving).
	HandoffSource func(key session.Key) ([]SignalAt, bool)
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
	// to MaxBackoff (defaults 5ms and 500ms).
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
	// Clock supplies time; defaults to the wall clock.
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
	// maxEntries bounds the merged verdict store; overflow evicts the
	// oldest-stamped entries.
	maxEntries = 1 << 16
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

// VerdictRecord is one merged verdict entry.
type VerdictRecord struct {
	Verdict detect.Verdict
	Origin  string
	Inc     uint32
	Epoch   uint64
	Stamp   int64
}

type blockEntry struct {
	until  int64
	origin string
	inc    uint32
	epoch  uint64
	stamp  int64
}

type modelEntry struct {
	m      *adaboost.Model
	seq    uint64
	origin string
	stamp  int64
}

// originState tracks one origin's applied epochs: the contiguous watermark
// (mirrored into an atomic for lock-free reads) and the out-of-order window
// above it.
type originState struct {
	inc       uint32
	contig    uint64
	contigPub atomic.Uint64
	pending   map[uint64]int64 // applied epoch above contig → first-seen nanos
}

const lagRing = 4096

// Replicator is one node's half of the fleet control plane. It is safe for
// concurrent use; Publish* never block on the network.
type Replicator struct {
	cfg Config

	inc      atomic.Uint32 // incarnation, bumped by Restart
	epoch    atomic.Uint64 // own dense epoch counter for durable updates
	modelSeq atomic.Uint64

	mu       sync.RWMutex // guards verdicts, blocks, model
	verdicts map[session.Key]VerdictRecord
	blocks   map[session.Key]blockEntry
	model    modelEntry

	wmMu sync.Mutex
	wms  map[string]*originState

	peers     map[string]*peer
	peerNames []string

	running atomic.Bool
	stopMu  sync.Mutex
	done    chan struct{}
	wg      sync.WaitGroup

	jitter   *rng.Source
	jitterMu sync.Mutex

	// counters
	published   atomic.Uint64 // durable updates originated here
	applied     atomic.Uint64 // durable updates applied fresh from peers
	replays     atomic.Uint64 // duplicate/stale deliveries rejected
	staleInc    atomic.Uint64 // updates from an old incarnation rejected
	epochGaps   atomic.Uint64 // epochs the watermark jumped past (lost updates)
	obsApplied  atomic.Uint64
	obsForward  atomic.Uint64
	aeResends   atomic.Uint64
	handoffsIn  atomic.Uint64
	handoffsOut atomic.Uint64

	lagMu      sync.Mutex
	lagSamples [lagRing]int64 // apply lag, nanos
	lagN       int
	lagNext    int
}

// New creates a Replicator; call Start to spin up its goroutines.
func New(cfg Config) *Replicator {
	cfg = cfg.withDefaults()
	if cfg.Name == "" || cfg.Transport == nil {
		panic("fleet: Config.Name and Config.Transport are required")
	}
	r := &Replicator{
		cfg:      cfg,
		verdicts: make(map[session.Key]VerdictRecord),
		blocks:   make(map[session.Key]blockEntry),
		wms:      make(map[string]*originState),
		peers:    make(map[string]*peer),
		jitter:   rng.New(cfg.Seed ^ 0x666c6565742d6a69).Fork("fleet-jitter"),
	}
	r.inc.Store(1)
	for _, name := range cfg.Peers {
		if name == cfg.Name {
			continue
		}
		r.peers[name] = newPeer(name, outboxCapacity)
		r.peerNames = append(r.peerNames, name)
	}
	sort.Strings(r.peerNames)
	return r
}

// Name returns the node name.
func (r *Replicator) Name() string { return r.cfg.Name }

// Incarnation returns the current incarnation number.
func (r *Replicator) Incarnation() uint32 { return r.inc.Load() }

// Start spins up the per-peer sender and heartbeat/anti-entropy goroutines.
// It is idempotent while running.
func (r *Replicator) Start() {
	r.stopMu.Lock()
	defer r.stopMu.Unlock()
	if !r.running.CompareAndSwap(false, true) {
		return
	}
	r.done = make(chan struct{})
	for _, p := range r.peers {
		r.wg.Add(2)
		go r.sender(p, r.done)
		go r.peerLoop(p, r.done)
	}
}

// Stop halts all goroutines (outbox contents are retained for a later
// Start). It is idempotent.
func (r *Replicator) Stop() {
	r.stopMu.Lock()
	defer r.stopMu.Unlock()
	if !r.running.CompareAndSwap(true, false) {
		return
	}
	close(r.done)
	r.wg.Wait()
}

// Wipe clears all replicated state — stores, watermarks, epoch counters and
// outboxes — simulating a crash that lost the node's memory. Call only while
// stopped.
func (r *Replicator) Wipe() {
	r.mu.Lock()
	r.verdicts = make(map[session.Key]VerdictRecord)
	r.blocks = make(map[session.Key]blockEntry)
	r.model = modelEntry{}
	r.mu.Unlock()
	r.wmMu.Lock()
	r.wms = make(map[string]*originState)
	r.wmMu.Unlock()
	r.epoch.Store(0)
	r.modelSeq.Store(0)
	for _, p := range r.peers {
		p.reset()
	}
}

// Restart bumps the incarnation and starts the replicator again; peers reset
// their watermark state for this origin when they see the higher incarnation.
func (r *Replicator) Restart() {
	r.inc.Add(1)
	r.Start()
}

// nowNanos returns the configured clock's time in Unix nanoseconds.
func (r *Replicator) nowNanos() int64 { return r.cfg.Clock.Now().UnixNano() }

// ---- publishing (origin side) ----

// nextUpdate stamps a durable update with this origin's identity and next
// dense epoch.
func (r *Replicator) nextUpdate(kind Kind) Update {
	return Update{
		Origin: r.cfg.Name,
		Inc:    r.inc.Load(),
		Epoch:  r.epoch.Add(1),
		Stamp:  r.nowNanos(),
		Kind:   kind,
	}
}

// PublishVerdict replicates a definite verdict fleet-wide. Publishing the
// same class/confidence for an already-replicated key is a no-op, so the
// engine's export hook can fire on every recompute without flooding the
// mesh. It never blocks: full outboxes drop (counted) and anti-entropy
// repairs the difference later.
func (r *Replicator) PublishVerdict(key session.Key, v detect.Verdict) bool {
	r.mu.RLock()
	cur, ok := r.verdicts[key]
	r.mu.RUnlock()
	if ok && cur.Verdict.Class == v.Class && cur.Verdict.Confidence >= v.Confidence {
		return false
	}
	u := r.nextUpdate(KindVerdict)
	u.Key = key
	u.Class, u.Confidence, u.Reason, u.AtRequest = v.Class, v.Confidence, v.Reason, v.AtRequest
	r.published.Add(1)
	r.applyDurable(u, true)
	r.broadcast(u)
	return true
}

// PublishBlock replicates a block-list entry (key blocked until the given
// time). Earlier-or-equal expiries for an already-replicated key are no-ops.
func (r *Replicator) PublishBlock(key session.Key, until time.Time) bool {
	nanos := until.UnixNano()
	r.mu.RLock()
	cur, ok := r.blocks[key]
	r.mu.RUnlock()
	if ok && cur.until >= nanos {
		return false
	}
	u := r.nextUpdate(KindBlock)
	u.Key = key
	u.Until = nanos
	r.published.Add(1)
	r.applyDurable(u, true)
	r.broadcast(u)
	return true
}

// PublishModel replicates a trained model fleet-wide with the next model
// sequence number. The fleet assumes a single trainer at a time; concurrent
// publications converge on the highest sequence.
func (r *Replicator) PublishModel(m *adaboost.Model) uint64 {
	seq := r.modelSeq.Add(1)
	u := r.nextUpdate(KindModel)
	u.Model = m
	u.ModelSeq = seq
	r.published.Add(1)
	r.applyDurable(u, true)
	r.broadcast(u)
	return seq
}

// ForwardObservation forwards one observed request to the session's
// partition owner. Fire-and-forget: a full outbox or dead owner drops it,
// which only delays the owner's threshold crossing.
func (r *Replicator) ForwardObservation(owner string, u Update) {
	p, ok := r.peers[owner]
	if !ok {
		return
	}
	u.Origin, u.Inc, u.Epoch, u.Kind = r.cfg.Name, r.inc.Load(), 0, KindObservation
	if u.Stamp == 0 {
		u.Stamp = r.nowNanos()
	}
	r.obsForward.Add(1)
	p.enqueue(u)
}

// RequestHandoff asks owner for the session's evidence (signals); the reply
// arrives through Callbacks.OnHandoff.
func (r *Replicator) RequestHandoff(owner string, key session.Key) {
	p, ok := r.peers[owner]
	if !ok {
		return
	}
	p.enqueue(Update{
		Origin: r.cfg.Name, Inc: r.inc.Load(), Kind: KindHandoff,
		Stamp: r.nowNanos(), Key: key,
	})
}

// SendHandoff pushes the session's evidence to a peer (graceful drain).
func (r *Replicator) SendHandoff(to string, key session.Key, signals []SignalAt) bool {
	p, ok := r.peers[to]
	if !ok {
		return false
	}
	r.handoffsOut.Add(1)
	return p.enqueue(Update{
		Origin: r.cfg.Name, Inc: r.inc.Load(), Kind: KindHandoff,
		Stamp: r.nowNanos(), Key: key, Signals: signals, HandoffReply: true,
	})
}

// broadcast enqueues a durable update to every peer outbox, never blocking.
func (r *Replicator) broadcast(u Update) {
	for _, p := range r.peers {
		p.enqueue(u)
	}
}

// Flush waits until every outbox has drained (or timeout elapses), for
// graceful shutdown. It reports whether the outboxes emptied.
func (r *Replicator) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		for _, p := range r.peers {
			if len(p.out) > 0 || p.inflight.Load() > 0 {
				idle = false
				break
			}
		}
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- receiving / applying ----

// Receive applies one transport frame. It is the Transport's delivery
// entry point and is safe for concurrent use; it returns ErrNodeDown while
// the replicator is stopped (a crashed node does not receive).
func (r *Replicator) Receive(msg *Message) error {
	if !r.running.Load() {
		return ErrNodeDown
	}
	if p, ok := r.peers[msg.From]; ok {
		p.touch(r.nowNanos())
		if msg.Kind == MsgHeartbeat {
			p.setWatermarks(msg.Watermarks)
			return nil
		}
	}
	for i := range msg.Updates {
		r.apply(&msg.Updates[i])
	}
	return nil
}

// apply routes one update: fire-and-forget kinds dispatch straight to
// callbacks, durable kinds go through the watermark and merge machinery.
func (r *Replicator) apply(u *Update) {
	if u.Epoch == 0 {
		switch u.Kind {
		case KindObservation:
			r.obsApplied.Add(1)
			if cb := r.cfg.Callbacks.OnObservation; cb != nil {
				cb(*u)
			}
		case KindHandoff:
			r.applyHandoff(u)
		case KindModel:
			// Anti-entropy re-offers the merged model with epoch 0: its merge
			// is sequence-idempotent, so it needs no watermark admission.
			r.mergeModel(u)
		}
		return
	}
	r.applyDurable(*u, false)
}

// applyHandoff serves handoff requests from local evidence and applies
// handoff replies.
func (r *Replicator) applyHandoff(u *Update) {
	if u.HandoffReply {
		r.handoffsIn.Add(1)
		if cb := r.cfg.Callbacks.OnHandoff; cb != nil {
			cb(u.Key, u.Signals)
		}
		return
	}
	src := r.cfg.Callbacks.HandoffSource
	if src == nil {
		return
	}
	sigs, ok := src(u.Key)
	if !ok || len(sigs) == 0 {
		return
	}
	r.SendHandoff(u.Origin, u.Key, sigs)
}

// mergeModel merges one model publication (highest sequence, then stamp,
// wins) and fires OnModel when it superseded the current model. Used by the
// epoch-0 anti-entropy re-offer path; the durable path embeds the same merge.
func (r *Replicator) mergeModel(u *Update) {
	var fire bool
	r.mu.Lock()
	if u.ModelSeq > r.model.seq || (u.ModelSeq == r.model.seq && u.Stamp > r.model.stamp) {
		r.model = modelEntry{m: u.Model, seq: u.ModelSeq, origin: u.Origin, stamp: u.Stamp}
		fire = true
	}
	r.mu.Unlock()
	for {
		cur := r.modelSeq.Load()
		if u.ModelSeq <= cur || r.modelSeq.CompareAndSwap(cur, u.ModelSeq) {
			break
		}
	}
	if fire {
		if cb := r.cfg.Callbacks.OnModel; cb != nil {
			cb(u.Model, u.ModelSeq)
		}
	}
}

// admitEpoch runs the watermark admission for one durable update: stale
// incarnations and already-applied epochs are rejected; fresh epochs are
// recorded and the contiguous watermark advances (jumping past gaps older
// than stallTimeout, counting the lost epochs).
func (r *Replicator) admitEpoch(u *Update) bool {
	now := r.nowNanos()
	r.wmMu.Lock()
	defer r.wmMu.Unlock()
	os := r.wms[u.Origin]
	if os == nil {
		os = &originState{inc: u.Inc, pending: make(map[uint64]int64)}
		r.wms[u.Origin] = os
	}
	switch {
	case u.Inc < os.inc:
		r.staleInc.Add(1)
		return false
	case u.Inc > os.inc:
		// The origin restarted: its epochs restart dense from 1 under the
		// new incarnation, so the applied window resets with it.
		os.inc = u.Inc
		os.contig = 0
		os.contigPub.Store(0)
		clear(os.pending)
	}
	if u.Epoch <= os.contig {
		r.replays.Add(1)
		return false
	}
	if _, dup := os.pending[u.Epoch]; dup {
		r.replays.Add(1)
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
			break
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
			break
		}
		// The missing epochs are declared lost (the configured epoch-lag
		// bound): count them and jump the watermark to the edge of the gap.
		r.epochGaps.Add(low - os.contig - 1)
		os.contig = low - 1
	}
	os.contigPub.Store(os.contig)
}

// applyDurable merges one durable update into the stores; fromSelf marks a
// local publication (merge + watermark, but no callback echo).
func (r *Replicator) applyDurable(u Update, fromSelf bool) {
	if !r.admitEpoch(&u) {
		return
	}
	if !fromSelf {
		r.applied.Add(1)
		r.recordLag(r.nowNanos() - u.Stamp)
	}

	var fireVerdict bool
	var fireBlock bool
	var fireModel bool
	r.mu.Lock()
	switch u.Kind {
	case KindVerdict:
		rec := VerdictRecord{
			Verdict: detect.Verdict{Class: u.Class, Confidence: u.Confidence, Reason: u.Reason, AtRequest: u.AtRequest},
			Origin:  u.Origin, Inc: u.Inc, Epoch: u.Epoch, Stamp: u.Stamp,
		}
		cur, ok := r.verdicts[u.Key]
		if !ok || verdictLess(cur, rec) {
			r.verdicts[u.Key] = rec
			fireVerdict = true
			if len(r.verdicts) > maxEntries {
				r.evictVerdictsLocked()
			}
		}
	case KindBlock:
		cur, ok := r.blocks[u.Key]
		if !ok || u.Until > cur.until {
			r.blocks[u.Key] = blockEntry{until: u.Until, origin: u.Origin, inc: u.Inc, epoch: u.Epoch, stamp: u.Stamp}
			fireBlock = true
		}
	case KindModel:
		if u.ModelSeq > r.model.seq || (u.ModelSeq == r.model.seq && u.Stamp > r.model.stamp) {
			r.model = modelEntry{m: u.Model, seq: u.ModelSeq, origin: u.Origin, stamp: u.Stamp}
			fireModel = true
		}
		// Keep the local sequence counter ahead of everything seen, so a
		// trainer failover publishes with a winning sequence.
		for {
			cur := r.modelSeq.Load()
			if u.ModelSeq <= cur || r.modelSeq.CompareAndSwap(cur, u.ModelSeq) {
				break
			}
		}
	}
	r.mu.Unlock()

	if fromSelf {
		return
	}
	cb := r.cfg.Callbacks
	if fireVerdict && cb.OnVerdict != nil {
		cb.OnVerdict(u.Key, detect.Verdict{Class: u.Class, Confidence: u.Confidence, Reason: u.Reason, AtRequest: u.AtRequest}, u.Origin)
	}
	if fireBlock && cb.OnBlock != nil {
		cb.OnBlock(u.Key, time.Unix(0, u.Until))
	}
	if fireModel && cb.OnModel != nil {
		cb.OnModel(u.Model, u.ModelSeq)
	}
}

// verdictLess orders two verdict records deterministically (the merge's
// total order): higher confidence wins, then later stamp, then origin name,
// then incarnation and epoch. Any delivery order of the same update set
// therefore converges on the same winner.
func verdictLess(a, b VerdictRecord) bool {
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

// evictVerdictsLocked drops the oldest-stamped ~10% of verdict entries when
// the store overflows maxEntries.
func (r *Replicator) evictVerdictsLocked() {
	drop := len(r.verdicts) / 10
	if drop < 1 {
		drop = 1
	}
	type aged struct {
		key   session.Key
		stamp int64
	}
	oldest := make([]aged, 0, len(r.verdicts))
	for k, v := range r.verdicts {
		oldest = append(oldest, aged{k, v.Stamp})
	}
	sort.Slice(oldest, func(i, j int) bool { return oldest[i].stamp < oldest[j].stamp })
	for i := 0; i < drop && i < len(oldest); i++ {
		delete(r.verdicts, oldest[i].key)
	}
}

// recordLag stores one apply-lag sample (origin stamp → local apply).
func (r *Replicator) recordLag(nanos int64) {
	if nanos < 0 {
		nanos = 0
	}
	r.lagMu.Lock()
	r.lagSamples[r.lagNext] = nanos
	r.lagNext = (r.lagNext + 1) % lagRing
	if r.lagN < lagRing {
		r.lagN++
	}
	r.lagMu.Unlock()
}

// LagQuantile returns the q-quantile (0..1) of recent apply-lag samples as a
// duration, and false when no samples exist.
func (r *Replicator) LagQuantile(q float64) (time.Duration, bool) {
	r.lagMu.Lock()
	n := r.lagN
	buf := make([]int64, n)
	copy(buf, r.lagSamples[:n])
	r.lagMu.Unlock()
	if n == 0 {
		return 0, false
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	i := int(q * float64(n-1))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return time.Duration(buf[i]), true
}

// ---- state reads ----

// VerdictFor returns the merged fleet verdict for key, if any.
func (r *Replicator) VerdictFor(key session.Key) (VerdictRecord, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.verdicts[key]
	return rec, ok
}

// Model returns the merged fleet model and its sequence.
func (r *Replicator) Model() (*adaboost.Model, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.model.m, r.model.seq
}

// VerdictCount and BlockCount return merged store sizes.
func (r *Replicator) VerdictCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.verdicts)
}

// BlockCount returns the number of merged block entries.
func (r *Replicator) BlockCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.blocks)
}

// Digest returns a delivery-order-independent hash of the merged
// verdict/block state, for convergence assertions across nodes.
func (r *Replicator) Digest() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var h uint64
	for k, v := range r.verdicts {
		h ^= entryHash(k, uint64(v.Verdict.Class)<<32|uint64(v.Verdict.Confidence), uint64(v.Stamp))
	}
	for k, b := range r.blocks {
		h ^= entryHash(k, 0x626c6f636b, uint64(b.until))
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

// Watermark returns the applied contiguous epoch for origin (lock-free on
// the hot field; the map lookup takes the watermark mutex briefly).
func (r *Replicator) Watermark(origin string) uint64 {
	r.wmMu.Lock()
	os := r.wms[origin]
	r.wmMu.Unlock()
	if os == nil {
		return 0
	}
	return os.contigPub.Load()
}

// PublishedEpoch returns this origin's own durable epoch counter.
func (r *Replicator) PublishedEpoch() uint64 { return r.epoch.Load() }

// AckedEpoch returns the highest own-origin epoch successfully sent to the
// named peer — the origin-side bound on what a peer can be missing.
func (r *Replicator) AckedEpoch(peerName string) uint64 {
	p, ok := r.peers[peerName]
	if !ok {
		return 0
	}
	return p.acked.Load()
}

// MinAckedEpoch returns the smallest AckedEpoch across peers: every own
// update at or below it survives this node's crash on at least every peer.
func (r *Replicator) MinAckedEpoch() uint64 {
	min := uint64(0)
	first := true
	for _, p := range r.peers {
		a := p.acked.Load()
		if first || a < min {
			min, first = a, false
		}
	}
	return min
}

// Counters returns the replicator's cumulative counters.
type Counters struct {
	Published   uint64
	Applied     uint64
	Replays     uint64
	StaleInc    uint64
	EpochGaps   uint64
	ObsApplied  uint64
	ObsForward  uint64
	AEResends   uint64
	HandoffsIn  uint64
	HandoffsOut uint64
	Dropped     uint64
}

// Stats returns a snapshot of the counters.
func (r *Replicator) Stats() Counters {
	c := Counters{
		Published:   r.published.Load(),
		Applied:     r.applied.Load(),
		Replays:     r.replays.Load(),
		StaleInc:    r.staleInc.Load(),
		EpochGaps:   r.epochGaps.Load(),
		ObsApplied:  r.obsApplied.Load(),
		ObsForward:  r.obsForward.Load(),
		AEResends:   r.aeResends.Load(),
		HandoffsIn:  r.handoffsIn.Load(),
		HandoffsOut: r.handoffsOut.Load(),
	}
	for _, p := range r.peers {
		c.Dropped += uint64(p.dropped.Load())
	}
	return c
}

// ---- sender / anti-entropy / heartbeat goroutines ----

// sender drains one peer's outbox: it batches up to batchSize updates per
// frame and retries failed sends with doubling backoff + jitter, for at most
// SendPatience per batch. Durable updates dropped after patience runs out
// are repaired by anti-entropy once the peer heals.
func (r *Replicator) sender(p *peer, done chan struct{}) {
	defer r.wg.Done()
	batch := make([]Update, 0, batchSize)
	for {
		var first Update
		select {
		case <-done:
			return
		case first = <-p.out:
		}
		p.inflight.Store(1)
		batch = append(batch[:0], first)
	drain:
		for len(batch) < batchSize {
			select {
			case u := <-p.out:
				batch = append(batch, u)
			default:
				break drain
			}
		}
		r.sendBatch(p, batch, done)
		p.inflight.Store(0)
	}
}

// sendBatch delivers one batch with retry; on success it advances the
// peer's acked own-epoch high-water mark.
func (r *Replicator) sendBatch(p *peer, batch []Update, done chan struct{}) {
	msg := &Message{From: r.cfg.Name, Inc: r.inc.Load(), Kind: MsgBatch, Updates: batch}
	backoff := r.cfg.RetryBackoff
	deadline := time.Now().Add(r.cfg.SendPatience)
	for {
		err := r.cfg.Transport.Send(p.name, msg)
		if err == nil {
			p.sent.Add(int64(len(batch)))
			p.lastSendOK.Store(r.nowNanos())
			var maxOwn uint64
			for i := range batch {
				if batch[i].Origin == r.cfg.Name && batch[i].Epoch > maxOwn {
					maxOwn = batch[i].Epoch
				}
			}
			if maxOwn > 0 {
				p.advanceAcked(maxOwn)
			}
			return
		}
		if time.Now().After(deadline) {
			p.dropped.Add(int64(len(batch)))
			return
		}
		select {
		case <-done:
			return
		case <-time.After(backoff + r.jitterDur(backoff/2)):
		}
		backoff *= 2
		if backoff > r.cfg.MaxBackoff {
			backoff = r.cfg.MaxBackoff
		}
	}
}

// jitterDur draws a uniform jitter in [0, max).
func (r *Replicator) jitterDur(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	r.jitterMu.Lock()
	d := time.Duration(r.jitter.Uint64n(uint64(max)))
	r.jitterMu.Unlock()
	return d
}

// peerLoop paces one peer's heartbeats and anti-entropy scans.
func (r *Replicator) peerLoop(p *peer, done chan struct{}) {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.HeartbeatInterval + r.jitterDur(r.cfg.HeartbeatInterval/4))
	defer ticker.Stop()
	aeEvery := int(r.cfg.AntiEntropyInterval / r.cfg.HeartbeatInterval)
	if aeEvery < 1 {
		aeEvery = 1
	}
	n := 0
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			r.sendHeartbeat(p)
			n++
			if n%aeEvery == 0 {
				r.antiEntropy(p)
			}
		}
	}
}

// sendHeartbeat advertises this node's applied watermarks (including its own
// published epochs) to one peer. Failures are ignored — the peer's phi
// detector reads silence as suspicion.
func (r *Replicator) sendHeartbeat(p *peer) {
	r.wmMu.Lock()
	wms := make([]Watermark, 0, len(r.wms))
	for origin, os := range r.wms {
		wms = append(wms, Watermark{Origin: origin, Inc: os.inc, Epoch: os.contig})
	}
	r.wmMu.Unlock()
	msg := &Message{From: r.cfg.Name, Inc: r.inc.Load(), Kind: MsgHeartbeat, Watermarks: wms}
	_ = r.cfg.Transport.Send(p.name, msg)
}

// antiEntropy re-sends store entries the peer's advertised watermarks show
// it to be missing: silent drops, partition backlogs and post-restart
// backfills all heal through this one path. Entries are enqueued through the
// normal outbox (bounded, non-blocking).
func (r *Replicator) antiEntropy(p *peer) {
	if p.lastRecv.Load() == 0 {
		return // never heard from the peer; don't flood a dead outbox
	}
	adv := p.watermarks()
	missing := func(origin string, inc uint32, epoch uint64) bool {
		w, ok := adv[origin]
		if !ok {
			return true
		}
		if w.Inc != inc {
			return w.Inc < inc
		}
		return w.Epoch < epoch
	}
	budget := antiEntropyBatch
	r.mu.RLock()
	resend := make([]Update, 0, 32)
	for k, v := range r.verdicts {
		if budget <= 0 {
			break
		}
		if missing(v.Origin, v.Inc, v.Epoch) {
			resend = append(resend, Update{
				Origin: v.Origin, Inc: v.Inc, Epoch: v.Epoch, Stamp: v.Stamp, Kind: KindVerdict,
				Key: k, Class: v.Verdict.Class, Confidence: v.Verdict.Confidence,
				Reason: v.Verdict.Reason, AtRequest: v.Verdict.AtRequest,
			})
			budget--
		}
	}
	for k, b := range r.blocks {
		if budget <= 0 {
			break
		}
		if missing(b.origin, b.inc, b.epoch) {
			resend = append(resend, Update{
				Origin: b.origin, Inc: b.inc, Epoch: b.epoch, Stamp: b.stamp, Kind: KindBlock,
				Key: k, Until: b.until,
			})
			budget--
		}
	}
	if r.model.m != nil && budget > 0 {
		// The model entry is keyed by sequence, not epoch; re-offer it
		// whenever the peer might be behind (the merge discards stale ones).
		resend = append(resend, Update{
			Origin: r.model.origin, Inc: r.inc.Load(), Epoch: 0, Stamp: r.model.stamp, Kind: KindModel,
			Model: r.model.m, ModelSeq: r.model.seq,
		})
	}
	r.mu.RUnlock()
	for i := range resend {
		if resend[i].Kind == KindModel {
			// Models ride the fire-and-forget path on re-offer (their merge
			// is sequence-idempotent without epochs).
			r.resendModel(p, resend[i])
			continue
		}
		if p.enqueue(resend[i]) {
			r.aeResends.Add(1)
		}
	}
}

// resendModel re-offers the merged model to a peer through its outbox.
func (r *Replicator) resendModel(p *peer, u Update) {
	if p.enqueue(u) {
		r.aeResends.Add(1)
	}
}
