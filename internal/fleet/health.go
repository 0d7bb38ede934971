// Peer state: the bounded outbox Step flushes to one peer, the retry
// arithmetic of the batch in flight, and the phi-style accrual failure
// detector over heartbeat inter-arrivals. Every field is guarded by the
// owning Replicator's mutex.
package fleet

// peer is this replicator's view of one remote node.
type peer struct {
	name string
	inc  uint32 // the highest incarnation heard from it

	out     []Update // outbox, at most outboxCapacity
	dropped int64    // updates dropped on full outbox or exhausted patience
	sent    int64    // updates delivered
	acked   uint64   // highest own epoch delivered to incarnation inc

	// The batch cut from the outbox and not yet delivered or given up on:
	// when it was cut, when its next attempt is due, the current (doubling)
	// backoff, and whether a Step is sending it right now.
	batch       []Update
	batchSince  int64
	nextAttempt int64
	backoff     int64
	sending     bool

	// Heartbeat and anti-entropy pacing: the peer's beat period (drawn with
	// jitter at Start) and when the next beat and scan are due.
	beatEvery int64
	nextBeat  int64
	nextScan  int64

	// phi suspicion inputs: last receive time and an EWMA of the receive
	// inter-arrival, both unix nanos, both written only from Receive.
	lastRecv int64
	ewma     int64

	wms map[string]Watermark // the peer's advertised applied watermarks
}

// newPeer returns the view of a peer not heard from yet: every replicator
// starts at incarnation 1, so a frame from any later one voids the acks.
func newPeer(name string) peer {
	return peer{name: name, inc: 1, wms: make(map[string]Watermark)}
}

// enqueue offers one update to the outbox without ever blocking; a full
// outbox drops the update (counted) — anti-entropy repairs durable state
// later, fire-and-forget updates are simply lost.
func (p *peer) enqueue(u Update) bool {
	if len(p.out) >= outboxCapacity {
		p.dropped++
		return false
	}
	p.out = append(p.out, u)
	return true
}

// touch records one received message for the suspicion EWMA.
func (p *peer) touch(now int64) {
	prev := p.lastRecv
	p.lastRecv = now
	if prev == 0 || now <= prev {
		return
	}
	gap := now - prev
	if p.ewma == 0 {
		p.ewma = gap
		return
	}
	p.ewma += (gap - p.ewma) / 8 // EWMA with alpha = 1/8
}

// up reports whether the peer looks alive: it has been heard from, and the
// silence since then is below phiThreshold times the mean inter-arrival
// (floored at the heartbeat interval, so a freshly started fleet is not all
// "down" before the first EWMA settles).
func (p *peer) up(now, heartbeat int64) bool {
	if p.lastRecv == 0 {
		return false
	}
	return float64(now-p.lastRecv) < phiThreshold*float64(max(p.ewma, heartbeat))
}

// ---- fleet-level health reads on the Replicator ----

// PeerUp reports whether the named peer currently looks alive.
func (r *Replicator) PeerUp(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[name]
	return ok && p.up(r.nowNanos(), int64(r.cfg.HeartbeatInterval))
}

// UpPeers returns how many peers currently look alive.
func (r *Replicator) UpPeers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now, n := r.nowNanos(), 0
	for _, p := range r.peers {
		if p.up(now, int64(r.cfg.HeartbeatInterval)) {
			n++
		}
	}
	return n
}

// Isolated reports whether this node has lost quorum: itself plus its live
// peers no longer form a majority of the configured fleet. An isolated node
// keeps serving from its local engine alone (graceful degradation) — it
// never blocks waiting for the fleet to come back.
func (r *Replicator) Isolated() bool {
	return r.UpPeers()+1 <= (len(r.peers)+1)/2 // a fleet of one is never isolated: 1 <= 0
}

// PeerStats is one peer's health snapshot for metrics/status surfaces.
type PeerStats struct {
	Name       string
	Up         bool
	OutboxLen  int
	Dropped    int64
	Sent       int64
	AckedEpoch uint64
	// Watermark is the peer's advertised applied epoch for OUR origin — how
	// far the peer has actually applied what we published.
	Watermark uint64
}

// PeerSnapshot returns per-peer health for metrics and the admin surface.
func (r *Replicator) PeerSnapshot() []PeerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.nowNanos()
	out := make([]PeerStats, 0, len(r.peerNames))
	for _, name := range r.peerNames {
		p := r.peers[name]
		ps := PeerStats{
			Name:       name,
			Up:         p.up(now, int64(r.cfg.HeartbeatInterval)),
			OutboxLen:  len(p.out),
			Dropped:    p.dropped,
			Sent:       p.sent,
			AckedEpoch: p.acked,
		}
		if w, ok := p.wms[r.cfg.Name]; ok && w.Inc == r.inc {
			ps.Watermark = w.Epoch
		}
		out = append(out, ps)
	}
	return out
}
