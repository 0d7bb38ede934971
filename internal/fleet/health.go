// Peer state: the bounded outbox feeding one peer's sender goroutine, and
// the phi-style accrual failure detector over heartbeat inter-arrivals.
package fleet

import (
	"sync"
	"sync/atomic"
)

// peer is this replicator's view of one remote node.
type peer struct {
	name string

	out      chan Update
	dropped  atomic.Int64 // updates dropped on full outbox or exhausted patience
	sent     atomic.Int64 // updates delivered
	acked    atomic.Uint64
	inflight atomic.Int32

	lastSendOK atomic.Int64 // unix nanos of the last successful send

	// phi suspicion inputs: last receive time and an EWMA of the receive
	// inter-arrival, both unix nanos, both written only from Receive.
	lastRecv atomic.Int64
	ewma     atomic.Int64

	wmMu sync.Mutex
	wms  map[string]Watermark // the peer's advertised applied watermarks
}

func newPeer(name string, outbox int) *peer {
	return &peer{
		name: name,
		out:  make(chan Update, outbox),
		wms:  make(map[string]Watermark),
	}
}

// enqueue offers one update to the outbox without ever blocking; a full
// outbox drops the update (counted) — anti-entropy repairs durable state
// later, fire-and-forget updates are simply lost.
func (p *peer) enqueue(u Update) bool {
	select {
	case p.out <- u:
		return true
	default:
		p.dropped.Add(1)
		return false
	}
}

// touch records one received message for the suspicion EWMA.
func (p *peer) touch(now int64) {
	prev := p.lastRecv.Swap(now)
	if prev == 0 || now <= prev {
		return
	}
	gap := now - prev
	old := p.ewma.Load()
	if old == 0 {
		p.ewma.Store(gap)
		return
	}
	// EWMA with alpha = 1/8; a lossy race here only perturbs the estimate.
	p.ewma.Store(old + (gap-old)/8)
}

// upAgainst reports whether the peer looks alive: it has been heard from,
// and the silence since then is below phi times the mean inter-arrival
// (floored at the heartbeat interval, so a freshly started fleet is not all
// "down" before the first EWMA settles).
func (p *peer) upAgainst(now int64, heartbeat int64, phi float64) bool {
	last := p.lastRecv.Load()
	if last == 0 {
		return false
	}
	mean := p.ewma.Load()
	if mean < heartbeat {
		mean = heartbeat
	}
	return float64(now-last) < phi*float64(mean)
}

// setWatermarks replaces the peer's advertised watermark vector.
func (p *peer) setWatermarks(wms []Watermark) {
	p.wmMu.Lock()
	clear(p.wms)
	for _, w := range wms {
		p.wms[w.Origin] = w
	}
	p.wmMu.Unlock()
}

// watermarks copies the peer's advertised watermark vector.
func (p *peer) watermarks() map[string]Watermark {
	p.wmMu.Lock()
	out := make(map[string]Watermark, len(p.wms))
	for k, v := range p.wms {
		out[k] = v
	}
	p.wmMu.Unlock()
	return out
}

// reset clears transient peer state (crash simulation).
func (p *peer) reset() {
	for {
		select {
		case <-p.out:
		default:
			p.dropped.Store(0)
			p.sent.Store(0)
			p.acked.Store(0)
			p.lastSendOK.Store(0)
			p.lastRecv.Store(0)
			p.ewma.Store(0)
			p.wmMu.Lock()
			clear(p.wms)
			p.wmMu.Unlock()
			return
		}
	}
}

// advanceAcked lifts the acked own-epoch high-water mark monotonically.
func (p *peer) advanceAcked(epoch uint64) {
	for {
		cur := p.acked.Load()
		if epoch <= cur || p.acked.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// ---- fleet-level health reads on the Replicator ----

// PeerUp reports whether the named peer currently looks alive.
func (r *Replicator) PeerUp(name string) bool {
	p, ok := r.peers[name]
	if !ok {
		return false
	}
	return p.upAgainst(r.nowNanos(), int64(r.cfg.HeartbeatInterval), phiThreshold)
}

// UpPeers returns how many peers currently look alive.
func (r *Replicator) UpPeers() int {
	now := r.nowNanos()
	hb := int64(r.cfg.HeartbeatInterval)
	n := 0
	for _, p := range r.peers {
		if p.upAgainst(now, hb, phiThreshold) {
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
	fleet := len(r.peers) + 1
	if fleet <= 1 {
		return false
	}
	return r.UpPeers()+1 <= fleet/2
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
	now := r.nowNanos()
	hb := int64(r.cfg.HeartbeatInterval)
	out := make([]PeerStats, 0, len(r.peerNames))
	for _, name := range r.peerNames {
		p := r.peers[name]
		ps := PeerStats{
			Name:       name,
			Up:         p.upAgainst(now, hb, phiThreshold),
			OutboxLen:  len(p.out),
			Dropped:    p.dropped.Load(),
			Sent:       p.sent.Load(),
			AckedEpoch: p.acked.Load(),
		}
		p.wmMu.Lock()
		if w, ok := p.wms[r.cfg.Name]; ok && w.Inc == r.inc.Load() {
			ps.Watermark = w.Epoch
		}
		p.wmMu.Unlock()
		out = append(out, ps)
	}
	return out
}
