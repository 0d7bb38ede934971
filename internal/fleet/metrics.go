// Prometheus export for the replication plane, following the repo's
// read-side convention: the replicator keeps plain counters under its mutex
// and the registry pulls them at scrape time — the publish path pays nothing
// for being observable.
package fleet

import (
	"strconv"

	"botdetect/internal/telemetry"
)

// RegisterMetrics exports the replicator's health into reg under the given
// node label:
//
//	botdetect_fleet_peer_up{node,peer}                    1 if the peer passes phi suspicion
//	botdetect_fleet_outbox_depth{node,peer}               updates queued to the peer
//	botdetect_fleet_outbox_dropped_total{node,peer}       updates dropped (full outbox / dead peer)
//	botdetect_fleet_updates_sent_total{node,peer}         updates delivered to the peer
//	botdetect_fleet_peer_applied_epoch{node,peer}         the peer's advertised applied watermark for this node
//	botdetect_fleet_acked_epoch{node,peer}                highest own epoch successfully sent to the peer
//	botdetect_fleet_published_epoch{node}                 this node's durable epoch counter
//	botdetect_fleet_isolated{node}                        1 while quorum is lost
//	botdetect_fleet_store_entries{node,kind}              merged verdict and block entries held
//	botdetect_fleet_updates_applied_total{node}           durable updates applied from peers
//	botdetect_fleet_updates_replayed_total{node}          duplicate/stale deliveries rejected
//	botdetect_fleet_epoch_gaps_total{node}                epochs declared lost past stallTimeout (5 s)
//	botdetect_fleet_anti_entropy_resends_total{node}      store entries re-sent by anti-entropy
//	botdetect_fleet_entries_expired_total{node}           verdict and block entries dropped at their expiry
//	botdetect_fleet_observations_forwarded_total{node}    requests forwarded to partition owners
//	botdetect_fleet_replication_lag_seconds{node,quantile} apply-lag percentiles
func (r *Replicator) RegisterMetrics(reg *telemetry.Registry, node string) {
	if reg == nil {
		return
	}
	nodeLabel := telemetry.Label("node", node)
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}

	for _, g := range []struct {
		name, help string
		value      func(PeerStats) float64
	}{
		{"botdetect_fleet_peer_up", "1 if the peer currently passes phi heartbeat suspicion, else 0.",
			func(ps PeerStats) float64 { return flag(ps.Up) }},
		{"botdetect_fleet_outbox_depth", "Replication updates currently queued per peer outbox.",
			func(ps PeerStats) float64 { return float64(ps.OutboxLen) }},
		{"botdetect_fleet_outbox_dropped_total", "Replication updates dropped on a full outbox or an unresponsive peer.",
			func(ps PeerStats) float64 { return float64(ps.Dropped) }},
		{"botdetect_fleet_updates_sent_total", "Replication updates delivered per peer.",
			func(ps PeerStats) float64 { return float64(ps.Sent) }},
		{"botdetect_fleet_peer_applied_epoch", "The peer's advertised applied-epoch watermark for this node's updates.",
			func(ps PeerStats) float64 { return float64(ps.Watermark) }},
		{"botdetect_fleet_acked_epoch", "Highest own durable epoch successfully sent to the peer.",
			func(ps PeerStats) float64 { return float64(ps.AckedEpoch) }},
	} {
		reg.GaugeFunc(g.name, g.help, func(emit func(labels string, v float64)) {
			for _, ps := range r.PeerSnapshot() {
				emit(telemetry.Join(nodeLabel, telemetry.Label("peer", ps.Name)), g.value(ps))
			}
		})
	}

	reg.CounterFunc("botdetect_fleet_published_epoch", nodeLabel,
		"This node's durable update epoch counter.",
		func() float64 { return float64(r.PublishedEpoch()) })
	reg.GaugeFunc("botdetect_fleet_isolated",
		"1 while this node has lost quorum and serves from its isolated engine.",
		func(emit func(labels string, v float64)) { emit(nodeLabel, flag(r.Isolated())) })
	reg.GaugeFunc("botdetect_fleet_store_entries",
		"Merged verdict and block store entries, lapsed ones included until Step drops them.",
		func(emit func(labels string, v float64)) {
			emit(telemetry.Join(nodeLabel, telemetry.Label("kind", "verdict")), float64(r.VerdictCount()))
			emit(telemetry.Join(nodeLabel, telemetry.Label("kind", "block")), float64(r.BlockCount()))
		})
	for _, c := range []struct {
		name, help string
		value      func(Counters) uint64
	}{
		{"botdetect_fleet_updates_applied_total", "Durable replication updates applied fresh from peers.",
			func(c Counters) uint64 { return c.Applied }},
		{"botdetect_fleet_updates_replayed_total", "Duplicate or stale replication deliveries rejected by the watermark.",
			func(c Counters) uint64 { return c.Replays }},
		{"botdetect_fleet_epoch_gaps_total", "Epochs declared lost after the 5 s stall timeout (the epoch-lag bound).",
			func(c Counters) uint64 { return c.EpochGaps }},
		{"botdetect_fleet_anti_entropy_resends_total", "Store entries re-sent because a peer's watermarks showed them missing.",
			func(c Counters) uint64 { return c.AEResends }},
		{"botdetect_fleet_entries_expired_total", "Verdict and block entries dropped from the stores at their expiry.",
			func(c Counters) uint64 { return c.Expired }},
		{"botdetect_fleet_observations_forwarded_total", "Request observations forwarded to partition owners.",
			func(c Counters) uint64 { return c.ObsForward }},
	} {
		reg.CounterFunc(c.name, nodeLabel, c.help, func() float64 { return float64(c.value(r.Stats())) })
	}

	reg.GaugeFunc("botdetect_fleet_replication_lag_seconds",
		"Apply lag from origin publish to local apply, recent-window quantiles.",
		func(emit func(labels string, v float64)) {
			for _, q := range [...]float64{0.5, 0.99} {
				d, ok := r.LagQuantile(q)
				if !ok {
					continue
				}
				label := telemetry.Label("quantile", strconv.FormatFloat(q, 'g', -1, 64))
				emit(telemetry.Join(nodeLabel, label), d.Seconds())
			}
		})
}
