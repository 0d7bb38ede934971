// Prometheus export for the replication plane, following the repo's
// read-side convention: the replicator keeps lock-free counters and the
// registry pulls them at scrape time — the publish path pays nothing for
// being observable.
package fleet

import (
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
//	botdetect_fleet_updates_applied_total{node}           durable updates applied from peers
//	botdetect_fleet_updates_replayed_total{node}          duplicate/stale deliveries rejected
//	botdetect_fleet_epoch_gaps_total{node}                epochs declared lost past stallTimeout (5 s)
//	botdetect_fleet_anti_entropy_resends_total{node}      store entries re-sent by anti-entropy
//	botdetect_fleet_observations_forwarded_total{node}    requests forwarded to partition owners
//	botdetect_fleet_replication_lag_seconds{node,quantile} apply-lag percentiles
func (r *Replicator) RegisterMetrics(reg *telemetry.Registry, node string) {
	if reg == nil {
		return
	}
	nodeLabel := telemetry.Label("node", node)

	reg.GaugeFunc("botdetect_fleet_peer_up",
		"1 if the peer currently passes phi heartbeat suspicion, else 0.",
		func(emit func(labels string, v float64)) {
			for _, ps := range r.PeerSnapshot() {
				v := 0.0
				if ps.Up {
					v = 1
				}
				emit(telemetry.Join(nodeLabel, telemetry.Label("peer", ps.Name)), v)
			}
		})
	reg.GaugeFunc("botdetect_fleet_outbox_depth",
		"Replication updates currently queued per peer outbox.",
		func(emit func(labels string, v float64)) {
			for _, ps := range r.PeerSnapshot() {
				emit(telemetry.Join(nodeLabel, telemetry.Label("peer", ps.Name)), float64(ps.OutboxLen))
			}
		})
	reg.GaugeFunc("botdetect_fleet_outbox_dropped_total",
		"Replication updates dropped on a full outbox or an unresponsive peer.",
		func(emit func(labels string, v float64)) {
			for _, ps := range r.PeerSnapshot() {
				emit(telemetry.Join(nodeLabel, telemetry.Label("peer", ps.Name)), float64(ps.Dropped))
			}
		})
	reg.GaugeFunc("botdetect_fleet_updates_sent_total",
		"Replication updates delivered per peer.",
		func(emit func(labels string, v float64)) {
			for _, ps := range r.PeerSnapshot() {
				emit(telemetry.Join(nodeLabel, telemetry.Label("peer", ps.Name)), float64(ps.Sent))
			}
		})
	reg.GaugeFunc("botdetect_fleet_peer_applied_epoch",
		"The peer's advertised applied-epoch watermark for this node's updates.",
		func(emit func(labels string, v float64)) {
			for _, ps := range r.PeerSnapshot() {
				emit(telemetry.Join(nodeLabel, telemetry.Label("peer", ps.Name)), float64(ps.Watermark))
			}
		})
	reg.GaugeFunc("botdetect_fleet_acked_epoch",
		"Highest own durable epoch successfully sent to the peer.",
		func(emit func(labels string, v float64)) {
			for _, ps := range r.PeerSnapshot() {
				emit(telemetry.Join(nodeLabel, telemetry.Label("peer", ps.Name)), float64(ps.AckedEpoch))
			}
		})

	reg.CounterFunc("botdetect_fleet_published_epoch", nodeLabel,
		"This node's durable update epoch counter.",
		func() float64 { return float64(r.PublishedEpoch()) })
	reg.GaugeFunc("botdetect_fleet_isolated",
		"1 while this node has lost quorum and serves from its isolated engine.",
		func(emit func(labels string, v float64)) {
			v := 0.0
			if r.Isolated() {
				v = 1
			}
			emit(nodeLabel, v)
		})
	reg.CounterFunc("botdetect_fleet_updates_applied_total", nodeLabel,
		"Durable replication updates applied fresh from peers.",
		func() float64 { return float64(r.Stats().Applied) })
	reg.CounterFunc("botdetect_fleet_updates_replayed_total", nodeLabel,
		"Duplicate or stale replication deliveries rejected by the watermark.",
		func() float64 { return float64(r.Stats().Replays) })
	reg.CounterFunc("botdetect_fleet_epoch_gaps_total", nodeLabel,
		"Epochs declared lost after the 5 s stall timeout (the epoch-lag bound).",
		func() float64 { return float64(r.Stats().EpochGaps) })
	reg.CounterFunc("botdetect_fleet_anti_entropy_resends_total", nodeLabel,
		"Store entries re-sent because a peer's watermarks showed them missing.",
		func() float64 { return float64(r.Stats().AEResends) })
	reg.CounterFunc("botdetect_fleet_observations_forwarded_total", nodeLabel,
		"Request observations forwarded to partition owners.",
		func() float64 { return float64(r.Stats().ObsForward) })

	reg.GaugeFunc("botdetect_fleet_replication_lag_seconds",
		"Apply lag from origin publish to local apply, recent-window quantiles.",
		func(emit func(labels string, v float64)) {
			for _, q := range [...]float64{0.5, 0.99} {
				d, ok := r.LagQuantile(q)
				if !ok {
					continue
				}
				label := "0.5"
				if q == 0.99 {
					label = "0.99"
				}
				emit(telemetry.Join(nodeLabel, telemetry.Label("quantile", label)), d.Seconds())
			}
		})
}
