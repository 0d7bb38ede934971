package core

import (
	"strconv"

	"botdetect/internal/session"
	"botdetect/internal/shard"
	"botdetect/internal/telemetry"
)

// Telemetry returns the engine's serve-path instruments; their Registry is
// what /__bd/metrics renders.
func (e *Engine) Telemetry() *telemetry.ServeMetrics { return e.tel }

// registerTelemetry adds the engine's scrape-time collectors to the
// telemetry registry: the existing atomic stat mirrors (engine, keystore),
// live-session and keystore gauges per shard, and the learning loop's state.
// Everything here reads state the engine already maintains — the serve path
// pays nothing for these families — and the collectors are labelled with the
// engine's node name so fleets sharing one registry stay tellable apart.
func (e *Engine) registerTelemetry() {
	reg := e.tel.Registry()
	nl := ""
	if e.cfg.TelemetryNode != "" {
		nl = telemetry.Label("node", e.cfg.TelemetryNode)
	}
	counter := func(name, labels, help string, v func() int64) {
		reg.CounterFunc(name, telemetry.Join(labels, nl), help, func() float64 { return float64(v()) })
	}

	counter("botdetect_pages_instrumented_total", "", "HTML pages rewritten with instrumentation.",
		e.stats.pagesInstrumented.Load)
	counter("botdetect_pages_lite_total", "", "Pages prepared for a definite human with the hidden trap link alone.",
		e.stats.pagesLite.Load)
	counter("botdetect_instrumentation_bytes_total", telemetry.Label("direction", "original"),
		"Page bytes before rewriting vs instrumentation bytes added.", e.stats.originalBytes.Load)
	counter("botdetect_instrumentation_bytes_total", telemetry.Label("direction", "added"),
		"Page bytes before rewriting vs instrumentation bytes added.", e.stats.addedBytes.Load)

	const beacons = "botdetect_beacon_requests_total"
	beaconHelp := "Intercepted instrumentation requests by kind."
	// A key beacon's kind is its validation verdict: the keystore's counters
	// (botdetect_keystore_validations_total below reads them too).
	counter(beacons, telemetry.Label("kind", "mouse"), beaconHelp, func() int64 { return e.keys.Stats().HumanHits })
	counter(beacons, telemetry.Label("kind", "decoy"), beaconHelp, func() int64 { return e.keys.Stats().DecoyHits })
	counter(beacons, telemetry.Label("kind", "replay"), beaconHelp, func() int64 { return e.keys.Stats().ReplayHits })
	counter(beacons, telemetry.Label("kind", "unknown"), beaconHelp, func() int64 { return e.keys.Stats().UnknownHits })
	counter(beacons, telemetry.Label("kind", "exec"), beaconHelp, e.stats.execBeacons.Load)
	counter(beacons, telemetry.Label("kind", "css"), beaconHelp, e.stats.cssBeacons.Load)
	counter(beacons, telemetry.Label("kind", "script"), beaconHelp, e.stats.scriptServes.Load)
	counter(beacons, telemetry.Label("kind", "hidden"), beaconHelp, e.stats.hiddenHits.Load)
	counter(beacons, telemetry.Label("kind", "ua_report"), beaconHelp, e.stats.uaReports.Load)
	counter("botdetect_script_expired_total", "", "Script downloads answered with the expired fallback: "+
		"the presenting client holds no live key batch under the token.", e.stats.scriptExpired.Load)
	counter("botdetect_ua_mismatches_total", "", "JavaScript-reported agent strings contradicting the User-Agent header.",
		e.stats.uaMismatches.Load)

	counter("botdetect_sessions_ended_total", "", "Sessions ended (idle expiry, eviction, flush).",
		e.sessions.Ended)
	const evicted = "botdetect_sessions_evicted_total"
	evictHelp := "Sessions ended by reason: idle expiry, capacity eviction of an " +
		"anonymous (signal-free) session, capacity eviction of an evidence-bearing " +
		"session (tracker undersized), or flush."
	for _, r := range []session.EvictReason{
		session.EvictIdle, session.EvictCapacityAnonymous,
		session.EvictCapacityEvidence, session.EvictFlush,
	} {
		r := r
		counter(evicted, telemetry.Label("reason", r.String()), evictHelp,
			func() int64 { return e.sessions.EvictedByReason(r) })
	}
	const shed = "botdetect_load_shed_total"
	shedHelp := "Below-full admission decisions: pages served uninstrumented " +
		"pass-through while saturated, or with degraded instrumentation under pressure."
	counter(shed, telemetry.Label("mode", "passthrough"), shedHelp, e.stats.shedPassThrough.Load)
	counter(shed, telemetry.Label("mode", "degraded"), shedHelp, e.stats.shedDegraded.Load)
	counter("botdetect_keystore_keys_issued_total", "", "Page views issued (a key batch owed; keys are drawn on script download).",
		func() int64 { return e.keys.Stats().Issued })
	counter("botdetect_keystore_batches_drawn_total", "", "Page views whose keys were drawn because their script was requested.",
		func() int64 { return e.keys.Stats().Drawn })
	const validations = "botdetect_keystore_validations_total"
	valHelp := "Beacon key validations by verdict."
	counter(validations, telemetry.Label("verdict", "human"), valHelp, func() int64 { return e.keys.Stats().HumanHits })
	counter(validations, telemetry.Label("verdict", "decoy"), valHelp, func() int64 { return e.keys.Stats().DecoyHits })
	counter(validations, telemetry.Label("verdict", "replayed"), valHelp, func() int64 { return e.keys.Stats().ReplayHits })
	counter(validations, telemetry.Label("verdict", "unknown"), valHelp, func() int64 { return e.keys.Stats().UnknownHits })
	counter("botdetect_keystore_expired_keys_total", "", "Drawn keys dropped by TTL expiry.",
		func() int64 { return e.keys.Stats().ExpiredDropped })
	counter("botdetect_keystore_evicted_clients_total", "", "Client key tables evicted by the capacity bound.",
		func() int64 { return e.keys.Stats().EvictedClients })

	reg.GaugeFunc("botdetect_sessions_active", "Sessions currently tracked.",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.sessions.Active())) })
	reg.GaugeFunc("botdetect_keystore_clients", "Client IPs with outstanding page views.",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.keys.Clients())) })
	reg.GaugeFunc("botdetect_model_epoch", "Epoch of the published learned model (0 = rules only).",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.learned.Epoch())) })
	reg.GaugeFunc("botdetect_outcomes_buffered", "Labelled outcomes buffered for the online trainer.",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.OutcomeCount())) })
	reg.GaugeFunc("botdetect_script_variants", "Precompiled script variants per rotation epoch.",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.pool.Variants())) })
	reg.GaugeFunc("botdetect_load_state", "Engine load state: 0 normal, 1 pressured, 2 saturated.",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.LoadState())) })
	reg.GaugeFunc("botdetect_load_occupancy", "Capacity fraction in use at the last load-state recomputation.",
		func(emit func(labels string, v float64)) { emit(nl, e.LoadOccupancy()) })
	reg.GaugeFunc("botdetect_memory_estimate_bytes", "Estimated live bytes in the session tracker, keystore and interner.",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.MemoryEstimate())) })
	// The estimate's decomposition, read once per scrape so the three series
	// sum to the estimate. botdetect_memory_estimate_bytes keeps its own
	// family: the benchmark reads it by that name.
	components := [3]string{}
	for i, c := range []string{"sessions", "keystore", "intern"} {
		components[i] = telemetry.Join(telemetry.Label("component", c), nl)
	}
	reg.GaugeFunc("botdetect_memory_component_bytes", "Estimated live bytes by component; the components sum to botdetect_memory_estimate_bytes.",
		func(emit func(labels string, v float64)) {
			sessions, keys, interned := e.MemoryBreakdown()
			for i, v := range [3]int64{sessions, keys, interned} {
				emit(components[i], float64(v))
			}
		})
	reg.GaugeFunc("botdetect_memory_bytes_per_session", "Estimated live engine bytes per tracked session.",
		func(emit func(labels string, v float64)) {
			if n := e.sessions.Active(); n > 0 {
				emit(nl, float64(e.MemoryEstimate())/float64(n))
			} else {
				emit(nl, 0)
			}
		})
	// The tables' records sit in blocks mapped outside the Go heap: the
	// runtime's heap statistics leave them out, and this family holds them.
	arenaStates := [2]string{telemetry.Join(telemetry.Label("state", "mapped"), nl), telemetry.Join(telemetry.Label("state", "touched"), nl)}
	reg.GaugeFunc("botdetect_table_arena_bytes", "Bytes of session and keystore record blocks the process maps outside the Go heap (mapped), and the part of them ever written (touched).",
		func(emit func(labels string, v float64)) {
			mapped, touched := shard.ArenaBytes()
			emit(arenaStates[0], float64(mapped))
			emit(arenaStates[1], float64(touched))
		})
	reg.GaugeFunc("botdetect_intern_entries", "Live canonical strings in the shared interner.",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.interner.Stats().Entries)) })
	reg.GaugeFunc("botdetect_intern_bytes", "Estimated interner footprint in bytes (strings plus table overhead).",
		func(emit func(labels string, v float64)) { emit(nl, float64(e.interner.MemoryEstimate())) })
	counter("botdetect_intern_lookups_total", telemetry.Label("result", "hit"),
		"Intern calls by result: hit (string already canonical) vs miss (new entry).",
		func() int64 { return e.interner.Stats().Hits })
	counter("botdetect_intern_lookups_total", telemetry.Label("result", "miss"),
		"Intern calls by result: hit (string already canonical) vs miss (new entry).",
		func() int64 { return e.interner.Stats().Misses })
	reg.GaugeFunc("botdetect_intern_hit_rate", "Fraction of Intern calls served from the canonical table.",
		func(emit func(labels string, v float64)) { emit(nl, e.interner.Stats().HitRate()) })
	if e.cfg.MemoryBudget > 0 {
		reg.GaugeFunc("botdetect_memory_budget_bytes", "Configured memory budget (Config.MemoryBudget).",
			func(emit func(labels string, v float64)) { emit(nl, float64(e.cfg.MemoryBudget)) })
	}

	// Per-shard occupancy gauges: the label strings are rendered once here so
	// a scrape only walks the shards. Session shards and keystore shards
	// share one label slice (the counts are always equal by construction).
	shardLabels := make([]string, e.sessions.ShardCount())
	for i := range shardLabels {
		shardLabels[i] = telemetry.Join(telemetry.Label("shard", strconv.Itoa(i)), nl)
	}
	perShard := func(name, help string, fill func(i int) (n, max int), caps bool) {
		reg.GaugeFunc(name, help, func(emit func(labels string, v float64)) {
			for i, l := range shardLabels {
				if n, max := fill(i); caps {
					emit(l, float64(max))
				} else {
					emit(l, float64(n))
				}
			}
		})
	}
	perShard("botdetect_shard_sessions", "Tracked sessions per tracker shard.", e.sessions.ShardFill, false)
	perShard("botdetect_shard_keystore_clients", "Client key tables per keystore shard.", e.keys.ShardFill, false)
	perShard("botdetect_shard_session_cap", "Per-shard session cap after occupancy rebalancing.", e.sessions.ShardFill, true)
}
