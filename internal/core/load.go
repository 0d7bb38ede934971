// Overload resilience: the engine's load state, memory budget and the
// admission-control degradation ladder.
//
// The detector only matters under exactly the traffic that threatens to sink
// it — flash crowds and botnet floods — so the engine continuously derives a
// LoadState (Normal → Pressured → Saturated) from tracker/keystore occupancy
// and a live memory estimate, and the serving layers (internal/proxy,
// internal/cdn) ask AdmitPage how much instrumentation a page view should
// get:
//
//	Normal     every page gets full instrumentation.
//	Pressured  sessions already tracked keep full service; brand-new
//	           clients get degraded instrumentation (fewer decoys, shorter
//	           key TTLs) so each anonymous arrival pins less proxy memory.
//	Saturated  tracked sessions with accumulated evidence keep full
//	           service, tracked-but-anonymous sessions get degraded
//	           instrumentation, and brand-new clients are served
//	           uninstrumented pass-through — they are not tracked at all,
//	           so a flood can never wash evidence-bearing sessions out of
//	           the tracker (see session.Tracker's eviction preference for
//	           the second line of the same defence).
//
// State transitions use downward hysteresis so a load hovering at a
// threshold does not flap the ladder, and the whole check is atomics-only:
// the serve path pays zero allocations and no locks for admission.
package core

import (
	"botdetect/internal/intern"
	"botdetect/internal/session"
)

// LoadState is the engine's coarse overload level.
type LoadState int32

const (
	// LoadNormal: capacity headroom everywhere; full service for everyone.
	LoadNormal LoadState = iota
	// LoadPressured: occupancy crossed pressuredAt (75 %); new anonymous
	// sessions get degraded instrumentation.
	LoadPressured
	// LoadSaturated: occupancy crossed saturatedAt (90 %); brand-new clients
	// are served uninstrumented pass-through and are not tracked.
	LoadSaturated
)

// String returns the state's metric/status name.
func (s LoadState) String() string {
	switch s {
	case LoadNormal:
		return "normal"
	case LoadPressured:
		return "pressured"
	case LoadSaturated:
		return "saturated"
	default:
		return "unknown"
	}
}

// Admission is AdmitPage's decision for one page view.
type Admission int32

const (
	// AdmitFull: full instrumentation (all decoys, full key lifetime).
	AdmitFull Admission = iota
	// AdmitDegraded: lighter instrumentation — a quarter of the decoys (at
	// least one), a quarter of the key lifetime (see
	// keystore.Store.IssuePageDegraded).
	AdmitDegraded
	// AdmitPassThrough: serve the origin response untouched and do not
	// create a session. Only ever returned for clients with no tracked
	// session while the engine is saturated.
	AdmitPassThrough
)

// String returns the admission's short name.
func (a Admission) String() string {
	switch a {
	case AdmitFull:
		return "full"
	case AdmitDegraded:
		return "degraded"
	case AdmitPassThrough:
		return "passthrough"
	default:
		return "unknown"
	}
}

// loadForcedAuto marks "no operator override" in Engine.loadForced.
const loadForcedAuto = -1

// Load-ladder thresholds. pressuredAt and saturatedAt are the occupancy
// fractions at which the load state leaves Normal and Pressured;
// loadHysteresis is how far occupancy must fall below a threshold before the
// state steps back down, so a load hovering at a boundary cannot flap the
// degradation ladder.
const (
	pressuredAt    = 0.75
	saturatedAt    = 0.90
	loadHysteresis = 0.10
)

// outcomeMinRequests is the minimum request count a session needs before a
// labelled outcome is recorded for it — attribute vectors from very short
// sessions are mostly noise.
const outcomeMinRequests = 5

// loadRecomputeMask amortises load-state recomputation over serve events:
// every 256th AdmitPage (plus every sweeper tick) re-derives the state from
// the occupancy atomics. Under any traffic that could change the state, 256
// events pass in microseconds.
const loadRecomputeMask = 255

// nextLoadState is the pure transition function: given the previous state
// and the current occupancy fraction it returns the new state. Upward
// transitions fire at the given thresholds; downward transitions
// require occupancy to fall hyst below the threshold that raised the state,
// so a load hovering at a boundary cannot flap the ladder.
func nextLoadState(prev LoadState, occ, pressuredAt, saturatedAt, hyst float64) LoadState {
	switch prev {
	case LoadSaturated:
		if occ >= saturatedAt-hyst {
			return LoadSaturated
		}
		if occ >= pressuredAt-hyst {
			return LoadPressured
		}
		return LoadNormal
	case LoadPressured:
		if occ >= saturatedAt {
			return LoadSaturated
		}
		if occ >= pressuredAt-hyst {
			return LoadPressured
		}
		return LoadNormal
	default:
		if occ >= saturatedAt {
			return LoadSaturated
		}
		if occ >= pressuredAt {
			return LoadPressured
		}
		return LoadNormal
	}
}

// Occupancy returns the fraction (0..1+) of engine capacity currently in
// use: the maximum of session-table occupancy, keystore client occupancy
// and, when Config.MemoryBudget is set, estimated memory over budget. It is
// a pure read over lock-free counters.
func (e *Engine) Occupancy() float64 {
	occ := e.trackingOccupancy()
	if k := e.keys.Occupancy(); k > occ {
		occ = k
	}
	return occ
}

// trackingOccupancy is the occupancy fraction of the resources that grow per
// TRACKED session: the session table and (when budgeted) estimated memory.
// The keystore is deliberately excluded: its client table is a bounded
// rolling window (LRU-evicted at Config-capped size), so "keystore full" is
// its steady state at scale, not an overload signal — a million-session node
// runs for hours with the keystore window saturated. Keystore pressure is
// relieved by degrading new-client issuance (fewer decoys, shorter TTLs),
// never by refusing to track sessions; see RecomputeLoadState.
func (e *Engine) trackingOccupancy() float64 {
	occ := float64(e.sessions.Active()) / float64(e.cfg.MaxSessions)
	if e.cfg.MemoryBudget > 0 {
		if m := float64(e.MemoryEstimate()) / float64(e.cfg.MemoryBudget); m > occ {
			occ = m
		}
	}
	return occ
}

// MemoryEstimate returns the engine's approximate live memory footprint in
// bytes — the session tracker, the keystore, and the tracker's string
// interner, the structures whose size is attacker-controlled. Lock-free and
// allocation-free. The policy ladder (policy.Engine, owned by the serving
// surface, not the engine) is not charged: it holds at most one 72-byte entry
// per session evaluated as a robot, or blocked, within the last hour.
func (e *Engine) MemoryEstimate() int64 {
	return e.sessions.MemoryEstimate() + e.keys.MemoryEstimate() + e.interner.MemoryEstimate()
}

// MemoryBreakdown itemises MemoryEstimate by component, in bytes. Lock-free.
func (e *Engine) MemoryBreakdown() (sessions, keys, interned int64) {
	return e.sessions.MemoryEstimate(), e.keys.MemoryEstimate(), e.interner.MemoryEstimate()
}

// InternStats returns occupancy and hit-rate counters for the string interner
// (raw and normalized user agents).
func (e *Engine) InternStats() intern.Stats {
	return e.interner.Stats()
}

// MemoryBudget returns the configured budget in bytes (0 = unbudgeted).
func (e *Engine) MemoryBudget() int64 { return e.cfg.MemoryBudget }

// RecomputeLoadState re-derives the load state from current occupancy and
// publishes it. It is cheap (a few atomic loads and float compares, zero
// allocations) and is called automatically every loadRecomputeMask+1
// admission checks and from the sweeper; callers needing an immediately
// fresh state (tests, admin drills, benchmarks) may call it directly.
func (e *Engine) RecomputeLoadState() LoadState {
	occ := e.Occupancy()
	e.loadOcc.Store(uint64(occ * 1e6))
	prev := LoadState(e.loadState.Load())
	// The full ladder (up to pass-through shedding) runs off the resources
	// that grow per tracked session; a full keystore window only escalates
	// to Pressured, where degraded issuance shrinks its per-client cost.
	next := nextLoadState(prev, e.trackingOccupancy(), pressuredAt, saturatedAt, loadHysteresis)
	if next == LoadNormal && e.keys.Occupancy() >= pressuredAt {
		next = LoadPressured
	}
	if next != prev {
		e.loadState.Store(int32(next))
	}
	if f := e.loadForced.Load(); f != loadForcedAuto {
		return LoadState(f)
	}
	return next
}

// LoadState returns the current load state: the operator-forced state if a
// drill is active, otherwise the last computed state. Lock-free.
func (e *Engine) LoadState() LoadState {
	if f := e.loadForced.Load(); f != loadForcedAuto {
		return LoadState(f)
	}
	return LoadState(e.loadState.Load())
}

// LoadOccupancy returns the occupancy fraction captured at the last
// recomputation (not recomputed on read). Lock-free.
func (e *Engine) LoadOccupancy() float64 {
	return float64(e.loadOcc.Load()) / 1e6
}

// ForceLoadState pins the load state for operator drills ("what does my site
// look like degraded?") regardless of actual occupancy. Admission decisions
// and telemetry follow the forced state until ClearForcedLoadState.
func (e *Engine) ForceLoadState(s LoadState) {
	if s < LoadNormal || s > LoadSaturated {
		s = LoadNormal
	}
	e.loadForced.Store(int32(s))
}

// ClearForcedLoadState ends an operator drill; the state returns to the
// occupancy-derived value on the next recomputation.
func (e *Engine) ClearForcedLoadState() {
	e.loadForced.Store(loadForcedAuto)
	e.RecomputeLoadState()
}

// LoadForced returns the forced state and whether a drill is active.
func (e *Engine) LoadForced() (LoadState, bool) {
	f := e.loadForced.Load()
	if f == loadForcedAuto {
		return LoadNormal, false
	}
	return LoadState(f), true
}

// AdmitPage decides how much instrumentation a page view for clientIP/
// userAgent should get under the current load state, counting every below-
// full decision (the shed counters are exported as
// botdetect_load_shed_total{mode=...}). The check is allocation-free: an
// atomic state load plus — only under pressure — one tracker Peek. Callers
// must honour AdmitPassThrough by not observing the request into the tracker
// (the proxy and cdn layers do); that is what makes saturation shed load
// instead of churning it.
func (e *Engine) AdmitPage(clientIP, userAgent string) Admission {
	if e.loadEvents.Add(1)&loadRecomputeMask == 0 {
		e.RecomputeLoadState()
	}
	state := e.LoadState()
	if state == LoadNormal {
		return AdmitFull
	}
	snap, tracked := e.sessions.Peek(session.Key{IP: clientIP, UserAgent: userAgent})
	if state == LoadPressured {
		if tracked {
			snap.Release()
			return AdmitFull
		}
		e.stats.shedDegraded.Add(1)
		return AdmitDegraded
	}
	// Saturated: only evidence keeps full service.
	if tracked {
		suspect := snap.Signals.Any()
		snap.Release()
		if suspect {
			return AdmitFull
		}
		e.stats.shedDegraded.Add(1)
		return AdmitDegraded
	}
	e.stats.shedPassThrough.Add(1)
	return AdmitPassThrough
}

// EvictionStats returns the session tracker's cumulative per-reason eviction
// counts (also exported as botdetect_sessions_evicted_total{reason=...}).
func (e *Engine) EvictionStats() session.EvictionStats { return e.sessions.Evictions() }
