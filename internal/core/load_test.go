package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"botdetect/internal/session"
)

// TestNextLoadStateHysteresis tables the pure transition function. The
// thresholds mirror the engine defaults (pressured 0.75, saturated 0.90,
// hysteresis 0.10): upward transitions fire exactly at the threshold,
// downward ones only once occupancy falls a full hysteresis band below it.
func TestNextLoadStateHysteresis(t *testing.T) {
	const (
		pres = 0.75
		sat  = 0.90
		hyst = 0.10
	)
	cases := []struct {
		prev LoadState
		occ  float64
		want LoadState
	}{
		{LoadNormal, 0.00, LoadNormal},
		{LoadNormal, 0.74, LoadNormal},
		{LoadNormal, 0.75, LoadPressured},
		{LoadNormal, 0.89, LoadPressured},
		{LoadNormal, 0.90, LoadSaturated}, // may skip a rung on a spike
		{LoadNormal, 1.20, LoadSaturated},

		{LoadPressured, 0.90, LoadSaturated},
		{LoadPressured, 0.89, LoadPressured},
		{LoadPressured, 0.74, LoadPressured}, // below pres but above pres-hyst: hold
		{LoadPressured, 0.65, LoadPressured},
		{LoadPressured, 0.64, LoadNormal},

		{LoadSaturated, 0.95, LoadSaturated},
		{LoadSaturated, 0.85, LoadSaturated}, // below sat but above sat-hyst: hold
		{LoadSaturated, 0.80, LoadSaturated},
		{LoadSaturated, 0.79, LoadPressured},
		{LoadSaturated, 0.65, LoadPressured},
		{LoadSaturated, 0.64, LoadNormal}, // can drop two rungs when the flood ends
	}
	for _, c := range cases {
		if got := nextLoadState(c.prev, c.occ, pres, sat, hyst); got != c.want {
			t.Errorf("nextLoadState(%v, %.2f) = %v, want %v", c.prev, c.occ, got, c.want)
		}
	}
}

// loadStepViolation checks one transition of the load ladder, at the engine's
// thresholds, against its written invariants and names the one it breaks.
func loadStepViolation(prev LoadState, occ float64, next LoadState) string {
	raisedAt := [...]float64{LoadPressured: pressuredAt, LoadSaturated: saturatedAt}
	if next > prev && occ < raisedAt[next] {
		return fmt.Sprintf("rose to %v under its threshold", next)
	}
	// A state is left only a full hysteresis band under the threshold that
	// raised it — every state on the way down, so Saturated reaches Normal in
	// one step only when occupancy is under both bands.
	for s := prev; s > next; s-- {
		if occ >= raisedAt[s]-loadHysteresis {
			return fmt.Sprintf("left %v inside its hysteresis band", s)
		}
	}
	for s := LoadSaturated; s > next; s-- {
		if occ >= raisedAt[s] {
			return fmt.Sprintf("stayed under %v at or above its threshold", s)
		}
	}
	if next > LoadNormal && next <= prev && occ < raisedAt[next]-loadHysteresis {
		return fmt.Sprintf("held %v a full band under its threshold", next)
	}
	if again := nextLoadState(next, occ, pressuredAt, saturatedAt, loadHysteresis); again != next {
		return fmt.Sprintf("constant occupancy moved on to %v: not a fixed point after one step", again)
	}
	return ""
}

// TestNextLoadStateEnumerated is the exhaustive small-scope check of the
// ladder: every occupancy sequence to depth 6 over a grid that brackets both
// thresholds and both hysteresis edges, from every starting state, with
// loadStepViolation applied to each step. A failure prints the sequence as a
// slice literal to paste into TestNextLoadStateHysteresis's neighbourhood.
func TestNextLoadStateEnumerated(t *testing.T) {
	const depth = 6
	grid := []float64{0}
	for _, edge := range []float64{pressuredAt - loadHysteresis, pressuredAt, saturatedAt - loadHysteresis, saturatedAt} {
		grid = append(grid, math.Nextafter(edge, 0), edge)
	}
	grid = append(grid, 1.2)

	seq := make([]float64, 0, depth)
	var walk func(start, cur LoadState)
	walk = func(start, cur LoadState) {
		if len(seq) == depth {
			return
		}
		for _, occ := range grid {
			next := nextLoadState(cur, occ, pressuredAt, saturatedAt, loadHysteresis)
			seq = append(seq, occ)
			if why := loadStepViolation(cur, occ, next); why != "" {
				lits := make([]string, len(seq))
				for i, o := range seq {
					lits[i] = fmt.Sprintf("%v", o)
				}
				t.Fatalf("%v -> %v at occupancy %v: %s\nfrom %v: []float64{%s}",
					cur, next, occ, why, start, strings.Join(lits, ", "))
			}
			walk(start, next)
			seq = seq[:len(seq)-1]
		}
	}
	for _, start := range []LoadState{LoadNormal, LoadPressured, LoadSaturated} {
		walk(start, start)
	}
}

// TestLoadLadderAndRecovery drives a real engine deterministically through
// Normal -> Pressured -> Saturated by filling the session table, checks the
// admission decision at every rung, then recovers by idle-expiring sessions
// on a virtual clock and watches the ladder step back down through the
// hysteresis bands.
func TestLoadLadderAndRecovery(t *testing.T) {
	d, vc := newTestEngine(Config{MaxSessions: 20, Shards: 1})
	ip := func(i int) string { return "10.50.0." + string(rune('0'+i/10)) + string(rune('0'+i%10)) }
	fillTo := func(n int) {
		for d.SessionCount() < n {
			vc.Advance(time.Minute)
			observe(d, ip(d.SessionCount()+1), "UA", "GET", "/a.html", 200, "", vc.Now())
		}
	}

	fillTo(14) // occupancy 0.70
	if st := d.RecomputeLoadState(); st != LoadNormal {
		t.Fatalf("state at 0.70 = %v, want normal", st)
	}
	if a := d.AdmitPage("203.0.113.1", "NewUA"); a != AdmitFull {
		t.Fatalf("admission at normal = %v, want full", a)
	}

	fillTo(15) // 0.75: pressured
	if st := d.RecomputeLoadState(); st != LoadPressured {
		t.Fatalf("state at 0.75 = %v, want pressured", st)
	}
	if a := d.AdmitPage(ip(3), "UA"); a != AdmitFull {
		t.Fatalf("tracked session under pressure = %v, want full", a)
	}
	if a := d.AdmitPage("203.0.113.2", "NewUA"); a != AdmitDegraded {
		t.Fatalf("new client under pressure = %v, want degraded", a)
	}

	fillTo(18) // 0.90: saturated
	if st := d.RecomputeLoadState(); st != LoadSaturated {
		t.Fatalf("state at 0.90 = %v, want saturated", st)
	}
	// Plant evidence on one tracked session: it must keep full service.
	key := session.Key{IP: ip(5), UserAgent: "UA"}
	if !d.sessions.Mark(key, session.SignalMouse) {
		t.Fatal("Mark failed on tracked session")
	}
	if a := d.AdmitPage(key.IP, key.UserAgent); a != AdmitFull {
		t.Fatalf("evidence-bearing session at saturation = %v, want full", a)
	}
	if a := d.AdmitPage(ip(7), "UA"); a != AdmitDegraded {
		t.Fatalf("tracked anonymous session at saturation = %v, want degraded", a)
	}
	if a := d.AdmitPage("203.0.113.3", "NewUA"); a != AdmitPassThrough {
		t.Fatalf("new client at saturation = %v, want passthrough", a)
	}
	stats := d.Stats()
	if stats.ShedPassThrough == 0 || stats.ShedDegraded == 0 {
		t.Fatalf("shed counters = passthrough %d degraded %d, want both > 0",
			stats.ShedPassThrough, stats.ShedDegraded)
	}

	// Recovery. Sessions were observed a minute apart; idle-expire them a
	// few at a time and watch the hysteresis bands. Session i last acted at
	// roughly t0 + i minutes, so advancing the clock to t0 + idle + i
	// minutes expires the first i sessions. The evidence mark touched
	// session 5, so it expires one rung later than its observe time alone
	// would suggest; the counts below account for that.
	idle := d.Config().SessionIdleTimeout
	t0 := vc.Now().Add(-time.Duration(18) * time.Minute)

	expireTo := func(n int) {
		deadline := t0.Add(idle + 19*time.Minute)
		for d.SessionCount() > n && vc.Now().Before(deadline) {
			vc.Advance(30 * time.Second)
			d.SweepStep(vc.Now())
		}
		if got := d.SessionCount(); got != n {
			t.Fatalf("SessionCount after expiry = %d, want %d", got, n)
		}
	}

	expireTo(17) // 0.85: inside the saturated hold band
	if st := d.RecomputeLoadState(); st != LoadSaturated {
		t.Fatalf("state at 0.85 = %v, want saturated (hysteresis hold)", st)
	}
	expireTo(15) // 0.75: below sat-hyst, above pres-hyst
	if st := d.RecomputeLoadState(); st != LoadPressured {
		t.Fatalf("state at 0.75 on the way down = %v, want pressured", st)
	}
	expireTo(12) // 0.60: below pres-hyst
	if st := d.RecomputeLoadState(); st != LoadNormal {
		t.Fatalf("state at 0.60 = %v, want normal", st)
	}
	if a := d.AdmitPage("203.0.113.4", "NewUA"); a != AdmitFull {
		t.Fatalf("admission after recovery = %v, want full", a)
	}
}

// TestForcedLoadStateDrill: the operator override pins the state regardless
// of occupancy and releases cleanly.
func TestForcedLoadStateDrill(t *testing.T) {
	d, _ := newTestEngine(Config{MaxSessions: 1000})
	if st := d.RecomputeLoadState(); st != LoadNormal {
		t.Fatalf("empty engine state = %v", st)
	}
	d.ForceLoadState(LoadSaturated)
	if st, forced := d.LoadForced(); !forced || st != LoadSaturated {
		t.Fatalf("LoadForced = %v,%v", st, forced)
	}
	if d.LoadState() != LoadSaturated {
		t.Fatal("forced state not visible via LoadState")
	}
	if a := d.AdmitPage("203.0.113.9", "UA"); a != AdmitPassThrough {
		t.Fatalf("admission under forced saturation = %v, want passthrough", a)
	}
	d.ClearForcedLoadState()
	if _, forced := d.LoadForced(); forced {
		t.Fatal("drill still forced after clear")
	}
	if d.LoadState() != LoadNormal {
		t.Fatalf("state after clear = %v, want normal", d.LoadState())
	}
}

// TestAdmitPageZeroAllocSteadyState gates the serve-path admission check at
// zero allocations — in every load state, for tracked and untracked clients
// alike — so the overload ladder never adds GC pressure to the path it
// exists to protect. (The run count crosses the amortised recompute mask,
// so the periodic RecomputeLoadState is covered too.)
func TestAdmitPageZeroAllocSteadyState(t *testing.T) {
	d, vc := newTestEngine(Config{MaxSessions: 64, Shards: 1})
	observe(d, "7.7.7.7", "UA", "GET", "/a.html", 200, "", vc.Now())
	d.RecomputeLoadState()

	if a := testing.AllocsPerRun(600, func() { d.AdmitPage("7.7.7.7", "UA") }); a != 0 {
		t.Fatalf("AdmitPage allocs at normal load = %v, want 0", a)
	}
	d.ForceLoadState(LoadPressured)
	if a := testing.AllocsPerRun(600, func() { d.AdmitPage("203.0.113.9", "UA") }); a != 0 {
		t.Fatalf("AdmitPage allocs for new client under pressure = %v, want 0", a)
	}
	d.ForceLoadState(LoadSaturated)
	if a := testing.AllocsPerRun(600, func() { d.AdmitPage("203.0.113.9", "UA") }); a != 0 {
		t.Fatalf("AdmitPage allocs for pass-through at saturation = %v, want 0", a)
	}
	if a := testing.AllocsPerRun(600, func() { d.AdmitPage("7.7.7.7", "UA") }); a != 0 {
		t.Fatalf("AdmitPage allocs for tracked client at saturation = %v, want 0", a)
	}
	d.ClearForcedLoadState()
}
