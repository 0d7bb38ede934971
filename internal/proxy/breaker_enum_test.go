package proxy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"botdetect/internal/clock"
)

// breakerOp is one input to the breaker: a call, or time passing.
type breakerOp int

const (
	opAllow breakerOp = iota
	opSuccess
	opFailure
	opAbandoned
	opHalfCooldown // Advance(cooldown/2)
	opCooldown     // Advance(cooldown)
	breakerOps     // how many there are
)

func (o breakerOp) String() string {
	return [...]string{"opAllow", "opSuccess", "opFailure", "opAbandoned", "opHalfCooldown", "opCooldown"}[o]
}

const enumCooldown = 10 * time.Second

// breakerRun is a breaker on a virtual clock plus what the invariants need
// remembered from before the step being checked.
type breakerRun struct {
	br       *Breaker
	vc       *clock.Virtual
	state    BreakerState
	stats    BreakerStats
	openedAt time.Time
}

func newBreakerRun(threshold int) *breakerRun {
	vc := clock.NewVirtual(time.Time{})
	return &breakerRun{br: NewBreaker(threshold, enumCooldown, vc), vc: vc}
}

// fork returns an independent copy, so the enumeration can try every next
// input from one state without replaying the way there. Breaker snapshots are
// immutable, so the copy shares the current one.
func (r *breakerRun) fork() *breakerRun {
	c := *r
	c.vc = clock.NewVirtual(r.vc.Now())
	c.br = NewBreaker(r.br.threshold, r.br.cooldown, c.vc)
	c.br.cur.Store(r.br.cur.Load())
	c.br.opens.Store(r.stats.Opens)
	c.br.probes.Store(r.stats.Probes)
	c.br.recoveries.Store(r.stats.Recoveries)
	c.br.shortCircuits.Store(r.stats.ShortCircuits)
	return &c
}

// step applies one input and checks the written invariants: counters only
// grow; every entry into Open (a failed probe's re-open included) admits at
// most one probe, so Opens is one ahead of Probes exactly while the breaker
// is open and level with it otherwise; Open is left only through HalfOpen,
// and a recovery is counted exactly when HalfOpen closes; Allow admits
// everything while closed, nothing for the whole cooldown and nothing while a
// probe is out, and the first Allow at or after the cooldown is the probe. It
// returns what broke, or "".
func (r *breakerRun) step(op breakerOp) string {
	fail := func(format string, args ...any) string {
		return fmt.Sprintf("%v on a breaker that was %v: ", op, r.state) + fmt.Sprintf(format, args...)
	}
	allowed := false
	switch op {
	case opAllow:
		allowed = r.br.Allow()
	case opSuccess:
		r.br.Success()
	case opFailure:
		r.br.Failure()
	case opAbandoned:
		r.br.abandoned()
	case opHalfCooldown:
		r.vc.Advance(enumCooldown / 2)
	case opCooldown:
		r.vc.Advance(enumCooldown)
	}
	state, stats := r.state, r.stats
	next, now := r.br.State(), r.br.Stats()

	if state == BreakerOpen && next == BreakerClosed {
		return fail("Open -> Closed without a half-open probe in between")
	}
	if now.Opens < stats.Opens || now.Probes < stats.Probes ||
		now.Recoveries < stats.Recoveries || now.ShortCircuits < stats.ShortCircuits {
		return fail("a counter went backwards, %+v -> %+v", stats, now)
	}
	if d := now.Opens - now.Probes; (d != 0 && d != 1) || (d == 1) != (next == BreakerOpen) {
		return fail("%v with opens %d, probes %d", next, now.Opens, now.Probes)
	}
	if recovered := state == BreakerHalfOpen && next == BreakerClosed; recovered != (now.Recoveries > stats.Recoveries) {
		return fail("now %v with recoveries %d -> %d", next, stats.Recoveries, now.Recoveries)
	}
	if op == opAllow {
		elapsed := r.vc.Now().Sub(r.openedAt)
		want := state == BreakerClosed || (state == BreakerOpen && elapsed >= enumCooldown)
		if allowed != want {
			return fail("Allow = %v %v into the open period", allowed, elapsed)
		}
		if probe := state == BreakerOpen && allowed; probe != (now.Probes > stats.Probes) || (probe && next != BreakerHalfOpen) {
			return fail("probe admitted = %v, but now %v with probes %d -> %d", probe, next, stats.Probes, now.Probes)
		}
	}
	if now.Opens > stats.Opens {
		r.openedAt = r.vc.Now()
	}
	r.state, r.stats = next, now
	return ""
}

// breakerCase prints a sequence the way breakerRegressions spells one.
func breakerCase(threshold int, seq []breakerOp) string {
	names := make([]string, len(seq))
	for i, op := range seq {
		names[i] = op.String()
	}
	return fmt.Sprintf("{%d, []breakerOp{%s}},", threshold, strings.Join(names, ", "))
}

// breakerRegressions are sequences the enumeration once failed on, pasted
// from its output.
var breakerRegressions = []struct {
	threshold int
	seq       []breakerOp
}{
	// A straggler's success closed an open breaker with no cooldown and no probe.
	{1, []breakerOp{opFailure, opSuccess}},
	{2, []breakerOp{opFailure, opFailure, opSuccess}},
}

func TestBreakerRegressions(t *testing.T) {
	for _, c := range breakerRegressions {
		run := newBreakerRun(c.threshold)
		for i, op := range c.seq {
			if why := run.step(op); why != "" {
				t.Errorf("%s\n%s", breakerCase(c.threshold, c.seq[:i+1]), why)
				break
			}
		}
	}
}

// TestBreakerEnumerated is the exhaustive small-scope check of the breaker:
// every sequence of its six inputs to depth 8, at thresholds 1 to 3, each
// step checked by breakerRun.step. The first failure prints itself as a line
// for breakerRegressions. Under the race detector — which has nothing to find
// in one goroutine and makes every forked breaker's atomics 30 times dearer —
// the depth is 6.
func TestBreakerEnumerated(t *testing.T) {
	depth := 8
	if raceEnabled {
		depth = 6
	}
	seq := make([]breakerOp, 0, depth)
	var walk func(threshold int, from *breakerRun)
	walk = func(threshold int, from *breakerRun) {
		if len(seq) == depth {
			return
		}
		for op := breakerOp(0); op < breakerOps; op++ {
			run := from.fork()
			seq = append(seq, op)
			if why := run.step(op); why != "" {
				t.Fatalf("%s\n%s", breakerCase(threshold, seq), why)
			}
			walk(threshold, run)
			seq = seq[:len(seq)-1]
		}
	}
	for threshold := 1; threshold <= 3; threshold++ {
		walk(threshold, newBreakerRun(threshold))
	}
}

// TestBreakerSuccessWhileOpenIsDropped: a success arriving at an open breaker
// is a straggler — a retry or an exchange admitted before the trip — and
// must not close it; the way back is the cooldown, one probe, and that
// probe's success.
func TestBreakerSuccessWhileOpenIsDropped(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	br := NewBreaker(2, 10*time.Second, vc)
	br.Failure()
	br.Failure()
	br.Success()
	if br.State() != BreakerOpen || br.Allow() {
		t.Fatalf("a straggler's success moved an open breaker: state %v", br.State())
	}
	vc.Advance(10 * time.Second)
	if !br.Allow() || br.Allow() {
		t.Fatal("want exactly one probe admitted after the cooldown")
	}
	br.Success()
	if st := br.Stats(); br.State() != BreakerClosed || st.Probes != 1 || st.Recoveries != 1 {
		t.Fatalf("after the probe's success: state %v, stats %+v, want closed with one probe and one recovery", br.State(), st)
	}
}
