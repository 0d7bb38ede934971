// Package policy implements the enforcement stage the paper deployed on
// CoDeeN after classification (Section 3.2). Enforcement is driven by
// verdict transitions rather than raw counters: a session starts in the
// monitor stage, is challenged (offered a CAPTCHA) the moment the verdict
// table first classifies it as a robot, and is blocked when it keeps
// behaving like a robot under challenge — definite evidence that ignores the
// challenge, or behaviour past the paper's per-session thresholds (CGI
// request rate, error-response share). A definite human verdict (input
// events, a passed CAPTCHA) de-escalates the session back to monitor.
//
// The ladder's numbers are the one aggressive post-classification policy the
// paper describes deploying and are fixed (the constants below): nothing but
// the clock is settable.
//
// The ladder is one pure function, step, over one table under one mutex, the
// engine's only synchronisation. The table holds an entry for each session off
// the monitor stage, and an entry ends with what it was issued to: a block at
// its expiry, a challenge blockDuration (the paper's one-hour session timeout)
// after the session's last evaluated request, so a key that returns later
// starts again at monitor. A lapsed entry is dropped by its next reader, and
// by a whole-table pass that a write runs at most once per blockDuration/4.
package policy

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/session"
	"botdetect/internal/telemetry"
)

// Action is the policy decision for a request.
type Action int

const (
	// Allow lets the traffic through at the normal service level.
	Allow Action = iota
	// Challenge serves a CAPTCHA interstitial instead of origin content; it
	// is returned exactly once, on the monitor→challenge transition.
	Challenge
	// Throttle lets the traffic through at a reduced rate.
	Throttle
	// Block rejects the traffic.
	Block
)

// String returns the action name.
func (a Action) String() string {
	switch a {
	case Challenge:
		return "challenge"
	case Throttle:
		return "throttle"
	case Block:
		return "block"
	default:
		return "allow"
	}
}

// Stage is a session's position on the escalation ladder.
type Stage int

const (
	// StageMonitor means no robot verdict has been acted on.
	StageMonitor Stage = iota
	// StageChallenge means the session was classified robot and challenged.
	StageChallenge
	// StageBlock means the session is blocked until the block expires.
	StageBlock
)

// String returns the stage name.
func (s Stage) String() string {
	switch s {
	case StageChallenge:
		return "challenge"
	case StageBlock:
		return "block"
	default:
		return "monitor"
	}
}

// Decision explains a policy outcome.
type Decision struct {
	// Action is what the engine decided for this request.
	Action Action
	// Reason explains the dominant rule.
	Reason string
}

// The per-session behaviour limits applied to sessions in the challenge stage
// — robots that keep going instead of proving humanity. They mirror the
// aggressive post-classification limits the paper describes deploying on
// CoDeeN.
const (
	// maxRequestRate is the maximum sustained requests/second for a
	// challenged robot session before throttling.
	maxRequestRate = 2.0
	// maxCGIRate is the maximum CGI requests/second before blocking.
	maxCGIRate = 0.2
	// maxErrorShare is the maximum share of 4xx+5xx responses before
	// blocking (robots probing for vulnerabilities trip this).
	maxErrorShare = 0.3
	// minRequestsForShare is the minimum request count before the error
	// share rule applies (avoids blocking on one early 404).
	minRequestsForShare = 20
	// challengeGraceRequests is how many further requests a session with a
	// definite robot verdict may make after being challenged before the
	// ladder escalates to block regardless of rates — direct evidence plus
	// an ignored challenge is as certain as enforcement gets.
	challengeGraceRequests = 25
	// blockDuration is how long a blocked session stays blocked.
	blockDuration = time.Hour
)

// Config controls the engine.
type Config struct {
	// Clock supplies time; defaults to the wall clock.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// Stats are cumulative counters.
type Stats struct {
	Evaluations  int64
	Allowed      int64
	Challenged   int64
	Throttled    int64
	Blocked      int64
	RemoteBlocks int64
	Unblocked    int64
	DeEscalated  int64
}

// engineStats is the atomic mirror of Stats.
type engineStats struct {
	evaluations  atomic.Int64
	allowed      atomic.Int64
	challenged   atomic.Int64
	throttled    atomic.Int64
	blocked      atomic.Int64
	remoteBlocks atomic.Int64
	unblocked    atomic.Int64
	deescalated  atomic.Int64
}

// stageState is one session's entry on the ladder. The zero value is the
// monitor stage, which the table stores by absence.
type stageState struct {
	stage Stage
	// enteredTotal is the session's request count when it was challenged, for
	// the challenge-grace computation.
	enteredTotal int64
	// until is when the entry ends: a block's expiry, and for a challenge
	// blockDuration past the session's last evaluated request.
	until time.Time
}

// Engine applies the policy. It is safe for concurrent use: mu guards the
// table and everything derived from it, and is never held across onBlock.
type Engine struct {
	cfg   Config
	stats engineStats

	mu sync.Mutex
	// stages holds one entry per session off the monitor stage.
	stages map[session.Key]stageState
	// onLadder counts the table's entries by stage as they enter and leave,
	// so a scrape never walks the table; the monitor slot is unused.
	onLadder [StageBlock + 1]int
	// nextSweep is when a write next drops every lapsed entry.
	nextSweep time.Time

	// onBlock, when set, receives every LOCALLY decided block (never one
	// applied via BlockUntil) so the fleet layer can replicate it without
	// echo loops.
	onBlock atomic.Pointer[func(session.Key, time.Time)]
}

// NewEngine creates an Engine.
func NewEngine(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), stages: map[session.Key]stageState{}}
}

// step is the whole ladder: one session's entry, the request's snapshot and
// verdict and the time in, the entry to store and the decision out. The
// caller has already dropped a lapsed entry.
func step(st stageState, snap *session.Snapshot, verdict detect.Verdict, now time.Time) (stageState, Decision) {
	if st.stage == StageBlock {
		return st, Decision{Action: Block, Reason: "session is blocked"}
	}
	if st.stage == StageChallenge {
		// The entry lives as long as the session it was issued to keeps coming.
		st.until = now.Add(blockDuration)
	}
	if verdict.Class != detect.ClassRobot {
		if st.stage == StageChallenge && verdict.Class == detect.ClassHuman && verdict.Confidence == detect.Definite {
			// The challenge worked: direct human evidence (CAPTCHA pass,
			// input events) de-escalates the session.
			st = stageState{}
		}
		return st, Decision{Action: Allow, Reason: "session not classified as robot"}
	}
	c := snap.Counts
	if st.stage == StageMonitor {
		st = stageState{stage: StageChallenge, enteredTotal: int64(c.Total), until: now.Add(blockDuration)}
		return st, Decision{Action: Challenge, Reason: "robot verdict (" + verdict.Reason() + "): challenge issued"}
	}

	// Challenged and still behaving like a robot: behavioural thresholds and
	// the definite-evidence grace decide between block, throttle and allow.
	dur := snap.LastSeen.Sub(snap.FirstSeen).Seconds()
	if dur < 1 {
		dur = 1
	}
	blocked := stageState{stage: StageBlock, until: now.Add(blockDuration)}
	if rate := float64(c.CGI) / dur; rate > maxCGIRate {
		return blocked, Decision{Action: Block, Reason: fmt.Sprintf("challenged robot CGI rate %.2f/s exceeds %.2f/s", rate, maxCGIRate)}
	}
	if c.Total >= minRequestsForShare {
		if errShare := float64(c.Status4xx+c.Status5xx) / float64(c.Total); errShare > maxErrorShare {
			return blocked, Decision{Action: Block, Reason: fmt.Sprintf("challenged robot error share %.0f%% exceeds %.0f%%", errShare*100, maxErrorShare*100)}
		}
	}
	if since := int64(c.Total) - st.enteredTotal; verdict.Confidence == detect.Definite && since >= challengeGraceRequests {
		return blocked, Decision{Action: Block, Reason: fmt.Sprintf("definite robot ignored the challenge for %d requests", since)}
	}
	if rate := float64(c.Total) / dur; rate > maxRequestRate {
		return st, Decision{Action: Throttle, Reason: fmt.Sprintf("challenged robot request rate %.2f/s exceeds %.2f/s", rate, maxRequestRate)}
	}
	return st, Decision{Action: Allow, Reason: "challenged robot within behavioural thresholds"}
}

// live returns key's entry, dropping it first if it has lapsed. Caller holds mu.
func (e *Engine) live(key session.Key, now time.Time) stageState {
	st, ok := e.stages[key]
	if ok && !now.Before(st.until) {
		e.drop(key, st)
		return stageState{}
	}
	return st
}

// drop removes key's lapsed entry st, counting an ended block. Caller holds mu.
func (e *Engine) drop(key session.Key, st stageState) {
	delete(e.stages, key)
	e.onLadder[st.stage]--
	if st.stage == StageBlock {
		e.stats.unblocked.Add(1)
	}
}

// set replaces key's entry prev with next. It is the table's only writer, so
// it is also where the whole-table pass runs, at most once per blockDuration/4:
// an entry nobody reads again is gone within that of lapsing. Caller holds mu.
func (e *Engine) set(key session.Key, prev, next stageState, now time.Time) {
	e.onLadder[prev.stage]--
	e.onLadder[next.stage]++
	if next.stage == StageMonitor {
		delete(e.stages, key)
	} else {
		if prev.stage == StageMonitor {
			// A new entry: the address may be cut from a request line the
			// table must not pin.
			key.IP = strings.Clone(key.IP)
		}
		e.stages[key] = next
	}
	if now.Before(e.nextSweep) {
		return
	}
	e.nextSweep = now.Add(blockDuration / 4)
	for k, st := range e.stages {
		if !now.Before(st.until) {
			e.drop(k, st)
		}
	}
}

// Evaluate walks the session one step along the escalation ladder given its
// current snapshot and the verdict table's verdict.
func (e *Engine) Evaluate(snap session.Snapshot, verdict detect.Verdict) Decision {
	e.stats.evaluations.Add(1)
	now := e.cfg.Clock.Now()

	e.mu.Lock()
	prev := e.live(snap.Key, now)
	next, d := step(prev, &snap, verdict, now)
	if next != prev {
		e.set(snap.Key, prev, next, now)
	}
	e.mu.Unlock()

	switch d.Action {
	case Challenge:
		e.stats.challenged.Add(1)
	case Throttle:
		e.stats.throttled.Add(1)
	case Block:
		e.stats.blocked.Add(1)
	default:
		e.stats.allowed.Add(1)
	}
	if prev.stage == StageChallenge && next.stage == StageMonitor {
		e.stats.deescalated.Add(1)
	}
	if prev.stage != StageBlock && next.stage == StageBlock {
		e.reportBlock(snap.Key, next.until)
	}
	return d
}

// reportBlock hands a locally decided block to the fleet hook.
func (e *Engine) reportBlock(key session.Key, until time.Time) {
	if fn := e.onBlock.Load(); fn != nil {
		(*fn)(key, until)
	}
}

// BlockNow explicitly blocks a session (e.g. after an operator decision).
func (e *Engine) BlockNow(key session.Key) {
	now := e.cfg.Clock.Now()
	until := now.Add(blockDuration)
	e.mu.Lock()
	e.set(key, e.stages[key], stageState{stage: StageBlock, until: until}, now)
	e.mu.Unlock()
	e.stats.blocked.Add(1)
	e.reportBlock(key, until)
}

// SetOnBlock installs (or clears, with nil) the fleet replication hook: it
// fires on every locally decided block — Evaluate escalations and BlockNow —
// with the block's expiry, and never on blocks applied via BlockUntil, so
// replicated blocks cannot echo back into the mesh.
func (e *Engine) SetOnBlock(fn func(session.Key, time.Time)) {
	if fn == nil {
		e.onBlock.Store(nil)
		return
	}
	e.onBlock.Store(&fn)
}

// BlockUntil merges a replicated block-list entry: key is blocked until the
// given time unless it already carries a block extending at least that far.
// The merge is idempotent and commutative (later expiry wins), so replayed
// or reordered replication deliveries converge. It reports whether the
// ladder changed; applied entries count as remote blocks, not decisions.
func (e *Engine) BlockUntil(key session.Key, until time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.stages[key]
	if cur.stage == StageBlock && !cur.until.Before(until) {
		return false
	}
	e.set(key, cur, stageState{stage: StageBlock, until: until}, e.cfg.Clock.Now())
	e.stats.remoteBlocks.Add(1)
	return true
}

// IsBlocked reports whether a session is currently blocked.
func (e *Engine) IsBlocked(key session.Key) bool {
	return e.StageOf(key) == StageBlock
}

// StageOf returns the session's current escalation stage.
func (e *Engine) StageOf(key session.Key) Stage {
	now := e.cfg.Clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.live(key, now).stage
}

// BlockedCount returns the number of sessions in the block stage (including
// blocks whose expiry has passed but that nothing has read or swept yet).
func (e *Engine) BlockedCount() int { return e.count(StageBlock) }

// ChallengedCount returns the number of sessions in the challenge stage
// (lapsed entries included, as for BlockedCount).
func (e *Engine) ChallengedCount() int { return e.count(StageChallenge) }

func (e *Engine) count(s Stage) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.onLadder[s]
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Evaluations:  e.stats.evaluations.Load(),
		Allowed:      e.stats.allowed.Load(),
		Challenged:   e.stats.challenged.Load(),
		Throttled:    e.stats.throttled.Load(),
		Blocked:      e.stats.blocked.Load(),
		RemoteBlocks: e.stats.remoteBlocks.Load(),
		Unblocked:    e.stats.unblocked.Load(),
		DeEscalated:  e.stats.deescalated.Load(),
	}
}

// RegisterMetrics exposes the engine's decision counters and ladder gauges
// through a telemetry registry. The collectors read the existing stats and
// the table's two per-stage counts at scrape time, so enforcement pays
// nothing for being observable and a scrape never walks the table; node
// labels the samples in fleet registries ("" for none).
func (e *Engine) RegisterMetrics(reg *telemetry.Registry, node string) {
	nl := ""
	if node != "" {
		nl = telemetry.Label("node", node)
	}
	counter := func(name, label, help string, v *atomic.Int64) {
		reg.CounterFunc(name, telemetry.Join(label, nl), help, func() float64 { return float64(v.Load()) })
	}
	const decisions, decHelp = "botdetect_policy_decisions_total", "Policy evaluations by resulting action."
	counter(decisions, telemetry.Label("action", "allow"), decHelp, &e.stats.allowed)
	counter(decisions, telemetry.Label("action", "challenge"), decHelp, &e.stats.challenged)
	counter(decisions, telemetry.Label("action", "throttle"), decHelp, &e.stats.throttled)
	counter(decisions, telemetry.Label("action", "block"), decHelp, &e.stats.blocked)
	const transitions, trHelp = "botdetect_policy_transitions_total", "Escalation-ladder transitions by kind."
	counter(transitions, telemetry.Label("event", "unblocked"), trHelp, &e.stats.unblocked)
	counter(transitions, telemetry.Label("event", "remote_block"), trHelp, &e.stats.remoteBlocks)
	counter(transitions, telemetry.Label("event", "deescalated"), trHelp, &e.stats.deescalated)

	chLabels := telemetry.Join(telemetry.Label("stage", "challenge"), nl)
	blLabels := telemetry.Join(telemetry.Label("stage", "block"), nl)
	reg.GaugeFunc("botdetect_policy_sessions", "Sessions on the escalation ladder by stage.",
		func(emit func(labels string, v float64)) {
			emit(chLabels, float64(e.ChallengedCount()))
			emit(blLabels, float64(e.BlockedCount()))
		})
}
