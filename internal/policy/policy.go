// Package policy implements the enforcement stage the paper deployed on
// CoDeeN after classification (Section 3.2). Enforcement is driven by
// verdict transitions rather than raw counters: a session starts in the
// monitor stage, is challenged (offered a CAPTCHA) the moment the detection
// chain first classifies it as a robot, and is blocked when it keeps
// behaving like a robot under challenge — definite evidence that ignores the
// challenge, or behaviour past the paper's per-session thresholds (CGI
// request rate, error-response share). A definite human verdict (input
// events, a passed CAPTCHA) de-escalates the session back to monitor.
//
// The ladder's numbers are the one aggressive post-classification policy the
// paper describes deploying and are fixed (the constants below): nothing but
// the clock is settable.
package policy

import (
	"fmt"
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
	// Stage is the session's escalation stage after the decision.
	Stage Stage
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

// stageState is one session's position on the ladder.
type stageState struct {
	stage Stage
	// enteredTotal is the session's request count when it entered the stage,
	// for the challenge-grace computation.
	enteredTotal int64
	// until is the block expiry (block stage only).
	until time.Time
}

// stageSet is an immutable snapshot of the per-session ladder state. The
// enforcement read path loads it through an atomic pointer, so checking a
// request never takes a lock; mutations (stage transitions, block expiry)
// copy the map and publish a new snapshot. Transitions are rare — at most a
// handful per session lifetime — so copy-on-write is the right trade.
type stageSet struct {
	m map[session.Key]stageState
}

// Engine applies the policy. It is safe for concurrent use: Evaluate and
// IsBlocked read an atomically published snapshot of the ladder state, and
// the mutex serialises only the rare copy-on-write transitions.
type Engine struct {
	cfg Config

	stages atomic.Pointer[stageSet]
	mu     sync.Mutex // serialises stage writers
	stats  engineStats

	// onBlock, when set, receives every LOCALLY decided block (never one
	// applied via BlockUntil) so the fleet layer can replicate it without
	// echo loops. Atomic: the block path reads it lock-free.
	onBlock atomic.Pointer[func(session.Key, time.Time)]
}

// NewEngine creates an Engine.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults()}
	e.stages.Store(&stageSet{m: map[session.Key]stageState{}})
	return e
}

// stage returns the session's ladder state from the current snapshot.
func (e *Engine) stage(key session.Key) (stageState, bool) {
	st, ok := e.stages.Load().m[key]
	return st, ok
}

// setStage copies the snapshot with key at the given state.
func (e *Engine) setStage(key session.Key, st stageState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.setStageLocked(key, st)
}

func (e *Engine) setStageLocked(key session.Key, st stageState) {
	cur := e.stages.Load()
	next := make(map[session.Key]stageState, len(cur.m)+1)
	for k, v := range cur.m {
		next[k] = v
	}
	next[key] = st
	e.stages.Store(&stageSet{m: next})
}

// escalateChallenge promotes key from monitor to challenge. The caller's
// stage read was lock-free, so the current state is re-validated under the
// mutex: if a concurrent evaluation already challenged — or blocked — the
// session, that state wins and transitioned is false. Without this check a
// stale monitor read could overwrite a just-published block.
func (e *Engine) escalateChallenge(key session.Key, total int64) (st stageState, transitioned bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.stages.Load().m[key]; ok {
		return cur, false
	}
	st = stageState{stage: StageChallenge, enteredTotal: total}
	e.setStageLocked(key, st)
	return st, true
}

// demote removes key from the ladder (back to monitor).
func (e *Engine) demote(key session.Key) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.stages.Load()
	if _, ok := cur.m[key]; !ok {
		return
	}
	next := make(map[session.Key]stageState, len(cur.m))
	for k, v := range cur.m {
		if k != key {
			next[k] = v
		}
	}
	e.stages.Store(&stageSet{m: next})
}

// expireBlock drops key if its block has lapsed, counting the unblock
// exactly once even when readers race on the expiry. It sweeps every other
// expired block in the same copy, so draining a ladder whose blocks lapse
// together costs one map copy, not one per entry.
func (e *Engine) expireBlock(key session.Key) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.stages.Load()
	now := e.cfg.Clock.Now()
	st, ok := cur.m[key]
	if !ok || st.stage != StageBlock || now.Before(st.until) {
		return
	}
	next := make(map[session.Key]stageState, len(cur.m))
	removed := int64(0)
	for k, v := range cur.m {
		if v.stage == StageBlock && !now.Before(v.until) {
			removed++
			continue
		}
		next[k] = v
	}
	e.stages.Store(&stageSet{m: next})
	e.stats.unblocked.Add(removed)
}

// Evaluate walks the session one step along the escalation ladder given its
// current snapshot and the detection chain's verdict. The common path (no
// transition) is lock-free.
func (e *Engine) Evaluate(snap session.Snapshot, verdict detect.Verdict) Decision {
	e.stats.evaluations.Add(1)
	now := e.cfg.Clock.Now()
	key := snap.Key

	st, ok := e.stage(key)
	if ok && st.stage == StageBlock {
		if now.Before(st.until) {
			e.stats.blocked.Add(1)
			return Decision{Action: Block, Stage: StageBlock, Reason: "session is blocked"}
		}
		e.expireBlock(key)
		st, ok = e.stage(key)
	}

	if verdict.Class != detect.ClassRobot {
		stage := StageMonitor
		if ok {
			stage = st.stage
		}
		if ok && st.stage == StageChallenge && verdict.Class == detect.ClassHuman && verdict.Confidence == detect.Definite {
			// The challenge worked: direct human evidence (CAPTCHA pass,
			// input events) de-escalates the session.
			e.demote(key)
			e.stats.deescalated.Add(1)
			stage = StageMonitor
		}
		e.stats.allowed.Add(1)
		return Decision{Action: Allow, Stage: stage, Reason: "session not classified as robot"}
	}

	// Robot verdict: monitor → challenge on the first one. The transition
	// re-validates under the writer mutex; a concurrent block wins.
	if !ok || st.stage != StageChallenge {
		st2, transitioned := e.escalateChallenge(key, int64(snap.Counts.Total))
		if transitioned {
			e.stats.challenged.Add(1)
			return Decision{Action: Challenge, Stage: StageChallenge, Reason: "robot verdict (" + verdict.Reason + "): challenge issued"}
		}
		if st2.stage == StageBlock {
			e.stats.blocked.Add(1)
			return Decision{Action: Block, Stage: StageBlock, Reason: "session is blocked"}
		}
		st = st2 // already challenged by a concurrent evaluation
	}

	// Challenged and still behaving like a robot: behavioural thresholds and
	// the definite-evidence grace decide between block, throttle and allow.
	dur := snap.Duration().Seconds()
	if dur < 1 {
		dur = 1
	}
	c := snap.Counts

	if rate := float64(c.CGI) / dur; rate > maxCGIRate {
		e.block(key, now)
		return Decision{Action: Block, Stage: StageBlock, Reason: fmt.Sprintf("challenged robot CGI rate %.2f/s exceeds %.2f/s", rate, maxCGIRate)}
	}
	if c.Total >= minRequestsForShare {
		errShare := float64(c.Status4xx+c.Status5xx) / float64(c.Total)
		if errShare > maxErrorShare {
			e.block(key, now)
			return Decision{Action: Block, Stage: StageBlock, Reason: fmt.Sprintf("challenged robot error share %.0f%% exceeds %.0f%%", errShare*100, maxErrorShare*100)}
		}
	}
	if verdict.Confidence == detect.Definite && int64(c.Total)-st.enteredTotal >= challengeGraceRequests {
		e.block(key, now)
		return Decision{Action: Block, Stage: StageBlock, Reason: fmt.Sprintf("definite robot ignored the challenge for %d requests", int64(c.Total)-st.enteredTotal)}
	}
	if rate := float64(c.Total) / dur; rate > maxRequestRate {
		e.stats.throttled.Add(1)
		return Decision{Action: Throttle, Stage: StageChallenge, Reason: fmt.Sprintf("challenged robot request rate %.2f/s exceeds %.2f/s", rate, maxRequestRate)}
	}
	e.stats.allowed.Add(1)
	return Decision{Action: Allow, Stage: StageChallenge, Reason: "challenged robot within behavioural thresholds"}
}

// block promotes key to the block stage and reports the locally decided
// block to the fleet hook.
func (e *Engine) block(key session.Key, now time.Time) {
	until := now.Add(blockDuration)
	e.setStage(key, stageState{stage: StageBlock, until: until})
	e.stats.blocked.Add(1)
	if fn := e.onBlock.Load(); fn != nil {
		(*fn)(key, until)
	}
}

// BlockNow explicitly blocks a session (e.g. after an operator decision).
func (e *Engine) BlockNow(key session.Key) {
	e.block(key, e.cfg.Clock.Now())
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
	if cur, ok := e.stages.Load().m[key]; ok && cur.stage == StageBlock && !cur.until.Before(until) {
		return false
	}
	e.setStageLocked(key, stageState{stage: StageBlock, until: until})
	e.stats.remoteBlocks.Add(1)
	return true
}

// IsBlocked reports whether a session is currently blocked. The check is
// lock-free unless it observes an expired block to clean up.
func (e *Engine) IsBlocked(key session.Key) bool {
	st, ok := e.stage(key)
	if !ok || st.stage != StageBlock {
		return false
	}
	if e.cfg.Clock.Now().Before(st.until) {
		return true
	}
	e.expireBlock(key)
	return false
}

// StageOf returns the session's current escalation stage.
func (e *Engine) StageOf(key session.Key) Stage {
	st, ok := e.stage(key)
	if !ok {
		return StageMonitor
	}
	return st.stage
}

// BlockedCount returns the number of sessions currently in the block stage
// (including blocks whose expiry has passed but has not been observed yet).
func (e *Engine) BlockedCount() int {
	n := 0
	for _, st := range e.stages.Load().m {
		if st.stage == StageBlock {
			n++
		}
	}
	return n
}

// ChallengedCount returns the number of sessions currently in the challenge
// stage.
func (e *Engine) ChallengedCount() int {
	n := 0
	for _, st := range e.stages.Load().m {
		if st.stage == StageChallenge {
			n++
		}
	}
	return n
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
// through a telemetry registry. The collectors read the existing atomic
// stats at scrape time, so enforcement pays nothing for being observable;
// node labels the samples in fleet registries ("" for none).
func (e *Engine) RegisterMetrics(reg *telemetry.Registry, node string) {
	nl := ""
	if node != "" {
		nl = telemetry.Label("node", node)
	}
	const decisions = "botdetect_policy_decisions_total"
	decHelp := "Policy evaluations by resulting action."
	reg.CounterFunc(decisions, telemetry.Join(telemetry.Label("action", "allow"), nl), decHelp,
		func() float64 { return float64(e.stats.allowed.Load()) })
	reg.CounterFunc(decisions, telemetry.Join(telemetry.Label("action", "challenge"), nl), decHelp,
		func() float64 { return float64(e.stats.challenged.Load()) })
	reg.CounterFunc(decisions, telemetry.Join(telemetry.Label("action", "throttle"), nl), decHelp,
		func() float64 { return float64(e.stats.throttled.Load()) })
	reg.CounterFunc(decisions, telemetry.Join(telemetry.Label("action", "block"), nl), decHelp,
		func() float64 { return float64(e.stats.blocked.Load()) })

	const transitions = "botdetect_policy_transitions_total"
	trHelp := "Escalation-ladder transitions by kind."
	reg.CounterFunc(transitions, telemetry.Join(telemetry.Label("event", "unblocked"), nl), trHelp,
		func() float64 { return float64(e.stats.unblocked.Load()) })
	reg.CounterFunc(transitions, telemetry.Join(telemetry.Label("event", "remote_block"), nl), trHelp,
		func() float64 { return float64(e.stats.remoteBlocks.Load()) })
	reg.CounterFunc(transitions, telemetry.Join(telemetry.Label("event", "deescalated"), nl), trHelp,
		func() float64 { return float64(e.stats.deescalated.Load()) })

	chLabels := telemetry.Join(telemetry.Label("stage", "challenge"), nl)
	blLabels := telemetry.Join(telemetry.Label("stage", "block"), nl)
	reg.GaugeFunc("botdetect_policy_sessions", "Sessions on the escalation ladder by stage.",
		func(emit func(labels string, v float64)) {
			emit(chLabels, float64(e.ChallengedCount()))
			emit(blLabels, float64(e.BlockedCount()))
		})
}
