package policy

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/session"
)

// TestLadderGrowthIsLinear: putting a session on the ladder costs its own
// entry, not a copy of everyone else's, and the table forgets a session once
// it has lapsed. The copy-on-write table allocated 164 GB over this loop and
// still counted all 50,000 sessions a day later.
func TestLadderGrowthIsLinear(t *testing.T) {
	const sessions, budget = 50_000, 64 << 20
	e, vc := newTestEngine(Config{})
	snaps := make([]session.Snapshot, sessions)
	for i := range snaps {
		key := session.Key{IP: fmt.Sprintf("10.%d.%d.%d", i>>16, i>>8&255, i&255), UserAgent: "Bot"}
		snaps[i] = snapshotWith(key, session.Counts{Total: 10, Status2xx: 10}, time.Minute, vc.Now())
	}
	verdict := detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Tentative}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range snaps {
		vc.Advance(time.Millisecond)
		challenge(t, e, snaps[i], verdict)
		if i%1000 == 999 { // fail in milliseconds, not after minutes of copying
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Fatalf("%d MB allocated by the first %d transitions, budget %d MB for all %d",
					got>>20, i+1, budget>>20, sessions)
			}
		}
	}
	if got := e.ChallengedCount(); got != sessions {
		t.Fatalf("ChallengedCount = %d, want %d", got, sessions)
	}

	vc.Advance(blockDuration + time.Second)
	late := snapshotWith(session.Key{IP: "192.0.2.1", UserAgent: "Bot"}, session.Counts{Total: 10}, time.Minute, vc.Now())
	challenge(t, e, late, verdict)
	if got := e.ChallengedCount(); got != 1 {
		t.Fatalf("ChallengedCount = %d an hour after every other session's last request, want 1", got)
	}
}

// TestLadderEntryEndsWithItsSession: a key that comes back after its session
// idled out is a new session — challenged again, its grace counted from its
// own first robot verdict and not from the dead session's request total.
func TestLadderEntryEndsWithItsSession(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "6.6.6.8", UserAgent: "Returner"}
	at := func(total uint32) session.Snapshot {
		return snapshotWith(key, session.Counts{Total: total, Status2xx: total}, time.Hour, vc.Now())
	}
	challenge(t, e, at(57), robotVerdict())

	vc.Advance(blockDuration + time.Second)
	if got := e.StageOf(key); got != StageMonitor {
		t.Fatalf("stage an hour after the session's last request = %v, want monitor", got)
	}
	challenge(t, e, at(12), robotVerdict())
	if d := e.Evaluate(at(36), robotVerdict()); d.Action != Allow {
		t.Fatalf("24 requests after the second challenge = %+v, want allow", d)
	}
	d := e.Evaluate(at(37), robotVerdict())
	if d.Action != Block || !strings.Contains(d.Reason, "ignored the challenge for 25 requests") {
		t.Fatalf("25 requests after the second challenge = %+v", d)
	}
}

// TestEvaluateMonitorZeroAlloc: the request almost every client makes — no
// robot verdict, nothing on the ladder — allocates nothing.
func TestEvaluateMonitorZeroAlloc(t *testing.T) {
	e, vc := newTestEngine(Config{})
	snap := snapshotWith(session.Key{IP: "1.1.1.2", UserAgent: "Firefox"}, session.Counts{Total: 40, Status2xx: 40}, time.Minute, vc.Now())
	verdicts := []detect.Verdict{humanVerdict(), {Class: detect.ClassUndecided, Confidence: detect.Tentative, Rule: detect.RuleBelowThreshold}}
	allocs := testing.AllocsPerRun(1000, func() {
		for _, v := range verdicts {
			if d := e.Evaluate(snap, v); d.Action != Allow || e.StageOf(snap.Key) != StageMonitor {
				t.Fatalf("decision = %+v", d)
			}
		}
	})
	if raceEnabled {
		t.Skip("allocation ceilings are not asserted under -race")
	}
	if allocs != 0 {
		t.Fatalf("monitor-stage Evaluate allocates %.1f times per pair of calls, want 0", allocs)
	}
}

// TestStepOnlyDefiniteHumanDeEscalates covers the verdicts the enumeration's
// four leave out: a human verdict short of definite keeps a challenged
// session where it is.
func TestStepOnlyDefiniteHumanDeEscalates(t *testing.T) {
	now := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)
	snap := snapshotWith(session.Key{IP: "2.2.2.4", UserAgent: "MaybeHuman"}, session.Counts{Total: 30, Status2xx: 30}, 10*time.Minute, now)
	challenged := stageState{stage: StageChallenge, enteredTotal: 10, until: now.Add(time.Minute)}
	for _, conf := range []detect.Confidence{detect.Tentative, detect.Probable} {
		next, d := step(challenged, &snap, detect.Verdict{Class: detect.ClassHuman, Confidence: conf}, now)
		if next.stage != StageChallenge || d.Action != Allow {
			t.Fatalf("%v human verdict on a challenged session: entry %+v, decision %+v", conf, next, d)
		}
	}
}

// The enumeration's inputs: a request under one of four verdicts behaving one
// of four ways, or the clock jumping blockDuration ahead.
var (
	enumVerdicts = [...]detect.Verdict{
		{Class: detect.ClassHuman, Confidence: detect.Definite, Rule: detect.RuleCaptcha},
		{Class: detect.ClassUndecided, Confidence: detect.Tentative, Rule: detect.RuleBelowThreshold},
		{Class: detect.ClassRobot, Confidence: detect.Tentative},
		{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy},
	}
	enumVerdictNames   = [...]string{"human", "undecided", "tentativeRobot", "definiteRobot"}
	enumBehaviourNames = [...]string{"quiet", "cgiBurst", "errorBurst", "fast"}
	enumKey            = session.Key{IP: "198.51.100.7", UserAgent: "Enum"}
)

const (
	ladderJump   = len(enumVerdicts) * len(enumBehaviourNames) // the 17th input
	ladderInputs = ladderJump + 1
	// enumRequests is what one input adds to the session's count: more than
	// challengeGraceRequests, so one step can cross the grace.
	enumRequests = 30
)

func ladderInputName(in int) string {
	if in == ladderJump {
		return "jump"
	}
	return enumVerdictNames[in/len(enumBehaviourNames)] + "/" + enumBehaviourNames[in%len(enumBehaviourNames)]
}

// enumSnapshot is the session after total requests, all of them behaving one
// way: quiet (0.1 requests/s, nothing else), a CGI burst (1 CGI request/s),
// an error burst (half the responses 4xx) or fast (10 requests/s).
func enumSnapshot(total uint32, behaviour int, now time.Time) session.Snapshot {
	c, dur := session.Counts{Total: total, Status2xx: total}, time.Duration(total)*10*time.Second
	switch behaviour {
	case 1:
		c.CGI, dur = total, time.Duration(total)*time.Second
	case 2:
		c.Status4xx, c.Status2xx = total/2, total-total/2
	case 3:
		dur = time.Duration(total) * time.Second / 10
	}
	return session.Snapshot{Key: enumKey, FirstSeen: now.Add(-dur), LastSeen: now, Counts: c}
}

// ladderRun is a live engine on a virtual clock beside the entry that step
// alone says it should hold.
type ladderRun struct {
	e     *Engine
	vc    *clock.Virtual
	st    stageState
	total uint32
	fired []time.Time // onBlock calls during the step being checked
}

func newLadderRun(now time.Time) *ladderRun {
	r := &ladderRun{vc: clock.NewVirtual(now)}
	r.e = NewEngine(Config{Clock: r.vc})
	r.e.SetOnBlock(func(_ session.Key, until time.Time) { r.fired = append(r.fired, until) })
	return r
}

// fork returns an independent copy, so the enumeration can try every next
// input from one state without replaying the way there. The counters start
// again at zero: every check on them is of one call's movement.
func (r *ladderRun) fork() *ladderRun {
	c := newLadderRun(r.vc.Now())
	c.st, c.total = r.st, r.total
	for k, st := range r.e.stages {
		c.e.stages[k] = st
	}
	c.e.onLadder, c.e.nextSweep = r.e.onLadder, r.e.nextSweep
	return c
}

// step applies one input to the engine and to the model and checks the
// written invariants; it returns what broke, or "".
func (r *ladderRun) step(in int) string {
	if in == ladderJump {
		return r.jump()
	}
	r.vc.Advance(time.Minute)
	r.total += enumRequests
	now, verdict := r.vc.Now(), enumVerdicts[in/len(enumBehaviourNames)]
	snap := enumSnapshot(r.total, in%len(enumBehaviourNames), now)

	// The reference for the engine's lapse rule: an entry is gone at its until.
	stored, prev := r.st, r.st
	if !now.Before(prev.until) {
		prev = stageState{}
	}
	next, want := step(prev, &snap, verdict, now)
	before := r.e.Stats()
	r.fired = r.fired[:0]
	got := r.e.Evaluate(snap, verdict)
	after := r.e.Stats()
	r.st = next

	fail := func(format string, args ...any) string {
		return fmt.Sprintf("%s from %v: ", ladderInputName(in), stored.stage) + fmt.Sprintf(format, args...)
	}
	if got != want {
		return fail("Evaluate decided %+v, step %+v", got, want)
	}
	robot := verdict.Class == detect.ClassRobot
	definiteHuman := verdict.Class == detect.ClassHuman && verdict.Confidence == detect.Definite
	switch prev.stage {
	case StageMonitor:
		if got.Action == Block || next.stage == StageBlock {
			return fail("blocked without a challenge")
		}
		if climbed := next.stage == StageChallenge; climbed != robot || climbed != (got.Action == Challenge) {
			return fail("robot verdict %v, now %v, action %v: want the challenge exactly on the climb", robot, next.stage, got.Action)
		}
	case StageChallenge:
		if got.Action == Challenge {
			return fail("challenged a second time in one climb")
		}
		if (next.stage == StageMonitor) != definiteHuman {
			return fail("now %v under %v: only a definite human verdict de-escalates", next.stage, verdict)
		}
		if !robot && got.Action != Allow {
			return fail("%v without a robot verdict", got.Action)
		}
	case StageBlock:
		if got.Action != Block || next != prev {
			return fail("a live block decided %v and became %+v", got.Action, next)
		}
	}
	if live := r.e.StageOf(snap.Key); live != next.stage {
		return fail("engine's stage %v, step's %v", live, next.stage)
	}
	if next.stage == StageChallenge || (next.stage == StageBlock && next != prev) {
		if end := now.Add(blockDuration); !next.until.Equal(end) {
			return fail("entry ends %v, want blockDuration after this request (%v)", next.until, end)
		}
	}
	if why := r.tableViolation(); why != "" {
		return fail("%s", why)
	}

	moved := Stats{
		Evaluations: after.Evaluations - before.Evaluations, Allowed: after.Allowed - before.Allowed,
		Challenged: after.Challenged - before.Challenged, Throttled: after.Throttled - before.Throttled,
		Blocked: after.Blocked - before.Blocked, RemoteBlocks: after.RemoteBlocks - before.RemoteBlocks,
		Unblocked: after.Unblocked - before.Unblocked, DeEscalated: after.DeEscalated - before.DeEscalated,
	}
	wantMoved := Stats{Evaluations: 1}
	switch got.Action {
	case Allow:
		wantMoved.Allowed = 1
	case Challenge:
		wantMoved.Challenged = 1
	case Throttle:
		wantMoved.Throttled = 1
	case Block:
		wantMoved.Blocked = 1
	}
	if prev.stage == StageChallenge && next.stage == StageMonitor {
		wantMoved.DeEscalated = 1
	}
	if stored.stage == StageBlock && prev.stage == StageMonitor {
		wantMoved.Unblocked = 1
	}
	if moved != wantMoved {
		return fail("counters moved by %+v, want %+v", moved, wantMoved)
	}
	if newBlock := prev.stage != StageBlock && next.stage == StageBlock; newBlock != (len(r.fired) == 1) ||
		len(r.fired) > 1 || (newBlock && !r.fired[0].Equal(next.until)) {
		return fail("onBlock fired %v for a block until %v (newly decided: %v)", r.fired, next.until, newBlock)
	}
	return ""
}

// jump moves the clock blockDuration ahead, which ends whatever entry there
// is: it is still in force a tick before its until, and gone for a reader at
// the end of the jump. The run itself does not read, so the next request's
// Evaluate is what meets the lapsed entry.
func (r *ladderRun) jump() string {
	fail := func(format string, args ...any) string {
		return fmt.Sprintf("jump from %v: ", r.st.stage) + fmt.Sprintf(format, args...)
	}
	end := r.vc.Now().Add(blockDuration)
	if live := r.st.stage != StageMonitor && r.vc.Now().Before(r.st.until); live {
		if r.st.until.After(end) {
			return fail("entry outlives blockDuration: until %v", r.st.until)
		}
		r.vc.Advance(r.st.until.Add(-1).Sub(r.vc.Now()))
		if got := r.e.StageOf(enumKey); got != r.st.stage || r.e.IsBlocked(enumKey) != (got == StageBlock) {
			return fail("a tick before its until the entry reads %v", got)
		}
		at := r.fork()
		at.vc.Advance(r.st.until.Sub(at.vc.Now()))
		if got := at.e.StageOf(enumKey); got != StageMonitor || at.e.IsBlocked(enumKey) {
			return fail("at its until the entry still reads %v", got)
		}
	}
	r.vc.Advance(end.Sub(r.vc.Now()))

	reader := r.fork()
	wantUnblocked := int64(0)
	if r.st.stage == StageBlock {
		wantUnblocked = 1
	}
	if got := reader.e.StageOf(enumKey); got != StageMonitor || len(reader.e.stages) != 0 ||
		reader.e.ChallengedCount() != 0 || reader.e.BlockedCount() != 0 || reader.e.Stats().Unblocked != wantUnblocked {
		return fail("after the jump a reader sees %v, %d entries, stats %+v", got, len(reader.e.stages), reader.e.Stats())
	}
	return ""
}

// tableViolation checks the engine's table against the model: the one key's
// entry and nothing else, monitor by absence, counts equal to the contents.
func (r *ladderRun) tableViolation() string {
	r.e.mu.Lock()
	entry, ok := r.e.stages[enumKey]
	entries, onLadder := len(r.e.stages), r.e.onLadder
	r.e.mu.Unlock()
	if ok != (r.st.stage != StageMonitor) || entry != r.st {
		return fmt.Sprintf("table holds %+v (present %v), step says %+v", entry, ok, r.st)
	}
	if ok && entries != 1 || !ok && entries != 0 {
		return fmt.Sprintf("table holds %d entries for one session", entries)
	}
	var want [StageBlock + 1]int
	if ok {
		want[entry.stage] = 1
	}
	if onLadder[StageChallenge] != want[StageChallenge] || onLadder[StageBlock] != want[StageBlock] ||
		r.e.ChallengedCount() != want[StageChallenge] || r.e.BlockedCount() != want[StageBlock] {
		return fmt.Sprintf("per-stage counts %v for an entry at %v", onLadder, r.st.stage)
	}
	if got := r.e.StageOf(enumKey); got != r.st.stage {
		return fmt.Sprintf("StageOf = %v, stored stage %v", got, r.st.stage)
	}
	return ""
}

// TestLadderEnumerated is the exhaustive small-scope check of the enforcement
// ladder: every sequence of its 17 inputs to depth 5 (about 1.4 M of them),
// each step computed by step alone, made on a live engine through Evaluate,
// and checked by ladderRun.step against the written rules — no block without
// a challenge first, the challenge returned exactly once per climb, down from
// challenge only on a definite human verdict or a lapse, an entry in force
// until its until and not a tick longer, StageOf the stage step stored, no
// monitor entry in the table, one decision counted per call, onBlock exactly
// for a newly decided block. The first failure prints its sequence. Under the
// race detector, which has one goroutine to watch, the depth is 4.
func TestLadderEnumerated(t *testing.T) {
	depth := 5
	if raceEnabled {
		depth = 4
	}
	seq := make([]string, 0, depth)
	var walk func(from *ladderRun)
	walk = func(from *ladderRun) {
		if len(seq) == depth {
			return
		}
		for in := 0; in < ladderInputs; in++ {
			run := from.fork()
			seq = append(seq, ladderInputName(in))
			if why := run.step(in); why != "" {
				t.Fatalf("[%s]\n%s", strings.Join(seq, ", "), why)
			}
			walk(run)
			seq = seq[:len(seq)-1]
		}
	}
	walk(newLadderRun(time.Time{}))
}
