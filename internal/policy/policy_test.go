package policy

import (
	"strings"
	"sync"
	"testing"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/session"
)

func newTestEngine(cfg Config) (*Engine, *clock.Virtual) {
	vc := clock.NewVirtual(time.Time{})
	cfg.Clock = vc
	return NewEngine(cfg), vc
}

func robotVerdict() detect.Verdict {
	return detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}
}

func probableRobotVerdict() detect.Verdict {
	return detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Probable, Rule: detect.RuleJSWithoutInput}
}

func humanVerdict() detect.Verdict {
	return detect.Verdict{Class: detect.ClassHuman, Confidence: detect.Definite, Rule: detect.RuleCaptcha}
}

func snapshotWith(key session.Key, counts session.Counts, dur time.Duration, start time.Time) session.Snapshot {
	return session.Snapshot{Key: key, FirstSeen: start, LastSeen: start.Add(dur), Counts: counts}
}

// challenge primes the ladder: the first robot verdict moves the session
// from monitor to challenge and must return the Challenge action.
func challenge(t *testing.T, e *Engine, snap session.Snapshot, v detect.Verdict) {
	t.Helper()
	d := e.Evaluate(snap, v)
	if d.Action != Challenge || d.Stage != StageChallenge {
		t.Fatalf("first robot verdict did not challenge: %+v", d)
	}
}

func TestHumanAlwaysAllowed(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "1.1.1.1", UserAgent: "Firefox"}
	snap := snapshotWith(key, session.Counts{Total: 1000, CGI: 900, Status4xx: 500}, time.Minute, vc.Now())
	d := e.Evaluate(snap, humanVerdict())
	if d.Action != Allow {
		t.Fatalf("decision = %+v", d)
	}
	if e.Stats().Allowed != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

func TestRobotChallengedOnceThenWatched(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "2.2.2.2", UserAgent: "Bot"}
	snap := snapshotWith(key, session.Counts{Total: 30, CGI: 1, Status2xx: 30}, 10*time.Minute, vc.Now())

	challenge(t, e, snap, probableRobotVerdict())
	if e.Stats().Challenged != 1 || e.ChallengedCount() != 1 {
		t.Fatalf("stats = %+v challenged=%d", e.Stats(), e.ChallengedCount())
	}
	// A well-behaved challenged robot is allowed through, not re-challenged.
	d := e.Evaluate(snap, probableRobotVerdict())
	if d.Action != Allow || d.Stage != StageChallenge {
		t.Fatalf("second evaluation = %+v", d)
	}
	if e.Stats().Challenged != 1 {
		t.Fatalf("challenged again: %+v", e.Stats())
	}
}

func TestChallengePassedDeEscalates(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "2.2.2.3", UserAgent: "MaybeHuman"}
	snap := snapshotWith(key, session.Counts{Total: 30, Status2xx: 30}, 10*time.Minute, vc.Now())

	challenge(t, e, snap, probableRobotVerdict())
	// Direct human evidence (e.g. the CAPTCHA the challenge pointed at)
	// drops the session back to monitor.
	d := e.Evaluate(snap, humanVerdict())
	if d.Action != Allow {
		t.Fatalf("decision = %+v", d)
	}
	if e.StageOf(key) != StageMonitor || e.ChallengedCount() != 0 {
		t.Fatalf("session not de-escalated: stage=%v", e.StageOf(key))
	}
	if e.Stats().DeEscalated != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
	// The next robot verdict starts a fresh challenge.
	challenge(t, e, snap, probableRobotVerdict())
}

func TestRobotCGIRateBlocks(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "3.3.3.3", UserAgent: "ClickBot"}
	// 300 CGI requests in 60 seconds = 5/s, above the 0.2/s default.
	snap := snapshotWith(key, session.Counts{Total: 320, CGI: 300, Status2xx: 320}, time.Minute, vc.Now())
	challenge(t, e, snap, robotVerdict())
	d := e.Evaluate(snap, robotVerdict())
	if d.Action != Block || !strings.Contains(d.Reason, "CGI rate") {
		t.Fatalf("decision = %+v", d)
	}
	if !e.IsBlocked(key) {
		t.Fatal("session should be blocked")
	}
	// A later evaluation stays blocked even if the verdict were to change.
	d = e.Evaluate(snap, humanVerdict())
	if d.Action != Block {
		t.Fatalf("blocked session later allowed: %+v", d)
	}
}

func TestRobotErrorShareBlocks(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "4.4.4.4", UserAgent: "VulnScanner"}
	snap := snapshotWith(key, session.Counts{Total: 50, Status4xx: 30, Status2xx: 20}, 10*time.Minute, vc.Now())
	challenge(t, e, snap, robotVerdict())
	d := e.Evaluate(snap, robotVerdict())
	if d.Action != Block || !strings.Contains(d.Reason, "error share") {
		t.Fatalf("decision = %+v", d)
	}
}

func TestErrorShareNeedsMinimumRequests(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "5.5.5.5", UserAgent: "Bot"}
	// 100% errors but only 5 requests: below MinRequestsForShare.
	snap := snapshotWith(key, session.Counts{Total: 5, Status4xx: 5}, 10*time.Minute, vc.Now())
	challenge(t, e, snap, robotVerdict())
	d := e.Evaluate(snap, robotVerdict())
	if d.Action == Block {
		t.Fatalf("blocked on too few requests: %+v", d)
	}
}

func TestRobotRequestRateThrottles(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "6.6.6.6", UserAgent: "Crawler"}
	// 600 requests in 60 seconds = 10/s, above 2/s: throttle (no CGI, no errors).
	snap := snapshotWith(key, session.Counts{Total: 600, Status2xx: 600}, time.Minute, vc.Now())
	challenge(t, e, snap, probableRobotVerdict())
	d := e.Evaluate(snap, probableRobotVerdict())
	if d.Action != Throttle {
		t.Fatalf("decision = %+v", d)
	}
	if e.Stats().Throttled != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

func TestDefiniteRobotIgnoringChallengeBlocks(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "6.6.6.7", UserAgent: "Harvester"}
	// Slow enough to stay under every rate threshold.
	early := snapshotWith(key, session.Counts{Total: 30, Status2xx: 30}, time.Hour, vc.Now())
	challenge(t, e, early, robotVerdict())

	// Within the grace window (24 requests after the challenge): still allowed.
	within := snapshotWith(key, session.Counts{Total: 54, Status2xx: 54}, time.Hour, vc.Now())
	if d := e.Evaluate(within, robotVerdict()); d.Action != Allow {
		t.Fatalf("within grace = %+v", d)
	}
	// The 25th request with definite evidence: blocked.
	past := snapshotWith(key, session.Counts{Total: 55, Status2xx: 55}, time.Hour, vc.Now())
	d := e.Evaluate(past, robotVerdict())
	if d.Action != Block || !strings.Contains(d.Reason, "ignored the challenge for 25 requests") {
		t.Fatalf("past grace = %+v", d)
	}
	// A merely probable robot is never grace-blocked.
	e2, vc2 := newTestEngine(Config{})
	challenge(t, e2, snapshotWith(key, session.Counts{Total: 30, Status2xx: 30}, time.Hour, vc2.Now()), probableRobotVerdict())
	if d := e2.Evaluate(snapshotWith(key, session.Counts{Total: 100, Status2xx: 100}, time.Hour, vc2.Now()), probableRobotVerdict()); d.Action != Allow {
		t.Fatalf("probable robot past grace = %+v", d)
	}
}

func TestBlockExpiry(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "7.7.7.7", UserAgent: "Bot"}
	e.BlockNow(key)
	vc.Advance(59 * time.Minute)
	if !e.IsBlocked(key) {
		t.Fatal("BlockNow did not block for the hour")
	}
	vc.Advance(2 * time.Minute)
	if e.IsBlocked(key) {
		t.Fatal("block did not expire")
	}
	if e.Stats().Unblocked != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

func TestBlockExpiryViaEvaluate(t *testing.T) {
	e, vc := newTestEngine(Config{})
	key := session.Key{IP: "8.8.8.8", UserAgent: "Bot"}
	e.BlockNow(key)
	vc.Advance(61 * time.Minute)
	snap := snapshotWith(key, session.Counts{Total: 30, Status2xx: 30}, 10*time.Minute, vc.Now())
	// After the block lapses, a still-robot verdict re-enters the ladder at
	// the challenge stage rather than staying blocked.
	d := e.Evaluate(snap, robotVerdict())
	if d.Action != Challenge {
		t.Fatalf("decision after expiry = %+v", d)
	}
	if e.BlockedCount() != 0 {
		t.Fatalf("BlockedCount = %d", e.BlockedCount())
	}
	// A human verdict after expiry simply allows.
	e2, vc2 := newTestEngine(Config{})
	e2.BlockNow(key)
	vc2.Advance(61 * time.Minute)
	if d := e2.Evaluate(snap, humanVerdict()); d.Action != Allow {
		t.Fatalf("human after expiry = %+v", d)
	}
}

func TestActionAndStageStrings(t *testing.T) {
	if Allow.String() != "allow" || Challenge.String() != "challenge" || Throttle.String() != "throttle" ||
		Block.String() != "block" || Action(9).String() != "allow" {
		t.Fatal("Action names wrong")
	}
	if StageMonitor.String() != "monitor" || StageChallenge.String() != "challenge" || StageBlock.String() != "block" {
		t.Fatal("Stage names wrong")
	}
}

// TestDefaultsApplied pins the ladder's limits at the paper's values by
// behaviour: a challenged robot sitting exactly on each of them — 2
// requests/s, 0.2 CGI requests/s, a 30 % error share — or one request short
// of the error-share floor of 20 is allowed, because every rule fires
// strictly above its limit (the tests above cross each one; the grace of 25
// is pinned by TestDefiniteRobotIgnoringChallengeBlocks).
func TestDefaultsApplied(t *testing.T) {
	for name, counts := range map[string]session.Counts{
		"request rate 2/s":       {Total: 200, Status2xx: 200},
		"CGI rate 0.2/s":         {Total: 20, CGI: 20, Status2xx: 20},
		"error share 30%":        {Total: 20, Status4xx: 3, Status5xx: 3, Status2xx: 14},
		"19 requests, all error": {Total: 19, Status4xx: 19},
	} {
		e, vc := newTestEngine(Config{})
		key := session.Key{IP: "9.9.9.9", UserAgent: "Bot"}
		snap := snapshotWith(key, counts, 100*time.Second, vc.Now())
		challenge(t, e, snap, probableRobotVerdict())
		if d := e.Evaluate(snap, probableRobotVerdict()); d.Action != Allow {
			t.Fatalf("%s: %+v", name, d)
		}
	}
}

func TestConcurrentEnforcement(t *testing.T) {
	// Readers (Evaluate/IsBlocked/BlockedCount) race against transition and
	// expiry writers on the one table; run under -race this is the proof
	// that its mutex covers every access.
	eng, vc := newTestEngine(Config{})
	start := vc.Now()
	keys := make([]session.Key, 16)
	for i := range keys {
		keys[i] = session.Key{IP: "10.9.0." + string(rune('1'+i%9)), UserAgent: "UA" + string(rune('a'+i))}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keys[(seed+i)%len(keys)]
				switch i % 4 {
				case 0:
					snap := snapshotWith(k, session.Counts{Total: 5}, 10*time.Second, start)
					eng.Evaluate(snap, robotVerdict())
				case 1:
					eng.BlockNow(k)
				case 2:
					eng.IsBlocked(k)
				default:
					eng.BlockedCount()
				}
			}
		}(w)
	}
	wg.Wait()

	st := eng.Stats()
	if st.Blocked == 0 {
		t.Fatalf("no blocks recorded: %+v", st)
	}
	// Every key was explicitly blocked and the clock never advanced, so the
	// final ladder must still hold all of them in the block stage.
	if got := eng.BlockedCount(); got != len(keys) {
		t.Fatalf("BlockedCount = %d, want %d", got, len(keys))
	}
}
