package rules

import (
	"testing"

	"botdetect/internal/detect"
	"botdetect/internal/logfmt"
	"botdetect/internal/session"
)

// recorded returns the signals a tracker holds for a session whose signals
// were each first seen at the given request (a count below 1 reads as 1).
func recorded(sigs map[session.Signal]int64) session.Signals {
	tr := session.NewTracker(session.Config{Shards: 1})
	key := session.Key{IP: "10.0.0.1", UserAgent: "UA"}
	var snap session.Snapshot
	for n, left := int64(1), len(sigs); left > 0; n++ {
		snap = tr.Observe(logfmt.Entry{ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET", Path: "/", Status: 200})
		for sig, at := range sigs {
			if max(at, 1) == n {
				snap, _ = tr.Mark(key, sig)
				left--
			}
		}
	}
	return snap.Signals
}

func sigSnap(total int64, sigs map[session.Signal]int64) *session.Snapshot {
	return &session.Snapshot{Counts: session.Counts{Total: uint32(total)}, Signals: recorded(sigs)}
}

func TestDirectPriorityOrder(t *testing.T) {
	direct := detect.New(detect.DirectRows, 10, nil, nil)
	// Decoy outranks mouse: a robot that blindly fetches every URL hits the
	// real key too, and must still be classified robot.
	v, ok := direct.Detect(sigSnap(5, map[session.Signal]int64{
		session.SignalDecoy: 3, session.SignalMouse: 2,
	}))
	if !ok || v.Rule != detect.RuleDecoy || v.Class != detect.ClassRobot || v.Confidence != detect.Definite || v.AtRequest != 3 {
		t.Fatalf("verdict = %+v ok=%v", v, ok)
	}

	cases := []struct {
		sig   session.Signal
		rule  detect.Rule
		class detect.Class
	}{
		{session.SignalDecoy, detect.RuleDecoy, detect.ClassRobot},
		{session.SignalReplay, detect.RuleReplay, detect.ClassRobot},
		{session.SignalHidden, detect.RuleHidden, detect.ClassRobot},
		{session.SignalUAMismatch, detect.RuleUAMismatch, detect.ClassRobot},
		{session.SignalMouse, detect.RuleMouse, detect.ClassHuman},
		{session.SignalCaptcha, detect.RuleCaptcha, detect.ClassHuman},
	}
	for _, tc := range cases {
		v, ok := direct.Detect(sigSnap(1, map[session.Signal]int64{tc.sig: 1}))
		if !ok || v.Rule != tc.rule || v.Class != tc.class || v.Confidence != detect.Definite {
			t.Fatalf("signal %v: verdict = %+v ok=%v", tc.sig, v, ok)
		}
	}

	// No direct evidence: abstain (CSS/JS are behavioural, not direct).
	if _, ok := direct.Detect(sigSnap(50, map[session.Signal]int64{session.SignalCSS: 1, session.SignalJS: 1})); ok {
		t.Fatal("the direct rows must abstain without direct evidence")
	}
}

func TestBrowserTestRules(t *testing.T) {
	b := detect.New(1<<detect.RuleBelowThreshold|1<<detect.RuleJSWithoutInput|1<<detect.RuleCSS|1<<detect.RuleNoPresentation, 10, nil, nil)

	v, ok := b.Detect(sigSnap(5, nil))
	if !ok || v.Class != detect.ClassUndecided || v.Rule != detect.RuleBelowThreshold {
		t.Fatalf("short session verdict = %+v ok=%v", v, ok)
	}

	v, _ = b.Detect(sigSnap(12, map[session.Signal]int64{session.SignalJS: 4}))
	if v.Class != detect.ClassRobot || v.AtRequest != 4 {
		t.Fatalf("JS-no-mouse verdict = %+v", v)
	}

	v, _ = b.Detect(sigSnap(12, map[session.Signal]int64{session.SignalCSS: 2}))
	if v.Class != detect.ClassHuman || v.AtRequest != 2 {
		t.Fatalf("CSS verdict = %+v", v)
	}

	// JS outranks CSS (S_JS − S_MM subtraction).
	v, _ = b.Detect(sigSnap(12, map[session.Signal]int64{session.SignalCSS: 2, session.SignalJS: 3}))
	if v.Class != detect.ClassRobot {
		t.Fatalf("JS+CSS verdict = %+v", v)
	}

	v, _ = b.Detect(sigSnap(12, nil))
	if v.Class != detect.ClassRobot || v.AtRequest != 10 || v.Rule != detect.RuleNoPresentation {
		t.Fatalf("no-presentation verdict = %+v", v)
	}
}

func TestServingChainEquivalentToLegacyClassifier(t *testing.T) {
	// The rules-only serving detector must reproduce the old core
	// classifier's decision table exactly.
	serving := Serving(10, nil)

	cases := []struct {
		name  string
		snap  *session.Snapshot
		class detect.Class
		conf  detect.Confidence
	}{
		{"decoy robot", sigSnap(3, map[session.Signal]int64{session.SignalDecoy: 1}), detect.ClassRobot, detect.Definite},
		{"mouse human", sigSnap(3, map[session.Signal]int64{session.SignalMouse: 1}), detect.ClassHuman, detect.Definite},
		{"short undecided", sigSnap(3, nil), detect.ClassUndecided, detect.Tentative},
		{"js robot", sigSnap(20, map[session.Signal]int64{session.SignalJS: 5}), detect.ClassRobot, detect.Probable},
		{"css human", sigSnap(20, map[session.Signal]int64{session.SignalCSS: 5}), detect.ClassHuman, detect.Probable},
		{"silent robot", sigSnap(20, nil), detect.ClassRobot, detect.Probable},
	}
	for _, tc := range cases {
		v, ok := serving.Detect(tc.snap)
		if !ok || v.Class != tc.class || v.Confidence != tc.conf {
			t.Fatalf("%s: verdict = %+v ok=%v", tc.name, v, ok)
		}
	}

	// Serving is the whole table, with or without a model.
	if Serving(10, detect.NewLearned()).Rows() != detect.AllRows || serving.Rows() != detect.AllRows {
		t.Fatal("the serving detector is not the whole table")
	}
}
