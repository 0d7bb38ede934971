package rules

import (
	"fmt"
	"strings"
	"testing"

	"botdetect/internal/adaboost"
	"botdetect/internal/detect"
	"botdetect/internal/session"
)

// This file keeps the verdict path as it was before the verdict table — the
// Direct and BrowserTest detectors, the Chain combinator, the engine's fleet
// stage, the learned stage and the Rule variants of the combining rule — as
// the oracle TestVerdictTableEnumerated holds the table to.

type oracleVerdict struct {
	Class      detect.Class
	Confidence detect.Confidence
	Reason     string
	AtRequest  int64
	Origin     string
}

type oracleDetector interface {
	Detect(snap *session.Snapshot) (oracleVerdict, bool)
}

// oracleChain tries members in order and returns the first opinion.
type oracleChain []oracleDetector

func (c oracleChain) Detect(snap *session.Snapshot) (oracleVerdict, bool) {
	for _, d := range c {
		if v, ok := d.Detect(snap); ok {
			return v, true
		}
	}
	return oracleVerdict{}, false
}

type oracleDirect struct{}

func (oracleDirect) Detect(snap *session.Snapshot) (oracleVerdict, bool) {
	if at, ok := snap.SignalAt(session.SignalDecoy); ok {
		return oracleVerdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "fetched a decoy beacon URL without executing the script", AtRequest: at}, true
	}
	if at, ok := snap.SignalAt(session.SignalReplay); ok {
		return oracleVerdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "replayed an already consumed beacon key", AtRequest: at}, true
	}
	if at, ok := snap.SignalAt(session.SignalHidden); ok {
		return oracleVerdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "followed a link invisible to human users", AtRequest: at}, true
	}
	if at, ok := snap.SignalAt(session.SignalUAMismatch); ok {
		return oracleVerdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "User-Agent header does not match the script-reported agent", AtRequest: at}, true
	}
	if at, ok := snap.SignalAt(session.SignalMouse); ok {
		return oracleVerdict{Class: detect.ClassHuman, Confidence: detect.Definite, Reason: "input event beacon carried a valid key", AtRequest: at}, true
	}
	if at, ok := snap.SignalAt(session.SignalCaptcha); ok {
		return oracleVerdict{Class: detect.ClassHuman, Confidence: detect.Definite, Reason: "passed CAPTCHA challenge", AtRequest: at}, true
	}
	return oracleVerdict{}, false
}

type oracleBrowserTest struct{ MinRequests int64 }

func (b oracleBrowserTest) Detect(snap *session.Snapshot) (oracleVerdict, bool) {
	if int64(snap.Counts.Total) < b.MinRequests {
		return oracleVerdict{Class: detect.ClassUndecided, Confidence: detect.Tentative, Reason: "fewer requests than the classification threshold"}, true
	}
	if jsAt, ok := snap.SignalAt(session.SignalJS); ok {
		return oracleVerdict{Class: detect.ClassRobot, Confidence: detect.Probable, Reason: "executed JavaScript but produced no input events", AtRequest: jsAt}, true
	}
	if cssAt, ok := snap.SignalAt(session.SignalCSS); ok {
		return oracleVerdict{Class: detect.ClassHuman, Confidence: detect.Probable, Reason: "fetched the embedded stylesheet like a standard browser", AtRequest: cssAt}, true
	}
	return oracleVerdict{Class: detect.ClassRobot, Confidence: detect.Probable, Reason: "ignored all embedded presentation objects", AtRequest: b.MinRequests}, true
}

type oracleLearned struct {
	MinRequests int64
	model       *adaboost.Model
}

func (l oracleLearned) Detect(snap *session.Snapshot) (oracleVerdict, bool) {
	if l.model == nil || int64(snap.Counts.Total) < l.MinRequests {
		return oracleVerdict{}, false
	}
	if l.model.Predict(snap.Features) {
		return oracleVerdict{Class: detect.ClassHuman, Confidence: detect.Probable, Reason: "learned model classified the request mix as human", AtRequest: int64(snap.Counts.Total)}, true
	}
	return oracleVerdict{Class: detect.ClassRobot, Confidence: detect.Probable, Reason: "learned model classified the request mix as robot", AtRequest: int64(snap.Counts.Total)}, true
}

// oracleRemote is the engine's fleet stage: the peer's verdict, if any.
type oracleRemote struct{ peer *oracleVerdict }

func (r oracleRemote) Detect(*session.Snapshot) (oracleVerdict, bool) {
	if r.peer == nil {
		return oracleVerdict{}, false
	}
	return *r.peer, true
}

type oracleRule struct{ UseCSS, UseMouse, SubtractJSWithoutMouse bool }

func (r oracleRule) InHumanSet(s session.Snapshot) bool {
	css := r.UseCSS && s.Has(session.SignalCSS)
	mouse := r.UseMouse && s.Has(session.SignalMouse)
	if !css && !mouse {
		return false
	}
	if r.SubtractJSWithoutMouse && s.Has(session.SignalJS) && !s.Has(session.SignalMouse) {
		return false
	}
	return true
}

// constModel is a one-stump ensemble that judges every session human, or
// every session robot.
func constModel(human bool) *adaboost.Model {
	polarity := -1
	if human {
		polarity = 1
	}
	return &adaboost.Model{Stumps: []adaboost.Stump{{Threshold: -1, Polarity: polarity}}, Alphas: []float64{1}}
}

// TestVerdictTableEnumerated holds the verdict table to the chain it
// replaced, case by case: every subset of the nine signals (signal i first
// seen at request i+1), five request totals around the threshold of 10, no
// model or one that predicts human or robot, and no peer verdict or a
// definite human or robot one from node b. The engine's table (every row,
// the learned model, the peer) must match Chain(Direct, remote, Learned,
// BrowserTest); rules.Serving(10, nil) must match Chain(Direct, BrowserTest);
// the staged mask Chain(Direct, Learned) — in class, confidence, AtRequest,
// reason and origin. Then the four Section 3.1 masks must agree with the
// Rule variants they replaced on all 512 subsets.
func TestVerdictTableEnumerated(t *testing.T) {
	const minRequests = 10
	models := []struct {
		name  string
		model *adaboost.Model
	}{{"no model", nil}, {"model says human", constModel(true)}, {"model says robot", constModel(false)}}
	peers := []struct {
		name   string
		oracle *oracleVerdict
		table  detect.Verdict
	}{
		{name: "no peer"},
		{"peer b: definite human",
			&oracleVerdict{Class: detect.ClassHuman, Confidence: detect.Definite, Reason: "passed CAPTCHA challenge", AtRequest: 6, Origin: "b"},
			detect.Verdict{Class: detect.ClassHuman, Confidence: detect.Definite, Rule: detect.RuleCaptcha, AtRequest: 6, Origin: "b"}},
		{"peer b: definite robot",
			&oracleVerdict{Class: detect.ClassRobot, Confidence: detect.Definite, Reason: "followed a link invisible to human users", AtRequest: 4, Origin: "b"},
			detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleHidden, AtRequest: 4, Origin: "b"}},
	}
	same := func(o oracleVerdict, okO bool, v detect.Verdict, okV bool) bool {
		return okO == okV && o == oracleVerdict{v.Class, v.Confidence, v.Reason(), v.AtRequest, v.Origin}
	}
	const numSignals = 9
	cases := 0
	for subset := 0; subset < 1<<numSignals; subset++ {
		sigs := map[session.Signal]int64{}
		var names []string
		for i := 0; i < numSignals; i++ {
			if subset&(1<<i) != 0 {
				sigs[session.Signal(i)] = int64(i) + 1
				names = append(names, session.Signal(i).String())
			}
		}
		for _, total := range []uint32{0, 9, 10, 11, 40} {
			snap := &session.Snapshot{Key: session.Key{IP: "10.0.0.1", UserAgent: "UA"},
				Counts: session.Counts{Total: total}, Signals: recorded(sigs)}
			for _, m := range models {
				learned := detect.NewLearned()
				learned.SetModel(m.model)
				for _, p := range peers {
					cases++
					name := fmt.Sprintf("signals {%s}, %d requests, %s, %s", strings.Join(names, ","), total, m.name, p.name)
					peer := func(session.Key) (detect.Verdict, bool) { return p.table, p.oracle != nil }
					engine := oracleChain{oracleDirect{}, oracleRemote{p.oracle}, oracleLearned{minRequests, m.model}, oracleBrowserTest{minRequests}}
					o, okO := engine.Detect(snap)
					v, okV := detect.New(detect.AllRows, minRequests, learned, peer).Detect(snap)
					if !same(o, okO, v, okV) {
						t.Fatalf("engine table, %s: got %+v (%v, reason %q), chain gave %+v (%v)", name, v, okV, v.Reason(), o, okO)
					}
					staged := oracleChain{oracleDirect{}, oracleLearned{minRequests, m.model}}
					o, okO = staged.Detect(snap)
					v, okV = detect.New(detect.DirectRows|detect.LearnedRows, minRequests, learned, nil).Detect(snap)
					if !same(o, okO, v, okV) {
						t.Fatalf("staged mask, %s: got %+v (%v, reason %q), chain gave %+v (%v)", name, v, okV, v.Reason(), o, okO)
					}
					if m.model != nil || p.oracle != nil {
						continue
					}
					o, okO = oracleChain{oracleDirect{}, oracleBrowserTest{minRequests}}.Detect(snap)
					v, okV = Serving(minRequests, nil).Detect(snap)
					if !same(o, okO, v, okV) {
						t.Fatalf("rules.Serving, %s: got %+v (%v, reason %q), chain gave %+v (%v)", name, v, okV, v.Reason(), o, okO)
					}
				}
			}
		}
		snap := session.Snapshot{Counts: session.Counts{Total: 20}, Signals: recorded(sigs)}
		for _, variant := range []struct {
			name string
			rows detect.Mask
			rule oracleRule
		}{
			{"S_H", HumanSet, oracleRule{true, true, true}},
			{"CSS only", CSSOnly, oracleRule{UseCSS: true}},
			{"MM only", MouseOnly, oracleRule{UseMouse: true}},
			{"union", Union, oracleRule{UseCSS: true, UseMouse: true}},
		} {
			if got, want := InSet(variant.rows, &snap), variant.rule.InHumanSet(snap); got != want {
				t.Fatalf("%s mask, signals {%s}: in the human set %v, the Rule variant says %v", variant.name, strings.Join(names, ","), got, want)
			}
		}
	}
	if cases != 512*5*3*3 {
		t.Fatalf("walked %d cases", cases)
	}
}
