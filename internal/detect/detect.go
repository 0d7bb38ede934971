// Package detect is the decision layer of the detection pipeline: every
// verdict — on the serving path (proxy), in the CoDeeN-scale simulator (cdn),
// and in the offline experiments — is the first row that fires in one fixed,
// ordered verdict table.
//
// The table is the paper's evidence ranking written down once. Direct robot
// evidence (decoy, replayed key, hidden link, forged agent) outranks direct
// human evidence (input event, CAPTCHA); a fleet peer's replicated verdict
// comes next, then the learned model's statistical guess, then the browser
// test (S_JS − S_MM, S_CSS, no presentation objects). A Detector is the table
// under a row mask: the serving path uses every row, the staged experiment
// the direct and learned rows, and the Section 3.1 set S_H and its ablation
// variants the rows of their terms (see detect/rules). A verdict carries the
// ID of the row that fired, which is its explanation, its stored form and its
// provenance.
//
// Learned holds the AdaBoost model of Section 4.2 behind an atomic pointer
// so a freshly trained model can be hot-swapped onto the serving path with
// zero locks on reads (see Learned.SetModel).
package detect

import (
	"fmt"

	"botdetect/internal/session"
)

// Class is the decision about a session's traffic source.
type Class int

const (
	// ClassUndecided means not enough evidence has been seen.
	ClassUndecided Class = iota
	// ClassHuman means the traffic source is a human user.
	ClassHuman
	// ClassRobot means the traffic source is an automated agent.
	ClassRobot
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassHuman:
		return "human"
	case ClassRobot:
		return "robot"
	default:
		return "undecided"
	}
}

// Confidence qualifies a verdict.
type Confidence int

const (
	// Tentative verdicts may flip as more requests arrive.
	Tentative Confidence = iota
	// Probable verdicts rest on behavioural or statistical evidence
	// (browser testing, the learned model).
	Probable
	// Definite verdicts rest on direct evidence (input events, decoy hits,
	// hidden-link fetches, CAPTCHA).
	Definite
)

// String returns the confidence name.
func (c Confidence) String() string {
	switch c {
	case Definite:
		return "definite"
	case Probable:
		return "probable"
	default:
		return "tentative"
	}
}

// Rule is the ID of one row of the verdict table; the constants are in table
// order. 0 is no row: the zero Verdict's, and a stored verdict's that holds
// nothing.
type Rule uint8

// The rows, in table order; see rows for what each tests.
const (
	RuleDecoy Rule = iota + 1
	RuleReplay
	RuleHidden
	RuleUAMismatch
	RuleMouse
	RuleCaptcha
	RuleRemote
	RuleLearnedHuman
	RuleLearnedRobot
	RuleBelowThreshold
	RuleJSWithoutInput
	RuleCSS
	RuleNoPresentation

	numRules = int(RuleNoPresentation) + 1
)

// What a row tests.
const (
	onSignal      = iota // the row's signal was seen
	onSignalAtMin        // the row's signal was seen and the session reached the threshold
	onPeer               // a fleet peer holds a verdict for the session
	onModel              // at the threshold, the published model predicts the row's class
	belowMin             // the session has not reached the threshold
	atMin                // the session has reached the threshold
)

type row struct {
	name   string
	class  Class
	conf   Confidence
	test   int
	signal session.Signal // for onSignal and onSignalAtMin
	reason string
}

// rows is the verdict table. Robot evidence comes first: decoy fetches,
// replayed keys, hidden-link fetches and a forged User-Agent can only be
// produced by automation, so they outrank everything else — which also
// catches robots that blindly fetch every URL in the script and so hit the
// real key as well. The remote row's verdict is a peer's, carrying the row
// that fired on its origin; its own class and confidence are never served.
// The JS row is reached only without an input event, since the mouse row
// comes first: that is the S_JS − S_MM subtraction. The no-presentation row
// first becomes decidable at the threshold and reports that request, so
// downstream consumers (rate limiting, the complaint model) know when
// enforcement could start.
var rows = [numRules]row{
	RuleDecoy:          {"decoy", ClassRobot, Definite, onSignal, session.SignalDecoy, "fetched a decoy beacon URL without executing the script"},
	RuleReplay:         {"replay", ClassRobot, Definite, onSignal, session.SignalReplay, "replayed an already consumed beacon key"},
	RuleHidden:         {"hidden", ClassRobot, Definite, onSignal, session.SignalHidden, "followed a link invisible to human users"},
	RuleUAMismatch:     {"ua-mismatch", ClassRobot, Definite, onSignal, session.SignalUAMismatch, "User-Agent header does not match the script-reported agent"},
	RuleMouse:          {"mouse", ClassHuman, Definite, onSignal, session.SignalMouse, "input event beacon carried a valid key"},
	RuleCaptcha:        {"captcha", ClassHuman, Definite, onSignal, session.SignalCaptcha, "passed CAPTCHA challenge"},
	RuleRemote:         {"remote", ClassUndecided, Tentative, onPeer, 0, "a fleet peer replicated its verdict"},
	RuleLearnedHuman:   {"learned-human", ClassHuman, Probable, onModel, 0, "learned model classified the request mix as human"},
	RuleLearnedRobot:   {"learned-robot", ClassRobot, Probable, onModel, 0, "learned model classified the request mix as robot"},
	RuleBelowThreshold: {"below-threshold", ClassUndecided, Tentative, belowMin, 0, "fewer requests than the classification threshold"},
	RuleJSWithoutInput: {"js-without-input", ClassRobot, Probable, onSignalAtMin, session.SignalJS, "executed JavaScript but produced no input events"},
	RuleCSS:            {"css", ClassHuman, Probable, onSignalAtMin, session.SignalCSS, "fetched the embedded stylesheet like a standard browser"},
	RuleNoPresentation: {"no-presentation", ClassRobot, Probable, atMin, 0, "ignored all embedded presentation objects"},
}

// Known reports whether r is a row of the table.
func (r Rule) Known() bool { return r != 0 && int(r) < numRules }

// row returns r's row; an unknown row reads as the zero row 0.
func (r Rule) row() *row {
	if !r.Known() {
		return &rows[0]
	}
	return &rows[r]
}

// Name returns the row's short name ("" for an unknown row).
func (r Rule) Name() string { return r.row().name }

// Reason returns the row's explanation ("" for an unknown row).
func (r Rule) Reason() string { return r.row().reason }

// Class returns the class of the row's verdicts.
func (r Rule) Class() Class { return r.row().class }

// Confidence returns the confidence of the row's verdicts.
func (r Rule) Confidence() Confidence { return r.row().conf }

// Mask is a set of rows: bit r holds Rule r.
type Mask uint16

const (
	// AllRows is the whole table: the serving path's detector.
	AllRows Mask = 1<<numRules - 2
	// DirectRows is the direct evidence, robot and human.
	DirectRows Mask = 1<<RuleDecoy | 1<<RuleReplay | 1<<RuleHidden | 1<<RuleUAMismatch | 1<<RuleMouse | 1<<RuleCaptcha
	// LearnedRows is the learned model's two rows.
	LearnedRows Mask = 1<<RuleLearnedHuman | 1<<RuleLearnedRobot
)

// Has reports whether r is in m.
func (m Mask) Has(r Rule) bool { return r.Known() && m&(1<<r) != 0 }

// Rules lists m's rows in table order.
func (m Mask) Rules() []Rule {
	var out []Rule
	for r := Rule(1); r.Known(); r++ {
		if m.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// Verdict is the classification of one session.
type Verdict struct {
	// Class is the decision.
	Class Class
	// Confidence qualifies the decision.
	Confidence Confidence
	// Rule is the row that fired; for a replicated verdict, the row that
	// fired on its origin.
	Rule Rule
	// AtRequest is the request count at which the dominant evidence was
	// observed (0 when no evidence has been observed).
	AtRequest int64
	// Origin names the fleet node whose engine produced the verdict when it
	// arrived via replication; it is empty for locally derived verdicts. The
	// fleet layer uses it to suppress re-publishing echoes.
	Origin string
}

// Reason is the explanation of the row that fired.
func (v Verdict) Reason() string { return v.Rule.Reason() }

// String renders a verdict compactly.
func (v Verdict) String() string {
	return fmt.Sprintf("%s (%s, request %d): %s", v.Class, v.Confidence, v.AtRequest, v.Reason())
}

// Detector is the verdict table under a row mask, with what its rows read:
// the threshold, the learned model and the fleet's peer verdicts. It is a
// small value; Detect is safe for concurrent use and allocates nothing.
type Detector struct {
	rows    Mask
	min     int64
	learned *Learned
	peer    func(session.Key) (Verdict, bool)
}

// New returns the table restricted to rows. min is its one threshold: the
// learned and browser-test rows fire from min requests on, the
// below-threshold row before. learned feeds the learned rows and peer the
// remote row; either may be nil, and its rows then never fire.
func New(rows Mask, min int64, learned *Learned, peer func(session.Key) (Verdict, bool)) Detector {
	return Detector{rows: rows, min: min, learned: learned, peer: peer}
}

// Rows returns the detector's row mask.
func (d Detector) Rows() Mask { return d.rows }

// Detect returns the verdict of the first row of the mask that fires, or
// false when none does. The snapshot is read only.
func (d Detector) Detect(snap *session.Snapshot) (Verdict, bool) {
	total := int64(snap.Counts.Total)
	predicted := Class(-1) // the model's class for the session, once asked
	for id := Rule(1); id.Known(); id++ {
		if !d.rows.Has(id) {
			continue
		}
		r := &rows[id]
		v := Verdict{Class: r.class, Confidence: r.conf, Rule: id}
		switch r.test {
		case onSignal, onSignalAtMin:
			at, ok := snap.Signals.At(r.signal)
			if !ok || r.test == onSignalAtMin && total < d.min {
				continue
			}
			v.AtRequest = at
		case onPeer:
			if d.peer == nil {
				continue
			}
			pv, ok := d.peer(snap.Key)
			if !ok || !pv.fromPeer() {
				continue
			}
			return pv, true
		case onModel:
			if predicted < 0 {
				predicted = d.predict(snap, total)
			}
			if predicted != r.class {
				continue
			}
			v.AtRequest = total
		case belowMin:
			if total >= d.min {
				continue
			}
		case atMin:
			if total < d.min {
				continue
			}
			v.AtRequest = d.min
		}
		return v, true
	}
	return Verdict{}, false
}

// predict returns the published model's class for the session, or
// ClassUndecided with no model or below the threshold.
func (d Detector) predict(snap *session.Snapshot, total int64) Class {
	if d.learned == nil || total < d.min {
		return ClassUndecided
	}
	switch m := d.learned.Model(); {
	case m == nil:
		return ClassUndecided
	case m.Predict(snap.Counts.Vector()):
		return ClassHuman
	default:
		return ClassRobot
	}
}

// fromPeer reports whether v is a verdict the remote row may serve: it names
// its origin, and its row is one of the table's own — not the remote row —
// with that row's class and confidence. A replicated verdict is another
// node's input; one that fails this is refused, as if no peer held one.
func (v Verdict) fromPeer() bool {
	return v.Origin != "" && v.Rule.Known() && v.Rule != RuleRemote &&
		v.Class == v.Rule.Class() && v.Confidence == v.Rule.Confidence()
}
