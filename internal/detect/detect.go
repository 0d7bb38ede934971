// Package detect is the unified decision layer of the detection pipeline:
// every verdict — on the serving path (proxy), in the CoDeeN-scale simulator
// (cdn), and in the offline experiments — flows through one pluggable
// Detector chain instead of ad-hoc heuristics scattered across layers.
//
// A Detector renders an opinion about one session snapshot, or abstains.
// Detectors compose: Chain tries detectors in priority order and takes the
// first opinion (the paper's structure — direct evidence outranks
// behavioural browser tests, which outrank the learned model's statistical
// guess); Weighted takes a confidence-weighted vote across detectors.
// Learned wraps the AdaBoost model of Section 4.2 behind an atomic pointer
// so a freshly trained model can be hot-swapped onto the serving path with
// zero locks on reads (see Learned.SetModel).
//
// The heuristic rule detectors extracted from the old core classifier live
// in the detect/rules subpackage.
package detect

import (
	"fmt"
	"strings"

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

// Verdict is the classification of one session.
type Verdict struct {
	// Class is the decision.
	Class Class
	// Confidence qualifies the decision.
	Confidence Confidence
	// Reason is a human-readable explanation of the dominant evidence.
	Reason string
	// AtRequest is the request count at which the dominant evidence was
	// observed (0 when no evidence has been observed).
	AtRequest int64
	// Origin names the fleet node whose engine produced the verdict when it
	// arrived via replication; it is empty for locally derived verdicts. The
	// fleet layer uses it to suppress re-publishing echoes.
	Origin string
}

// String renders a verdict compactly.
func (v Verdict) String() string {
	return fmt.Sprintf("%s (%s, request %d): %s", v.Class, v.Confidence, v.AtRequest, v.Reason)
}

// Undecided builds an undecided verdict with the given reason.
func Undecided(reason string) Verdict {
	return Verdict{Class: ClassUndecided, Confidence: Tentative, Reason: reason}
}

// Detector renders an opinion about one session.
//
// Detect examines the snapshot and returns its verdict plus true, or
// abstains by returning false. The snapshot belongs to the caller and MUST
// be treated as read-only. Detect is
// called concurrently from every serving goroutine, so implementations must
// be safe for concurrent use and should not allocate on the common path.
type Detector interface {
	// Name identifies the detector in logs and reports.
	Name() string
	// Detect classifies the session or abstains.
	Detect(snap *session.Snapshot) (Verdict, bool)
}

// chain tries members in order and returns the first opinion.
type chain struct {
	name    string
	members []Detector
}

// Chain composes detectors in strict priority order: the first member with
// an opinion decides. It mirrors the paper's evidence ranking — direct
// evidence, then behavioural tests, then statistical classification.
func Chain(name string, members ...Detector) Detector {
	return &chain{name: name, members: members}
}

// Name implements Detector.
func (c *chain) Name() string { return c.name }

// Detect implements Detector.
func (c *chain) Detect(snap *session.Snapshot) (Verdict, bool) {
	for _, d := range c.members {
		if v, ok := d.Detect(snap); ok {
			return v, true
		}
	}
	return Verdict{}, false
}

// Members returns the chain's detectors in priority order, so offline
// harnesses can report which stage decided.
func (c *chain) Members() []Detector { return c.members }

// WeightedMember pairs a detector with its voting weight.
type WeightedMember struct {
	Detector Detector
	Weight   float64
}

// weighted takes a confidence-scaled weighted vote.
type weighted struct {
	name    string
	members []WeightedMember
}

// Weighted composes detectors by confidence-weighted vote: each member's
// opinion contributes Weight scaled by its confidence (Definite 1.0,
// Probable 0.6, Tentative 0.3), positive for human and negative for robot.
// The sign of the sum decides; the member with the largest contribution
// supplies the reason. Members that abstain contribute nothing; if every
// member abstains, Weighted abstains. A zero sum yields an undecided
// verdict (conflicting evidence of equal weight).
func Weighted(name string, members ...WeightedMember) Detector {
	return &weighted{name: name, members: members}
}

// Name implements Detector.
func (w *weighted) Name() string { return w.name }

func confidenceScale(c Confidence) float64 {
	switch c {
	case Definite:
		return 1.0
	case Probable:
		return 0.6
	default:
		return 0.3
	}
}

// Detect implements Detector.
func (w *weighted) Detect(snap *session.Snapshot) (Verdict, bool) {
	sum := 0.0
	voted := false
	var lead Verdict
	leadAbs := 0.0
	for _, m := range w.members {
		v, ok := m.Detector.Detect(snap)
		if !ok || v.Class == ClassUndecided {
			continue
		}
		voted = true
		contrib := m.Weight * confidenceScale(v.Confidence)
		if v.Class == ClassRobot {
			contrib = -contrib
		}
		sum += contrib
		if abs := contrib; abs < 0 {
			abs = -abs
			if abs > leadAbs {
				leadAbs, lead = abs, v
			}
		} else if abs > leadAbs {
			leadAbs, lead = abs, v
		}
	}
	if !voted {
		return Verdict{}, false
	}
	switch {
	case sum > 0 && lead.Class == ClassHuman, sum < 0 && lead.Class == ClassRobot:
		return lead, true
	case sum > 0:
		return Verdict{Class: ClassHuman, Confidence: Probable, Reason: "weighted vote favours human", AtRequest: int64(snap.Counts.Total)}, true
	case sum < 0:
		return Verdict{Class: ClassRobot, Confidence: Probable, Reason: "weighted vote favours robot", AtRequest: int64(snap.Counts.Total)}, true
	default:
		return Undecided("weighted vote tied: " + lead.Reason), true
	}
}

// Describe renders a one-line summary of a detector tree, for status pages.
func Describe(d Detector) string {
	switch t := d.(type) {
	case *chain:
		names := make([]string, len(t.members))
		for i, m := range t.members {
			names[i] = Describe(m)
		}
		return t.name + "(" + strings.Join(names, " → ") + ")"
	case *weighted:
		names := make([]string, len(t.members))
		for i, m := range t.members {
			names[i] = fmt.Sprintf("%s×%.1f", Describe(m.Detector), m.Weight)
		}
		return t.name + "(" + strings.Join(names, " + ") + ")"
	default:
		return d.Name()
	}
}
