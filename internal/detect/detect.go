// Package detect is the unified decision layer of the detection pipeline:
// every verdict — on the serving path (proxy), in the CoDeeN-scale simulator
// (cdn), and in the offline experiments — flows through one pluggable
// Detector chain instead of ad-hoc heuristics scattered across layers.
//
// A Detector renders an opinion about one session snapshot, or abstains.
// Detectors compose: Chain tries detectors in priority order and takes the
// first opinion (the paper's structure — direct evidence outranks
// behavioural browser tests, which outrank the learned model's statistical
// guess). Learned wraps the AdaBoost model of Section 4.2 behind an atomic
// pointer so a freshly trained model can be hot-swapped onto the serving path
// with zero locks on reads (see Learned.SetModel).
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

// Describe renders a one-line summary of a detector tree, for status pages.
func Describe(d Detector) string {
	switch t := d.(type) {
	case *chain:
		names := make([]string, len(t.members))
		for i, m := range t.members {
			names[i] = Describe(m)
		}
		return t.name + "(" + strings.Join(names, " → ") + ")"
	default:
		return d.Name()
	}
}
