package detect

import (
	"sync/atomic"

	"botdetect/internal/adaboost"
	"botdetect/internal/session"
)

// Learned wraps the trained AdaBoost ensemble of Section 4.2 as a Detector.
// The model sits behind an atomic pointer: SetModel publishes a retrained
// model with a single pointer store, and the serving path loads it with a
// single pointer load — no lock is ever taken on reads, so the online
// trainer can hot-swap models under full classification load.
//
// Each swap advances the model epoch. The verdict a session record stores
// belongs to one session epoch and is served only under the model epoch it
// was derived at, so every stored verdict in the system is implicitly
// invalidated the moment a new model is published.
//
// With no model published, Learned abstains and the rule detectors decide
// alone — a zero-value-safe degradation to the paper's rules-only deployment.
type Learned struct {
	// MinRequests is the number of requests a session must reach before the
	// statistical model may decide (mirrors the paper building classifiers
	// only from sessions with enough requests).
	MinRequests int64

	model atomic.Pointer[adaboost.Model]
	epoch atomic.Uint64
}

// NewLearned creates a Learned detector with no model published yet.
func NewLearned(minRequests int64) *Learned {
	return &Learned{MinRequests: minRequests}
}

// SetModel atomically publishes m (nil unpublishes, reverting to rules-only
// classification) and advances the model epoch.
func (l *Learned) SetModel(m *adaboost.Model) {
	l.model.Store(m)
	l.epoch.Add(1)
}

// Model returns the currently published model, or nil.
func (l *Learned) Model() *adaboost.Model { return l.model.Load() }

// Epoch returns the model epoch: it advances on every SetModel, and cached
// verdicts from older epochs are never served.
func (l *Learned) Epoch() uint64 { return l.epoch.Load() }

// Name implements Detector.
func (l *Learned) Name() string { return "learned" }

// Fixed reasons keep the hot classify path allocation-free.
const (
	reasonLearnedHuman = "learned model classified the request mix as human"
	reasonLearnedRobot = "learned model classified the request mix as robot"
)

// Detect implements Detector: it scores the session's incrementally
// maintained attribute vector with the published ensemble. It abstains when
// no model is published or the session is too short to have a meaningful
// request mix.
func (l *Learned) Detect(snap *session.Snapshot) (Verdict, bool) {
	m := l.model.Load()
	if m == nil || int64(snap.Counts.Total) < l.MinRequests {
		return Verdict{}, false
	}
	if m.Predict(snap.Features) {
		return Verdict{Class: ClassHuman, Confidence: Probable, Reason: reasonLearnedHuman, AtRequest: int64(snap.Counts.Total)}, true
	}
	return Verdict{Class: ClassRobot, Confidence: Probable, Reason: reasonLearnedRobot, AtRequest: int64(snap.Counts.Total)}, true
}
