package detect

import (
	"sync/atomic"

	"botdetect/internal/adaboost"
)

// Learned holds the trained AdaBoost ensemble of Section 4.2 that the verdict
// table's learned rows consult. The model sits behind an atomic pointer:
// SetModel publishes a retrained model with a single pointer store, and the
// serving path loads it with a single pointer load — no lock is ever taken on
// reads, so the online trainer can hot-swap models under full classification
// load.
//
// Each swap advances the model epoch. The verdict a session record stores
// belongs to one session epoch and is served only under the model epoch it
// was derived at, so every stored verdict in the system is implicitly
// invalidated the moment a new model is published.
//
// With no model published the learned rows never fire and the other rows
// decide alone — a zero-value-safe degradation to the paper's rules-only
// deployment.
type Learned struct {
	model atomic.Pointer[adaboost.Model]
	epoch atomic.Uint64
}

// NewLearned creates a Learned with no model published yet.
func NewLearned() *Learned { return &Learned{} }

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
