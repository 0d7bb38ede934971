// Package adaboost implements the boosting-based detector evaluated in
// Section 4.2 of the paper: AdaBoost over decision stumps, trained for 200
// rounds on the 12 per-session attributes of Table 2, with CAPTCHA-verified
// sessions as ground truth. The implementation is the classic discrete
// AdaBoost of Freund & Schapire as summarised in the paper's reference [5].
package adaboost

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"botdetect/internal/features"
	"botdetect/internal/rng"
)

// Stump is a one-level decision tree over a single attribute: it predicts
// "human" when Polarity*(x[Feature] - Threshold) > 0 and "robot" otherwise.
type Stump struct {
	// Feature is the attribute index (see package features).
	Feature int
	// Threshold is the split point.
	Threshold float64
	// Polarity is +1 or -1 and orients the split.
	Polarity int
}

// predict returns +1 (human) or -1 (robot).
func (s Stump) predict(x features.Vector) int {
	v := x[s.Feature] - s.Threshold
	if float64(s.Polarity)*v > 0 {
		return 1
	}
	return -1
}

// Model is a trained boosted ensemble.
type Model struct {
	// Stumps are the weak learners in training order.
	Stumps []Stump
	// Alphas are the corresponding ensemble weights.
	Alphas []float64
	// TrainingError is the ensemble's final error on the training set.
	TrainingError float64
}

// Config controls training.
type Config struct {
	// Rounds is the number of boosting rounds (paper: 200).
	Rounds int
}

// candidateThresholds is the number of candidate thresholds examined per
// attribute per round (evenly spaced over the attribute's observed range).
// More thresholds fit tighter stumps at higher training cost.
const candidateThresholds = 32

func (c Config) withDefaults() Config {
	if c.Rounds <= 0 {
		c.Rounds = 200
	}
	return c
}

// ErrNoExamples is returned when Train is called with an empty training set.
var ErrNoExamples = errors.New("adaboost: no training examples")

// ErrSingleClass is returned when all training examples share one label; a
// discriminative model cannot be fit.
var ErrSingleClass = errors.New("adaboost: training set contains a single class")

// Train fits a boosted stump ensemble to the labelled examples.
func Train(examples []features.Example, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	n := len(examples)
	if n == 0 {
		return nil, ErrNoExamples
	}
	humans, robots := 0, 0
	for _, e := range examples {
		if e.Human {
			humans++
		} else {
			robots++
		}
	}
	if humans == 0 || robots == 0 {
		return nil, ErrSingleClass
	}

	labels := make([]int, n)
	for i, e := range examples {
		if e.Human {
			labels[i] = 1
		} else {
			labels[i] = -1
		}
	}

	// Candidate thresholds per feature: evenly spaced between min and max.
	candidates := buildCandidates(examples, candidateThresholds)

	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 / float64(n)
	}

	model := &Model{}
	for round := 0; round < cfg.Rounds; round++ {
		stump, err := bestStump(examples, labels, weights, candidates)
		if err >= 0.5 {
			// No weak learner better than chance under the current weights.
			break
		}
		if err < 1e-12 {
			err = 1e-12
		}
		alpha := 0.5 * math.Log((1-err)/err)
		model.Stumps = append(model.Stumps, stump)
		model.Alphas = append(model.Alphas, alpha)

		// Re-weight: misclassified examples gain weight.
		sum := 0.0
		for i := range weights {
			pred := stump.predict(examples[i].X)
			weights[i] *= math.Exp(-alpha * float64(labels[i]*pred))
			sum += weights[i]
		}
		if sum <= 0 {
			break
		}
		for i := range weights {
			weights[i] /= sum
		}
		// Perfect separation: further rounds only rescale alphas.
		if err <= 1e-12 {
			break
		}
	}
	if len(model.Stumps) == 0 {
		// Degenerate data (e.g. identical vectors with mixed labels): fall
		// back to a majority-class stump so Predict still works.
		majorityHuman := humans >= robots
		pol := -1
		if majorityHuman {
			pol = 1
		}
		model.Stumps = append(model.Stumps, Stump{Feature: 0, Threshold: -1, Polarity: pol})
		model.Alphas = append(model.Alphas, 1)
	}

	// Final training error.
	wrong := 0
	for i, e := range examples {
		if model.Predict(e.X) != (labels[i] == 1) {
			wrong++
		}
	}
	model.TrainingError = float64(wrong) / float64(n)
	return model, nil
}

// buildCandidates returns, per feature, the candidate thresholds.
func buildCandidates(examples []features.Example, k int) [features.NumAttributes][]float64 {
	var out [features.NumAttributes][]float64
	for f := 0; f < features.NumAttributes; f++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, e := range examples {
			v := e.X[f]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if !(hi > lo) {
			out[f] = []float64{lo - 1e-9}
			continue
		}
		cands := make([]float64, 0, k)
		for i := 0; i <= k; i++ {
			cands = append(cands, lo+(hi-lo)*float64(i)/float64(k)-1e-12)
		}
		out[f] = cands
	}
	return out
}

// bestStump finds the stump minimising weighted error.
func bestStump(examples []features.Example, labels []int, weights []float64, candidates [features.NumAttributes][]float64) (Stump, float64) {
	best := Stump{Feature: 0, Threshold: 0, Polarity: 1}
	bestErr := math.Inf(1)
	for f := 0; f < features.NumAttributes; f++ {
		for _, thr := range candidates[f] {
			// Polarity +1: predict human when value > threshold.
			errPos := 0.0
			for i := range examples {
				pred := -1
				if examples[i].X[f] > thr {
					pred = 1
				}
				if pred != labels[i] {
					errPos += weights[i]
				}
			}
			errNeg := 1 - errPos // flipping polarity flips every decision
			if errPos < bestErr {
				bestErr = errPos
				best = Stump{Feature: f, Threshold: thr, Polarity: 1}
			}
			if errNeg < bestErr {
				bestErr = errNeg
				best = Stump{Feature: f, Threshold: thr, Polarity: -1}
			}
		}
	}
	return best, bestErr
}

// Score returns the ensemble margin for the vector; positive means human.
func (m *Model) Score(x features.Vector) float64 {
	s := 0.0
	for i, st := range m.Stumps {
		s += m.Alphas[i] * float64(st.predict(x))
	}
	return s
}

// Predict reports whether the vector is classified as a human session.
func (m *Model) Predict(x features.Vector) bool { return m.Score(x) > 0 }

// Rounds returns the number of boosting rounds actually used.
func (m *Model) Rounds() int { return len(m.Stumps) }

// Accuracy returns the fraction of examples classified correctly.
func (m *Model) Accuracy(examples []features.Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	for _, e := range examples {
		if m.Predict(e.X) == e.Human {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// FeatureImportance returns, per attribute, the total |alpha| mass of stumps
// splitting on it, normalised to sum to 1. The paper reports RESPCODE 3XX %,
// REFERRER % and UNSEEN REFERRER % as the most contributing attributes.
func (m *Model) FeatureImportance() [features.NumAttributes]float64 {
	var imp [features.NumAttributes]float64
	total := 0.0
	for i, st := range m.Stumps {
		a := math.Abs(m.Alphas[i])
		imp[st.Feature] += a
		total += a
	}
	if total > 0 {
		for i := range imp {
			imp[i] /= total
		}
	}
	return imp
}

// TopFeatures returns the k most important attribute indices in decreasing
// order of importance.
func (m *Model) TopFeatures(k int) []int {
	imp := m.FeatureImportance()
	idx := make([]int, features.NumAttributes)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return imp[idx[a]] > imp[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// String summarises the model.
func (m *Model) String() string {
	return fmt.Sprintf("adaboost.Model{rounds=%d, trainError=%.4f}", m.Rounds(), m.TrainingError)
}

// Split partitions examples into a training and a test set, drawing
// trainFraction of each class uniformly at random (the paper splits each
// class into equal halves at random). The input slice is not modified.
func Split(examples []features.Example, trainFraction float64, seed uint64) (train, test []features.Example) {
	if trainFraction < 0 {
		trainFraction = 0
	}
	if trainFraction > 1 {
		trainFraction = 1
	}
	src := rng.New(seed).Fork("adaboost-split")
	byClass := map[bool][]features.Example{}
	for _, e := range examples {
		byClass[e.Human] = append(byClass[e.Human], e)
	}
	for _, class := range []bool{true, false} {
		group := byClass[class]
		perm := src.Perm(len(group))
		cut := int(math.Round(trainFraction * float64(len(group))))
		for i, p := range perm {
			if i < cut {
				train = append(train, group[p])
			} else {
				test = append(test, group[p])
			}
		}
	}
	return train, test
}
