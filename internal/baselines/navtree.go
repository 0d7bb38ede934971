package baselines

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"botdetect/internal/features"
)

// NavTree is a Tan & Kumar style navigational-pattern classifier: a small
// decision tree (CART with Gini impurity) trained offline on per-session
// attribute vectors. Compared with the paper's real-time techniques it needs
// a relatively large number of requests per session before the attribute
// estimates stabilise, which the benchmark harness demonstrates.
type NavTree struct {
	root *navNode
	// Depth is the maximum depth the tree was allowed to grow to.
	Depth int
}

type navNode struct {
	leaf      bool
	human     bool
	feature   int
	threshold float64
	left      *navNode // feature value <= threshold
	right     *navNode // feature value > threshold
}

const (
	// maxDepth bounds the tree depth.
	maxDepth = 6
	// minLeaf is the minimum number of examples in a leaf.
	minLeaf = 5
)

// ErrNoExamples is returned when training data is empty.
var ErrNoExamples = errors.New("baselines: no training examples")

// TrainNavTree fits the decision tree to the labelled examples.
func TrainNavTree(examples []features.Example) (*NavTree, error) {
	if len(examples) == 0 {
		return nil, ErrNoExamples
	}
	t := &NavTree{Depth: maxDepth}
	t.root = buildNode(examples, 0)
	return t, nil
}

func buildNode(examples []features.Example, depth int) *navNode {
	humans := 0
	for _, e := range examples {
		if e.Human {
			humans++
		}
	}
	majority := humans*2 >= len(examples)
	if depth >= maxDepth || len(examples) < 2*minLeaf || humans == 0 || humans == len(examples) {
		return &navNode{leaf: true, human: majority}
	}

	bestFeature, bestThr, bestGini := -1, 0.0, math.Inf(1)
	for f := 0; f < features.NumAttributes; f++ {
		values := make([]float64, 0, len(examples))
		for _, e := range examples {
			values = append(values, e.X[f])
		}
		sort.Float64s(values)
		for i := 1; i < len(values); i++ {
			if values[i] == values[i-1] {
				continue
			}
			thr := (values[i] + values[i-1]) / 2
			g := splitGini(examples, f, thr)
			if g < bestGini {
				bestGini, bestFeature, bestThr = g, f, thr
			}
		}
	}
	if bestFeature < 0 {
		return &navNode{leaf: true, human: majority}
	}
	var left, right []features.Example
	for _, e := range examples {
		if e.X[bestFeature] <= bestThr {
			left = append(left, e)
		} else {
			right = append(right, e)
		}
	}
	if len(left) < minLeaf || len(right) < minLeaf {
		return &navNode{leaf: true, human: majority}
	}
	return &navNode{
		feature:   bestFeature,
		threshold: bestThr,
		left:      buildNode(left, depth+1),
		right:     buildNode(right, depth+1),
	}
}

// splitGini computes the weighted Gini impurity of splitting on feature f at
// threshold thr.
func splitGini(examples []features.Example, f int, thr float64) float64 {
	var lh, lr, rh, rr float64 // left humans/robots, right humans/robots
	for _, e := range examples {
		if e.X[f] <= thr {
			if e.Human {
				lh++
			} else {
				lr++
			}
		} else {
			if e.Human {
				rh++
			} else {
				rr++
			}
		}
	}
	gini := func(h, r float64) float64 {
		n := h + r
		if n == 0 {
			return 0
		}
		ph := h / n
		pr := r / n
		return 1 - ph*ph - pr*pr
	}
	total := lh + lr + rh + rr
	if total == 0 {
		return 0
	}
	return (lh+lr)/total*gini(lh, lr) + (rh+rr)/total*gini(rh, rr)
}

// Predict reports whether the attribute vector is classified as human.
func (t *NavTree) Predict(x features.Vector) bool {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.human
}

// Accuracy returns the fraction of examples classified correctly.
func (t *NavTree) Accuracy(examples []features.Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	correct := 0
	for _, e := range examples {
		if t.Predict(e.X) == e.Human {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}

// NodeCount returns the number of nodes in the tree.
func (t *NavTree) NodeCount() int { return countNodes(t.root) }

func countNodes(n *navNode) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// String summarises the tree.
func (t *NavTree) String() string {
	return fmt.Sprintf("baselines.NavTree{nodes=%d, maxDepth=%d}", t.NodeCount(), t.Depth)
}
