package experiments

import (
	"fmt"
	"sort"
	"strings"

	"botdetect/internal/adaboost"
	"botdetect/internal/baselines"
	"botdetect/internal/features"
	"botdetect/internal/logfmt"
	"botdetect/internal/metrics"
	"botdetect/internal/session"
	"botdetect/internal/workload"
)

// Table2Result lists the 12 AdaBoost attributes (Table 2 is definitional).
type Table2Result struct {
	Names        []string
	Descriptions []string
}

// Table2 returns the attribute definitions.
func Table2() Table2Result {
	return Table2Result{Names: features.Names[:], Descriptions: features.Descriptions[:]}
}

// Format renders the table.
func (r Table2Result) Format() string {
	t := metrics.NewTable("Table 2 — attributes used in AdaBoost", "Attribute", "Explanation")
	for i := range r.Names {
		t.AddRow(r.Names[i], r.Descriptions[i])
	}
	return t.Format()
}

// Figure4Point is one x position of Figure 4: the classifier built from the
// first N requests of every session.
type Figure4Point struct {
	// Requests is the prefix length the classifier was built at.
	Requests int
	// TrainAccuracy and TestAccuracy are the ensemble accuracies.
	TrainAccuracy float64
	TestAccuracy  float64
	// TrainExamples and TestExamples are the example counts.
	TrainExamples int
	TestExamples  int
}

// Figure4Result is the accuracy-vs-prefix curve plus the feature-importance
// ranking the paper discusses alongside it.
type Figure4Result struct {
	// Points are the classifiers at 20, 40, ..., 160 requests.
	Points []Figure4Point
	// Rounds is the number of boosting rounds used (paper: 200).
	Rounds int
	// TopAttributes are the most contributing attribute names of the final
	// (longest-prefix) classifier, most important first.
	TopAttributes []string
	// HumanSessions and RobotSessions are the labelled session counts.
	HumanSessions int
	RobotSessions int
	// NavTreeTestAccuracy is the Tan & Kumar style baseline's accuracy on the
	// same final-prefix split, for comparison.
	NavTreeTestAccuracy float64
}

// Figure4 regenerates the machine-learning study: per-session attribute
// vectors are computed over the first N requests (N = 20 ... 160), labelled
// with ground truth (standing in for the paper's CAPTCHA-verified labels),
// split in half at random, and an AdaBoost ensemble with 200 rounds of
// decision stumps is trained per N.
func Figure4(scale Scale) Figure4Result {
	scale = scale.withDefaults()
	// Longer sessions so the larger prefixes are meaningful.
	res := workload.Run(workload.Config{
		Sessions:      scale.Sessions,
		Seed:          scale.Seed ^ 0xf4,
		RecordLogs:    true,
		HumanPages:    30,
		RobotRequests: 170,
	})
	return figure4From(res, scale)
}

func figure4From(res *workload.Result, scale Scale) Figure4Result {
	// Group raw log entries per session key, in time order.
	perSession := make(map[session.Key][]logfmt.Entry)
	var keys []session.Key // in order of first appearance: the examples' order decides the split
	for _, e := range res.Entries {
		key := session.Key{IP: e.ClientIP, UserAgent: e.UserAgent}
		if _, seen := perSession[key]; !seen {
			keys = append(keys, key)
		}
		perSession[key] = append(perSession[key], e)
	}
	for key := range perSession {
		entries := perSession[key]
		sort.SliceStable(entries, func(i, j int) bool { return entries[i].Time.Before(entries[j].Time) })
		perSession[key] = entries
	}

	out := Figure4Result{Rounds: 200}
	prefixes := []int{20, 40, 60, 80, 100, 120, 140, 160}
	var lastModel *adaboost.Model
	var lastExamples []features.Example

	for _, n := range prefixes {
		var examples []features.Example
		humans, robots := 0, 0
		for _, key := range keys {
			entries := perSession[key]
			kind, ok := res.GroundTruth[key]
			if !ok || len(entries) <= 10 {
				continue
			}
			acc := session.NewAccumulator(int64(n))
			for _, e := range entries {
				if !acc.Observe(e) {
					break
				}
			}
			ex := features.Example{X: acc.Vector(), Human: kind.IsHuman()}
			examples = append(examples, ex)
			if ex.Human {
				humans++
			} else {
				robots++
			}
		}
		if humans == 0 || robots == 0 {
			continue
		}
		train, test := adaboost.Split(examples, 0.5, scale.Seed^uint64(n))
		model, err := adaboost.Train(train, adaboost.Config{Rounds: 200})
		if err != nil {
			continue
		}
		out.Points = append(out.Points, Figure4Point{
			Requests:      n,
			TrainAccuracy: model.Accuracy(train),
			TestAccuracy:  model.Accuracy(test),
			TrainExamples: len(train),
			TestExamples:  len(test),
		})
		lastModel = model
		lastExamples = examples
		if n == prefixes[len(prefixes)-1] || out.HumanSessions == 0 {
			out.HumanSessions = humans
			out.RobotSessions = robots
		}
	}

	if lastModel != nil {
		for _, idx := range lastModel.TopFeatures(3) {
			out.TopAttributes = append(out.TopAttributes, features.Names[idx])
		}
		// Baseline: the navigational-pattern decision tree on the same data.
		train, test := adaboost.Split(lastExamples, 0.5, scale.Seed^0x7ee)
		if tree, err := baselines.TrainNavTree(train); err == nil {
			out.NavTreeTestAccuracy = tree.Accuracy(test)
		}
	}
	return out
}

// Format renders the result as text.
func (r Figure4Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 4 — AdaBoost accuracy vs. number of requests the classifier is built at\n")
	fmt.Fprintf(&sb, "  rounds=%d, labelled sessions: %d human / %d robot\n", r.Rounds, r.HumanSessions, r.RobotSessions)
	t := metrics.NewTable("", "Requests", "Training accuracy (%)", "Test accuracy (%)", "Train n", "Test n")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", p.Requests),
			fmt.Sprintf("%.1f", p.TrainAccuracy*100),
			fmt.Sprintf("%.1f", p.TestAccuracy*100),
			fmt.Sprintf("%d", p.TrainExamples), fmt.Sprintf("%d", p.TestExamples))
	}
	sb.WriteString(t.Format())
	fmt.Fprintf(&sb, "Most contributing attributes: %s\n", strings.Join(r.TopAttributes, ", "))
	fmt.Fprintf(&sb, "  (paper: RESPCODE 3XX %%, REFERRER %%, UNSEEN REFERRER %%)\n")
	fmt.Fprintf(&sb, "Tan & Kumar style decision-tree baseline (full prefix): %.1f%% test accuracy\n", r.NavTreeTestAccuracy*100)
	return sb.String()
}

// ShapeHolds reports whether the qualitative Figure 4 claims hold: test
// accuracy stays in the ~90%+ band throughout and does not degrade as the
// classifier sees more requests.
func (r Figure4Result) ShapeHolds() bool {
	if len(r.Points) < 4 {
		return false
	}
	first := r.Points[0].TestAccuracy
	last := r.Points[len(r.Points)-1].TestAccuracy
	if first < 0.85 || last < 0.85 {
		return false
	}
	return last >= first-0.03
}
