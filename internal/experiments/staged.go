package experiments

import (
	"fmt"
	"strings"

	"botdetect/internal/adaboost"
	"botdetect/internal/core"
	"botdetect/internal/detect"
	"botdetect/internal/detect/rules"
	"botdetect/internal/features"
	"botdetect/internal/metrics"
	"botdetect/internal/workload"
)

// AblationSignalsResult quantifies what each term of the combining rule
// contributes by evaluating rule variants (CSS only, mouse only, the union,
// and the full rule with the S_JS − S_MM subtraction) against ground truth on
// the same workload. Each variant is a row mask over the verdict table
// (rules.Variants).
type AblationSignalsResult struct {
	Rows []SignalRuleRow
}

// SignalRuleRow is one rule variant's measured quality.
type SignalRuleRow struct {
	// Rule names the variant.
	Rule string
	// Accuracy, FPR, FNR are measured against ground truth over sessions
	// with more than ten requests.
	Accuracy float64
	FPR      float64
	FNR      float64
}

// AblationSignals evaluates the combining-rule variants.
func AblationSignals(scale Scale) AblationSignalsResult {
	scale = scale.withDefaults()
	res := workload.Run(workload.Config{Sessions: scale.Sessions, Seed: scale.Seed ^ 0x51a})

	var out AblationSignalsResult
	for _, variant := range rules.Variants {
		var cm metrics.ConfusionMatrix
		for _, s := range res.Sessions {
			if s.Snapshot.Counts.Total <= 10 {
				continue
			}
			cm.Record(rules.InSet(variant.Rows, &s.Snapshot), s.IsHuman())
		}
		out.Rows = append(out.Rows, SignalRuleRow{
			Rule:     variant.Name,
			Accuracy: cm.Accuracy(),
			FPR:      cm.FalsePositiveRate(),
			FNR:      cm.FalseNegativeRate(),
		})
	}
	return out
}

// Format renders the result as text.
func (r AblationSignalsResult) Format() string {
	t := metrics.NewTable("Ablation — combining-rule variants (sessions with > 10 requests)",
		"Rule", "Accuracy (%)", "FPR (%)", "FNR (%)")
	for _, row := range r.Rows {
		t.AddRow(row.Rule,
			fmt.Sprintf("%.1f", row.Accuracy*100),
			fmt.Sprintf("%.1f", row.FPR*100),
			fmt.Sprintf("%.1f", row.FNR*100))
	}
	return t.Format()
}

// StagedResult evaluates the staged design the paper sketches in Section 4.1:
// make a quick decision with the fast, cheap rules (the combining rule's
// direct evidence and browser test) and fall back to the heavier AdaBoost
// classifier only for the boundary cases the fast path cannot decide.
type StagedResult struct {
	Rows []StagedRow
	// FastPathShare is the fraction of sessions the fast path decided on its
	// own in the staged configuration.
	FastPathShare float64
}

// StagedRow is one detector configuration's measured quality.
type StagedRow struct {
	Name     string
	Accuracy float64
	FPR      float64
	FNR      float64
}

// Staged compares rules-only, machine-learning-only, and the staged
// combination on one workload. The ML stage is trained on a disjoint
// workload (different seed) so its accuracy is honest.
func Staged(scale Scale) StagedResult {
	scale = scale.withDefaults()

	// Training workload for the ML stage.
	trainRes := workload.Run(workload.Config{Sessions: scale.Sessions, Seed: scale.Seed ^ 0x7a11, RecordLogs: false})
	var trainExamples []features.Example
	for _, s := range trainRes.Sessions {
		if s.Snapshot.Counts.Total <= 10 {
			continue
		}
		trainExamples = append(trainExamples, features.Example{X: s.Snapshot.Counts.Vector(), Human: s.IsHuman()})
	}
	model, err := adaboost.Train(trainExamples, adaboost.Config{Rounds: 200})
	if err != nil {
		return StagedResult{}
	}

	// Evaluation workload.
	evalRes := workload.Run(workload.Config{Sessions: scale.Sessions, Seed: scale.Seed ^ 0x7a12})

	// The staged configuration is the serving table itself under a row mask
	// — direct evidence, then the learned model — so this ablation measures
	// exactly the rows deployment would deploy.
	learned := detect.NewLearned()
	learned.SetModel(model)
	staged := detect.New(detect.DirectRows|detect.LearnedRows, 10, learned, nil)

	var rulesCM, mlCM, stagedCM metrics.ConfusionMatrix
	fastDecided, total := 0, 0
	for _, s := range evalRes.Sessions {
		if s.Snapshot.Counts.Total <= 10 {
			continue
		}
		total++
		isHuman := s.IsHuman()
		mlSaysHuman := model.Predict(s.Snapshot.Counts.Vector())

		// Rules only: the detector's verdict, undecided counted as robot.
		rulesCM.Record(s.Verdict.Class == core.ClassHuman, isHuman)
		// ML only.
		mlCM.Record(mlSaysHuman, isHuman)
		// Staged: run the rows; a definite verdict means the direct-evidence
		// fast path decided, everything else fell through to the ML stage.
		v, ok := staged.Detect(&s.Snapshot)
		if ok && v.Confidence == core.Definite {
			fastDecided++
		}
		stagedCM.Record(ok && v.Class == core.ClassHuman, isHuman)
	}

	out := StagedResult{Rows: []StagedRow{
		{Name: "rules only (combining rule)", Accuracy: rulesCM.Accuracy(), FPR: rulesCM.FalsePositiveRate(), FNR: rulesCM.FalseNegativeRate()},
		{Name: "AdaBoost only", Accuracy: mlCM.Accuracy(), FPR: mlCM.FalsePositiveRate(), FNR: mlCM.FalseNegativeRate()},
		{Name: "staged (rules, then AdaBoost)", Accuracy: stagedCM.Accuracy(), FPR: stagedCM.FalsePositiveRate(), FNR: stagedCM.FalseNegativeRate()},
	}}
	if total > 0 {
		out.FastPathShare = float64(fastDecided) / float64(total)
	}
	return out
}

// Format renders the result as text.
func (r StagedResult) Format() string {
	var sb strings.Builder
	t := metrics.NewTable("Staged detection (Section 4.1 extension)",
		"Configuration", "Accuracy (%)", "FPR (%)", "FNR (%)")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.1f", row.Accuracy*100),
			fmt.Sprintf("%.1f", row.FPR*100),
			fmt.Sprintf("%.1f", row.FNR*100))
	}
	sb.WriteString(t.Format())
	fmt.Fprintf(&sb, "fast path decided %.1f%% of sessions without invoking the ML stage\n", r.FastPathShare*100)
	return sb.String()
}
