package experiments

import (
	"fmt"
	"strings"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/cdn"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/detect"
	"botdetect/internal/detect/rules"
	"botdetect/internal/features"
	"botdetect/internal/metrics"
	"botdetect/internal/workload"
)

// OnlineLoopResult is the end-to-end evaluation of the online training loop:
// a serving fleet accumulates labelled outcomes (CAPTCHA and beacon
// confirmations plus workload ground-truth labels), retrains the AdaBoost
// model from them, hot-swaps it onto a fleet serving a held-out mix while
// traffic flows, and is scored against the offline-trained
// machine-learning baseline on the very same held-out sessions.
type OnlineLoopResult struct {
	// TrainingSessions and HeldOutSessions count labelled sessions (> 10
	// requests) in the two workloads.
	TrainingSessions int
	HeldOutSessions  int
	// SelfLabelled is the number of outcomes the serving engines collected
	// on their own (CAPTCHA passes, beacon-confirmed input events, decoy /
	// replay / hidden-link / forged-UA hits) during the training run.
	SelfLabelled int
	// OutcomesTotal is the full training-set size after workload
	// ground-truth labels were fed back.
	OutcomesTotal int
	// ModelRounds is the boosting rounds of the hot-swapped model.
	ModelRounds int
	// SwapAt is the virtual time into the held-out run at which the model
	// was published to the serving fleet.
	SwapAt time.Duration
	// OnlineAccuracy/FPR/FNR score the held-out run's own verdicts — the
	// full serving table (direct evidence → hot-swapped model → browser
	// test) — against ground truth.
	OnlineAccuracy float64
	OnlineFPR      float64
	OnlineFNR      float64
	// OfflineMLAccuracy is the offline experiments baseline on the same
	// held-out sessions: an AdaBoost ensemble trained offline on the
	// training workload's ground-truth examples, applied alone.
	OfflineMLAccuracy float64
	// RulesOnlyAccuracy applies the rules-only serving table to the same
	// held-out sessions, for reference.
	RulesOnlyAccuracy float64
}

// OnlineLoop closes the loop the tentpole architecture enables: serve,
// accumulate labelled outcomes, retrain, hot-swap, and measure on a held-out
// mix. The held-out workload uses a different seed and a shifted agent mix,
// so the comparison is out of distribution for both models.
func OnlineLoop(scale Scale) OnlineLoopResult {
	scale = scale.withDefaults()
	out := OnlineLoopResult{SwapAt: 30 * time.Second}

	// Phase 1 — serve the training mix. The fleet's engines label outcomes
	// from the instrumentation itself as the run progresses.
	trainRes := workload.Run(workload.Config{Sessions: scale.Sessions, Seed: scale.Seed ^ 0x0417})

	// Aggregate the fleet's self-collected outcomes, the way a deployment
	// pools per-node training material.
	agg := core.New(core.Config{OutcomeCapacity: 1 << 16})
	for _, node := range trainRes.Network.Nodes() {
		for _, ex := range node.Engine().Outcomes() {
			agg.RecordOutcomeVector(ex.X, ex.Human)
		}
	}
	out.SelfLabelled = agg.OutcomeCount()

	// Feed back workload ground truth (the paper's CAPTCHA-verified labels,
	// stood in by the simulator's known agent kinds), exactly as confirmed
	// abuse reports and verified humans would be fed back in production.
	for _, s := range trainRes.Sessions {
		if s.Snapshot.Counts.Total > 10 {
			agg.RecordOutcomeVector(s.Snapshot.Counts.Vector(), s.IsHuman())
			out.TrainingSessions++
		}
	}
	out.OutcomesTotal = agg.OutcomeCount()

	// Retrain from the accumulated outcomes; this also hot-swaps the model
	// into agg (unused further) and hands it to us for the fleet swap.
	model, err := agg.RetrainFromOutcomes(adaboost.Config{Rounds: 200})
	if err != nil {
		return out
	}
	out.ModelRounds = model.Rounds()

	// The offline experiments baseline: AdaBoost fitted the classic way, on
	// the training workload's ground-truth examples only.
	offline, offlineErr := adaboost.Train(groundTruthExamples(trainRes), adaboost.Config{Rounds: 200})

	// Phase 2 — serve a held-out, shifted mix and hot-swap the retrained
	// model onto the live fleet at a virtual half minute into the run.
	mix := workload.CoDeeNMix()
	mix.EmailHarvester, mix.ClickFraud = mix.ClickFraud, mix.EmailHarvester
	mix.ReferrerSpammer *= 0.8
	mix.SmartBot *= 1.5
	evalRes := workload.Run(workload.Config{
		Sessions: scale.Sessions,
		Seed:     scale.Seed ^ 0x0e7a,
		Mix:      mix,
		Prepare: func(net *cdn.Network, vc *clock.Virtual) {
			vc.Schedule(out.SwapAt, func(time.Time) { net.SetModel(model) })
		},
	})

	rulesOnly := rules.Serving(10, nil)
	var onlineCM, offlineCM, rulesCM metrics.ConfusionMatrix
	for _, s := range evalRes.Sessions {
		if s.Snapshot.Counts.Total <= 10 {
			continue
		}
		out.HeldOutSessions++
		isHuman := s.IsHuman()
		// Online: the verdict the serving table itself produced (undecided
		// counted as robot, matching the other experiments).
		onlineCM.Record(s.Verdict.Class == detect.ClassHuman, isHuman)
		// Offline baseline: the offline model alone on the same session.
		if offlineErr == nil {
			offlineCM.Record(offline.Predict(s.Snapshot.Counts.Vector()), isHuman)
		}
		// Rules-only reference.
		if v, ok := rulesOnly.Detect(&s.Snapshot); ok {
			rulesCM.Record(v.Class == detect.ClassHuman, isHuman)
		} else {
			rulesCM.Record(false, isHuman)
		}
	}
	out.OnlineAccuracy = onlineCM.Accuracy()
	out.OnlineFPR = onlineCM.FalsePositiveRate()
	out.OnlineFNR = onlineCM.FalseNegativeRate()
	if offlineErr == nil {
		out.OfflineMLAccuracy = offlineCM.Accuracy()
	}
	out.RulesOnlyAccuracy = rulesCM.Accuracy()
	return out
}

// groundTruthExamples builds the offline training set the earlier
// experiments use: one example per labelled session with > 10 requests.
func groundTruthExamples(res *workload.Result) []features.Example {
	var out []features.Example
	for _, s := range res.Sessions {
		if s.Snapshot.Counts.Total > 10 {
			out = append(out, features.Example{X: s.Snapshot.Counts.Vector(), Human: s.IsHuman()})
		}
	}
	return out
}

// Format renders the result as text.
func (r OnlineLoopResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Online training loop — serve, label, retrain, hot-swap, re-measure\n")
	fmt.Fprintf(&sb, "  training sessions: %d (+%d self-labelled outcomes, %d total training examples)\n",
		r.TrainingSessions, r.SelfLabelled, r.OutcomesTotal)
	fmt.Fprintf(&sb, "  model: %d boosting rounds, hot-swapped %s into the held-out run\n", r.ModelRounds, r.SwapAt)
	t := metrics.NewTable("Held-out mix", "Configuration", "Accuracy (%)", "FPR (%)", "FNR (%)")
	t.AddRow("online chain (rules + hot-swapped model)",
		fmt.Sprintf("%.1f", r.OnlineAccuracy*100),
		fmt.Sprintf("%.1f", r.OnlineFPR*100),
		fmt.Sprintf("%.1f", r.OnlineFNR*100))
	t.AddRow("offline AdaBoost baseline", fmt.Sprintf("%.1f", r.OfflineMLAccuracy*100), "", "")
	t.AddRow("rules only", fmt.Sprintf("%.1f", r.RulesOnlyAccuracy*100), "", "")
	sb.WriteString(t.Format())
	fmt.Fprintf(&sb, "held-out sessions: %d\n", r.HeldOutSessions)
	return sb.String()
}
