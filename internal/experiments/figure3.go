package experiments

import (
	"fmt"
	"strings"

	"botdetect/internal/cdn"
	"botdetect/internal/core"
	"botdetect/internal/metrics"
	"botdetect/internal/rng"
	"botdetect/internal/workload"
)

// Figure3Result is the regenerated operational timeline: monthly abuse
// complaints before and after the detector (plus aggressive rate limiting)
// is deployed on the simulated CDN.
type Figure3Result struct {
	// Complaints holds robot- and human-attributed complaints per month.
	Complaints []cdn.MonthlyComplaints
	// MeasuredBlockedFraction is the fraction of robot requests the policy
	// engine blocked or throttled in the calibration run; it feeds the
	// post-deployment complaint volume.
	MeasuredBlockedFraction float64
	// PeakBeforeDeployment and TotalRobotAfterDeployment summarise the curve.
	PeakBeforeDeployment      int
	TotalRobotAfterDeployment int
	// ReductionFactor is peak-month complaints divided by the mean monthly
	// robot complaints after deployment (the paper reports roughly 10x).
	ReductionFactor float64
	// DeploymentMonthIndex is when the browser-test detector went live
	// (late August 2005 = index 8 in the timeline).
	DeploymentMonthIndex int
}

// Figure3 regenerates the complaint timeline. The robot-blocking
// effectiveness is not assumed: it is measured by running the same robot mix
// through the simulator with enforcement enabled and counting how much robot
// traffic still gets through.
func Figure3(scale Scale) Figure3Result {
	scale = scale.withDefaults()

	// Calibration: how much abusive robot traffic does the deployment
	// suppress? Run a robot-only workload and measure, per robot session,
	// the share of its requests issued after the detector had classified it
	// (those are the requests the post-classification rate limiting and
	// blocking of Section 3.2 suppress).
	calibSessions := scale.Sessions / 4
	if calibSessions < 40 {
		calibSessions = 40
	}
	calib := workload.Run(workload.Config{
		Sessions: calibSessions, Seed: scale.Seed ^ 0xf3a, Mix: workload.RobotOnlyMix(),
		RobotRequests: 80,
	})
	var totalRobotReqs, suppressedReqs float64
	for _, s := range calib.Sessions {
		if s.IsHuman() {
			continue
		}
		totalRobotReqs += float64(s.Snapshot.Counts.Total)
		if s.Verdict.Class == core.ClassRobot && int64(s.Snapshot.Counts.Total) > s.Verdict.AtRequest {
			suppressedReqs += float64(int64(s.Snapshot.Counts.Total) - s.Verdict.AtRequest)
		}
	}
	blockedFraction := 0.0
	if totalRobotReqs > 0 {
		blockedFraction = suppressedReqs / totalRobotReqs
	}

	const deploymentMonth = 8 // late August 2005
	const mouseMonth = 12     // January 2006
	volumes := cdn.DeploymentTimeline(100, 300, 1, deploymentMonth, mouseMonth,
		2.0e6, 0.6, blockedFraction, 0.5)
	model := cdn.ComplaintModel{
		RequestsPerComplaint: 7.5e7,
		BaselineHuman:        0.8,
		Src:                  rng.New(scale.Seed ^ 0x2005),
	}
	complaints := model.Complaints(cdn.Months2005, volumes)

	out := Figure3Result{
		Complaints:              complaints,
		MeasuredBlockedFraction: blockedFraction,
		DeploymentMonthIndex:    deploymentMonth,
	}
	for i, m := range complaints {
		if i < deploymentMonth && m.Robot > out.PeakBeforeDeployment {
			out.PeakBeforeDeployment = m.Robot
		}
		if i >= deploymentMonth+1 {
			out.TotalRobotAfterDeployment += m.Robot
		}
	}
	monthsAfter := len(complaints) - (deploymentMonth + 1)
	if monthsAfter > 0 && out.TotalRobotAfterDeployment >= 0 {
		meanAfter := float64(out.TotalRobotAfterDeployment) / float64(monthsAfter)
		if meanAfter > 0 {
			out.ReductionFactor = float64(out.PeakBeforeDeployment) / meanAfter
		} else {
			out.ReductionFactor = float64(out.PeakBeforeDeployment)
		}
	}
	return out
}

// Format renders the result as text.
func (r Figure3Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 3 — CoDeeN abuse complaints per month (simulated 2005 timeline)\n")
	fmt.Fprintf(&sb, "  measured robot traffic blocked/throttled after deployment: %s%%\n", metrics.Pct(r.MeasuredBlockedFraction))
	t := metrics.NewTable("", "Month", "Robot complaints", "Human complaints", "Total")
	for i, m := range r.Complaints {
		marker := ""
		if i == r.DeploymentMonthIndex {
			marker = " <- detector deployed"
		}
		t.AddRow(m.Month, fmt.Sprintf("%d", m.Robot), fmt.Sprintf("%d", m.Human), fmt.Sprintf("%d%s", m.Total(), marker))
	}
	sb.WriteString(t.Format())
	fmt.Fprintf(&sb, "Peak robot complaints before deployment: %d\n", r.PeakBeforeDeployment)
	fmt.Fprintf(&sb, "Robot complaints after deployment (total %d months): %d\n",
		len(r.Complaints)-(r.DeploymentMonthIndex+1), r.TotalRobotAfterDeployment)
	fmt.Fprintf(&sb, "Reduction factor (peak / mean after): %.1fx (paper ~10x)\n", r.ReductionFactor)
	return sb.String()
}
