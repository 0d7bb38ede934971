// Package experiments regenerates the paper's evaluation artifacts — Table 1
// (session breakdown), the Section 3.1 human-share bounds, Figure 2
// (detection latency CDFs), Figure 3 (abuse complaints timeline), Table 2
// (AdaBoost attributes), Figure 4 (AdaBoost accuracy vs. request prefix),
// the Section 3.2 overhead measurements, the CAPTCHA cross-validation, and
// the repository's own ablations (decoy count, feature importance, baseline
// comparison). Each experiment returns a structured result plus a formatted
// text rendering, and is driven both by cmd/botbench and by the top-level
// benchmark suite.
package experiments

import (
	"fmt"
	"strings"

	"botdetect/internal/detect/rules"
	"botdetect/internal/metrics"
	"botdetect/internal/session"
	"botdetect/internal/workload"
)

// Scale selects how much synthetic traffic an experiment generates.
type Scale struct {
	// Sessions is the number of agent sessions.
	Sessions int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultScale is used when a zero Scale is passed: big enough for stable
// shares, small enough to run in seconds.
func DefaultScale() Scale { return Scale{Sessions: 400, Seed: 2006} }

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Sessions <= 0 {
		s.Sessions = d.Sessions
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	return s
}

// Table1Result is the regenerated session breakdown plus the combining-rule
// bounds of Section 3.1 and the ground-truth error rates the synthetic
// workload makes measurable.
type Table1Result struct {
	// Breakdown is the Table 1 signal breakdown over sessions with more than
	// ten requests.
	Breakdown rules.SetBreakdown
	// PaperCSS etc. are the shares reported in the paper, for side-by-side
	// printing.
	PaperCSS, PaperJS, PaperMouse, PaperCaptcha, PaperHidden, PaperUAMismatch float64
	// LowerBound, UpperBound, MaxFPR are the Section 3.1 bounds.
	LowerBound, UpperBound, MaxFPR float64
	// TrueHumanShare is the ground-truth share of human sessions.
	TrueHumanShare float64
	// TrueFPR is the measured false positive rate of the combining rule
	// against ground truth (classified human but actually robot / robots).
	TrueFPR float64
	// TrueFNR is the measured false negative rate against ground truth.
	TrueFNR float64
	// TotalSessions is the number of sessions considered.
	TotalSessions int
}

// Table1 regenerates Table 1 and the Section 3.1 bounds from a synthetic
// CoDeeN-mix workload.
func Table1(scale Scale) Table1Result {
	scale = scale.withDefaults()
	res := workload.Run(workload.Config{Sessions: scale.Sessions, Seed: scale.Seed})
	return table1From(res)
}

func table1From(res *workload.Result) Table1Result {
	snaps := res.Snapshots()
	b := rules.Breakdown(snaps, 10)

	var cm metrics.ConfusionMatrix
	humans := 0
	considered := 0
	for _, s := range res.Sessions {
		if s.Snapshot.Counts.Total <= 10 {
			continue
		}
		considered++
		if s.IsHuman() {
			humans++
		}
		cm.Record(rules.InHumanSet(s.Snapshot), s.IsHuman())
	}
	out := Table1Result{
		Breakdown:       b,
		PaperCSS:        0.289,
		PaperJS:         0.271,
		PaperMouse:      0.223,
		PaperCaptcha:    0.091,
		PaperHidden:     0.010,
		PaperUAMismatch: 0.007,
		LowerBound:      b.HumanLowerBound(),
		UpperBound:      b.HumanUpperBound(),
		MaxFPR:          b.MaxFalsePositiveRate(),
		TotalSessions:   b.Total,
		TrueFPR:         cm.FalsePositiveRate(),
		TrueFNR:         cm.FalseNegativeRate(),
	}
	if considered > 0 {
		out.TrueHumanShare = float64(humans) / float64(considered)
	}
	return out
}

// Format renders the result as text.
func (r Table1Result) Format() string {
	var sb strings.Builder
	t := metrics.NewTable("Table 1 — session breakdown (sessions with > 10 requests)",
		"Description", "# of Sessions", "Measured %", "Paper %")
	row := func(name string, n int, measured, paper float64) {
		t.AddRow(name, fmt.Sprintf("%d", n), metrics.Pct(measured), metrics.Pct(paper))
	}
	b := r.Breakdown
	row("Downloaded CSS", b.CSS, b.CSSFraction(), r.PaperCSS)
	row("Executed JavaScript", b.JS, b.JSFraction(), r.PaperJS)
	row("Mouse movement detected", b.Mouse, b.MouseFraction(), r.PaperMouse)
	row("Passed CAPTCHA test", b.Captcha, b.CaptchaFraction(), r.PaperCaptcha)
	row("Followed hidden links", b.Hidden, b.HiddenFraction(), r.PaperHidden)
	row("Browser type mismatch", b.UAMismatch, b.UAMismatchFraction(), r.PaperUAMismatch)
	t.AddRow("Total sessions", fmt.Sprintf("%d", b.Total), "100.0", "100.0")
	sb.WriteString(t.Format())
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "Human-share lower bound (mouse):   %s%% (paper 22.3%%)\n", metrics.Pct(r.LowerBound))
	fmt.Fprintf(&sb, "Human-share upper bound (S_H):     %s%% (paper 24.2%%)\n", metrics.Pct(r.UpperBound))
	fmt.Fprintf(&sb, "Max false positive rate (bound):   %s%% (paper 2.4%%)\n", metrics.Pct(r.MaxFPR))
	fmt.Fprintf(&sb, "Ground-truth human share:          %s%%\n", metrics.Pct(r.TrueHumanShare))
	fmt.Fprintf(&sb, "Ground-truth FPR of S_H rule:      %s%%\n", metrics.Pct(r.TrueFPR))
	fmt.Fprintf(&sb, "Ground-truth FNR of S_H rule:      %s%%\n", metrics.Pct(r.TrueFNR))
	return sb.String()
}

// CaptchaCrossResult cross-validates the instrumentation against
// CAPTCHA-verified humans (Section 3.1): among sessions that passed the
// CAPTCHA, the share that executed JavaScript and the share that fetched the
// stylesheet. The gap is the JavaScript-disabled population.
type CaptchaCrossResult struct {
	// CaptchaSessions is the number of CAPTCHA-passing sessions.
	CaptchaSessions int
	// RanJS and FetchedCSS are shares of CaptchaSessions.
	RanJS      float64
	FetchedCSS float64
	// JSDisabledShare is FetchedCSS − RanJS, the paper's 3.4%.
	JSDisabledShare float64
	// PaperRanJS, PaperFetchedCSS are the published values.
	PaperRanJS, PaperFetchedCSS float64
}

// CaptchaCross regenerates the CAPTCHA cross-validation numbers.
func CaptchaCross(scale Scale) CaptchaCrossResult {
	scale = scale.withDefaults()
	res := workload.Run(workload.Config{Sessions: scale.Sessions, Seed: scale.Seed ^ 0xc4})
	return captchaCrossFrom(res)
}

func captchaCrossFrom(res *workload.Result) CaptchaCrossResult {
	out := CaptchaCrossResult{PaperRanJS: 0.958, PaperFetchedCSS: 0.992}
	js, css := 0, 0
	for _, s := range res.Sessions {
		if !s.Snapshot.Signals.Has(session.SignalCaptcha) {
			continue
		}
		out.CaptchaSessions++
		if s.Snapshot.Signals.Has(session.SignalJS) {
			js++
		}
		if s.Snapshot.Signals.Has(session.SignalCSS) {
			css++
		}
	}
	if out.CaptchaSessions > 0 {
		out.RanJS = float64(js) / float64(out.CaptchaSessions)
		out.FetchedCSS = float64(css) / float64(out.CaptchaSessions)
	}
	out.JSDisabledShare = out.FetchedCSS - out.RanJS
	return out
}

// Format renders the result as text.
func (r CaptchaCrossResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CAPTCHA cross-validation (%d CAPTCHA-verified sessions)\n", r.CaptchaSessions)
	fmt.Fprintf(&sb, "  executed JavaScript: %s%% (paper 95.8%%)\n", metrics.Pct(r.RanJS))
	fmt.Fprintf(&sb, "  fetched stylesheet:  %s%% (paper 99.2%%)\n", metrics.Pct(r.FetchedCSS))
	fmt.Fprintf(&sb, "  JavaScript disabled: %s%% (paper ~3.4%%)\n", metrics.Pct(r.JSDisabledShare))
	return sb.String()
}
