package rules

import (
	"botdetect/internal/metrics"
	"botdetect/internal/session"
)

// This file implements the aggregate session-set analysis of Section 3.1:
// the size of the combining rule's S_H (InHumanSet), the lower/upper bounds
// on the human share, the maximum false-positive rate, and the Table 1 style
// breakdown of detection signals over a set of sessions.

// SetBreakdown summarises a session set the way Table 1 does.
type SetBreakdown struct {
	// Total is the number of sessions considered.
	Total int
	// CSS, JS, Mouse, Captcha, Hidden, UAMismatch count sessions exhibiting
	// each signal.
	CSS        int
	JS         int
	Mouse      int
	Captcha    int
	Hidden     int
	UAMismatch int
	// HumanSet is |S_H| under the combining rule.
	HumanSet int
}

// Fraction helpers return shares of the total (0 when the set is empty).

// CSSFraction returns the share of sessions that fetched the stylesheet.
func (b SetBreakdown) CSSFraction() float64 { return frac(b.CSS, b.Total) }

// JSFraction returns the share of sessions that executed the JavaScript.
func (b SetBreakdown) JSFraction() float64 { return frac(b.JS, b.Total) }

// MouseFraction returns the share of sessions with input events — the lower
// bound on the human share.
func (b SetBreakdown) MouseFraction() float64 { return frac(b.Mouse, b.Total) }

// CaptchaFraction returns the share of sessions that passed the CAPTCHA.
func (b SetBreakdown) CaptchaFraction() float64 { return frac(b.Captcha, b.Total) }

// HiddenFraction returns the share of sessions that followed hidden links.
func (b SetBreakdown) HiddenFraction() float64 { return frac(b.Hidden, b.Total) }

// UAMismatchFraction returns the share of sessions with forged User-Agents.
func (b SetBreakdown) UAMismatchFraction() float64 { return frac(b.UAMismatch, b.Total) }

// HumanUpperBound returns |S_H|/total — the upper bound on the human share.
func (b SetBreakdown) HumanUpperBound() float64 { return frac(b.HumanSet, b.Total) }

// HumanLowerBound returns the mouse-event share — the lower bound on the
// human share.
func (b SetBreakdown) HumanLowerBound() float64 { return b.MouseFraction() }

// MaxFalsePositiveRate returns the paper's bound on the false positive rate:
// the gap between the upper and lower bounds divided by the share of
// sessions that are negatives under the lower bound,
// (upper − lower) / (1 − lower).
func (b SetBreakdown) MaxFalsePositiveRate() float64 {
	lower := b.HumanLowerBound()
	upper := b.HumanUpperBound()
	if upper < lower {
		upper = lower
	}
	denom := 1 - lower
	if denom <= 0 {
		return 0
	}
	return (upper - lower) / denom
}

func frac(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// Breakdown computes the Table 1 style summary over a set of sessions,
// considering only sessions with more than minRequests requests (the paper
// uses 10 to reduce noise; pass 0 to include everything).
func Breakdown(sessions []session.Snapshot, minRequests int64) SetBreakdown {
	var b SetBreakdown
	for _, s := range sessions {
		if int64(s.Counts.Total) <= minRequests {
			continue
		}
		b.Total++
		if s.Signals.Has(session.SignalCSS) {
			b.CSS++
		}
		if s.Signals.Has(session.SignalJS) {
			b.JS++
		}
		if s.Signals.Has(session.SignalMouse) {
			b.Mouse++
		}
		if s.Signals.Has(session.SignalCaptcha) {
			b.Captcha++
		}
		if s.Signals.Has(session.SignalHidden) {
			b.Hidden++
		}
		if s.Signals.Has(session.SignalUAMismatch) {
			b.UAMismatch++
		}
		if InHumanSet(s) {
			b.HumanSet++
		}
	}
	return b
}

// Table renders the breakdown as the Table 1 layout.
func (b SetBreakdown) Table() *metrics.Table {
	t := metrics.NewTable("Table 1: session breakdown", "Description", "# of Sessions", "Percentage(%)")
	row := func(name string, n int) {
		t.AddRow(name, itoa(n), metrics.Pct(frac(n, b.Total)))
	}
	row("Downloaded CSS", b.CSS)
	row("Executed JavaScript", b.JS)
	row("Mouse movement detected", b.Mouse)
	row("Passed CAPTCHA test", b.Captcha)
	row("Followed hidden links", b.Hidden)
	row("Browser type mismatch", b.UAMismatch)
	t.AddRow("Total sessions", itoa(b.Total), "100.0")
	return t
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// DetectionLatencies extracts, for each signal of interest, the distribution
// of "requests needed to detect" over the given sessions — the data behind
// Figure 2. Only sessions that exhibit the signal contribute to its CDF.
func DetectionLatencies(sessions []session.Snapshot, signals ...session.Signal) map[session.Signal]*metrics.CDF {
	out := make(map[session.Signal]*metrics.CDF, len(signals))
	for _, sig := range signals {
		out[sig] = &metrics.CDF{}
	}
	for _, s := range sessions {
		for _, sig := range signals {
			if at, ok := s.Signals.At(sig); ok {
				out[sig].Add(float64(at))
			}
		}
	}
	return out
}
