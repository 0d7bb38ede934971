// Package rules holds the paper's combining rule as row masks over the
// verdict table in internal/detect: the serving detector every consumer —
// serving proxy, CDN simulator, offline experiments — builds, the Section 3.1
// set S_H and the ablation variants that drop one of its terms. It also hosts
// the Section 3.1 aggregate analysis (Table 1 breakdowns, Figure 2
// latencies).
package rules

import (
	"botdetect/internal/detect"
	"botdetect/internal/session"
)

// Serving is the serving path's detector without the fleet: the whole table,
// with the threshold of minRequests requests (paper: 10). learned may be nil
// for rules-only verdicts. It decides (possibly "undecided") for every
// session: below the threshold the below-threshold row fires, at it the
// no-presentation row.
func Serving(minRequests int64, learned *detect.Learned) detect.Detector {
	return detect.New(detect.AllRows, minRequests, learned, nil)
}

// The combining rule of Section 3.1 and its ablation variants, as row masks:
// a session is in a variant's human set when the first of its rows to fire
// judges it human. The rows' request threshold does not apply here (Breakdown
// filters short sessions itself).
const (
	// HumanSet is S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM): the mouse row
	// outranks the JS row, which outranks the CSS row.
	HumanSet = detect.Mask(1<<detect.RuleMouse | 1<<detect.RuleJSWithoutInput | 1<<detect.RuleCSS)
	// CSSOnly is the browser-test-only variant, S_H = S_CSS.
	CSSOnly = detect.Mask(1 << detect.RuleCSS)
	// MouseOnly is the human-activity-only variant, S_H = S_MM.
	MouseOnly = detect.Mask(1 << detect.RuleMouse)
	// Union keeps the union but drops the subtraction, S_H = S_CSS ∪ S_MM.
	Union = detect.Mask(1<<detect.RuleMouse | 1<<detect.RuleCSS)
)

// Variants are the ablation's combining rules, the paper's last.
var Variants = []struct {
	Name string
	Rows detect.Mask
}{
	{"CSS only", CSSOnly},
	{"MM only", MouseOnly},
	{"CSS ∪ MM", Union},
	{"(CSS ∪ MM) − (JS − MM)", HumanSet},
}

// InSet reports whether a session belongs to the human set of the variant
// rows.
func InSet(rows detect.Mask, s *session.Snapshot) bool {
	v, ok := detect.New(rows, 0, nil, nil).Detect(s)
	return ok && v.Class == detect.ClassHuman
}

// InHumanSet reports whether a single session belongs to S_H under the
// combining rule: it fetched the embedded stylesheet or produced an input
// event, and it is not one of the sessions that executed the JavaScript yet
// never produced an input event.
func InHumanSet(s session.Snapshot) bool { return InSet(HumanSet, &s) }
