package rules

import (
	"testing"

	"botdetect/internal/detect"
	"botdetect/internal/session"
)

func variantSnap(css, mouse, js bool) session.Snapshot {
	sigs := map[session.Signal]int64{}
	if css {
		sigs[session.SignalCSS] = 1
	}
	if mouse {
		sigs[session.SignalMouse] = 2
	}
	if js {
		sigs[session.SignalJS] = 3
	}
	return session.Snapshot{Counts: session.Counts{Total: 20}, Signals: recorded(sigs)}
}

// TestFullRuleMatchesInHumanSet: the S_H mask is the formula
// (S_CSS ∪ S_MM) − (S_JS − S_MM).
func TestFullRuleMatchesInHumanSet(t *testing.T) {
	for _, css := range []bool{false, true} {
		for _, mouse := range []bool{false, true} {
			for _, js := range []bool{false, true} {
				s := variantSnap(css, mouse, js)
				if want := (css || mouse) && !(js && !mouse); InHumanSet(s) != want || InSet(HumanSet, &s) != want {
					t.Fatalf("S_H mask diverges from the formula for css=%v mouse=%v js=%v", css, mouse, js)
				}
			}
		}
	}
}

func TestRuleVariantSemantics(t *testing.T) {
	smartBot := variantSnap(true, false, true)   // fetches CSS, runs JS, no input events
	noJSHuman := variantSnap(true, false, false) // JS disabled human
	jsHuman := variantSnap(true, true, true)
	bareBot := variantSnap(false, false, false)

	cases := []struct {
		rows detect.Mask
		name string
		want map[*session.Snapshot]bool
	}{
		{CSSOnly, "css-only", map[*session.Snapshot]bool{&smartBot: true, &noJSHuman: true, &jsHuman: true, &bareBot: false}},
		{MouseOnly, "mouse-only", map[*session.Snapshot]bool{&smartBot: false, &noJSHuman: false, &jsHuman: true, &bareBot: false}},
		{Union, "union", map[*session.Snapshot]bool{&smartBot: true, &noJSHuman: true, &jsHuman: true, &bareBot: false}},
		{HumanSet, "full", map[*session.Snapshot]bool{&smartBot: false, &noJSHuman: true, &jsHuman: true, &bareBot: false}},
	}
	for _, tc := range cases {
		for snap, want := range tc.want {
			if got := InSet(tc.rows, snap); got != want {
				t.Errorf("%s: got %v, want %v for %v", tc.name, got, want, snap.Signals)
			}
		}
	}
}

// TestRuleNames: the ablation names four distinct variants, each a mask of
// browser-test and human-activity rows only, the paper's rule last.
func TestRuleNames(t *testing.T) {
	names := map[string]bool{}
	masks := map[detect.Mask]bool{}
	for _, v := range Variants {
		if v.Name == "" || names[v.Name] || masks[v.Rows] || v.Rows&^HumanSet != 0 {
			t.Fatalf("variant %q (%b) is unnamed, repeated or reads rows outside S_H's", v.Name, v.Rows)
		}
		names[v.Name], masks[v.Rows] = true, true
	}
	if len(Variants) != 4 || Variants[3].Rows != HumanSet {
		t.Fatalf("variants %+v; want four, S_H last", Variants)
	}
}
