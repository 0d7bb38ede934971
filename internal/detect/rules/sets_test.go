package rules

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"botdetect/internal/session"
)

// snapWith builds a synthetic session snapshot with the given total request
// count and signals observed at the given request numbers.
func snapWith(total int64, sigs map[session.Signal]int64) session.Snapshot {
	return session.Snapshot{
		Key:     session.Key{IP: "10.0.0.1", UserAgent: "x"},
		Counts:  session.Counts{Total: uint32(total)},
		Signals: recorded(sigs),
	}
}

func TestInHumanSetCombiningRule(t *testing.T) {
	cases := []struct {
		name  string
		css   bool
		mouse bool
		js    bool
		want  bool
	}{
		{"nothing", false, false, false, false},
		{"css only (JS disabled human)", true, false, false, true},
		{"mouse only", false, true, false, true},
		{"css+mouse", true, true, false, true},
		{"js only (robot running JS)", false, false, true, false},
		{"css+js no mouse (robot fetching everything)", true, false, true, false},
		{"js+mouse", false, true, true, true},
		{"css+js+mouse (normal browser + user)", true, true, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sigs := map[session.Signal]int64{}
			if tc.css {
				sigs[session.SignalCSS] = 1
			}
			if tc.mouse {
				sigs[session.SignalMouse] = 1
			}
			if tc.js {
				sigs[session.SignalJS] = 1
			}
			if got := InHumanSet(snapWith(20, sigs)); got != tc.want {
				t.Fatalf("InHumanSet = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestBreakdownCountsAndFilters(t *testing.T) {
	sessions := []session.Snapshot{
		snapWith(20, map[session.Signal]int64{session.SignalCSS: 3, session.SignalJS: 4, session.SignalMouse: 6}),
		snapWith(15, map[session.Signal]int64{session.SignalCSS: 2}),
		snapWith(30, map[session.Signal]int64{session.SignalJS: 2}),
		snapWith(12, map[session.Signal]int64{session.SignalHidden: 1}),
		snapWith(25, map[session.Signal]int64{session.SignalCaptcha: 9, session.SignalUAMismatch: 2}),
		snapWith(5, map[session.Signal]int64{session.SignalCSS: 1}), // filtered: <= 10 requests
		snapWith(11, nil),
	}
	b := Breakdown(sessions, 10)
	if b.Total != 6 {
		t.Fatalf("Total = %d", b.Total)
	}
	if b.CSS != 2 || b.JS != 2 || b.Mouse != 1 || b.Hidden != 1 || b.Captcha != 1 || b.UAMismatch != 1 {
		t.Fatalf("breakdown = %+v", b)
	}
	// Human set: session 1 (mouse), session 2 (css only). Session 3 is JS
	// without mouse; sessions 4, 5, 7 have neither CSS nor mouse.
	if b.HumanSet != 2 {
		t.Fatalf("HumanSet = %d", b.HumanSet)
	}
	if math.Abs(b.HumanUpperBound()-2.0/6.0) > 1e-9 {
		t.Fatalf("upper bound = %f", b.HumanUpperBound())
	}
	if math.Abs(b.HumanLowerBound()-1.0/6.0) > 1e-9 {
		t.Fatalf("lower bound = %f", b.HumanLowerBound())
	}
	wantFPR := (2.0/6.0 - 1.0/6.0) / (1 - 1.0/6.0)
	if math.Abs(b.MaxFalsePositiveRate()-wantFPR) > 1e-9 {
		t.Fatalf("max FPR = %f, want %f", b.MaxFalsePositiveRate(), wantFPR)
	}
}

func TestBreakdownIncludeAll(t *testing.T) {
	sessions := []session.Snapshot{
		snapWith(1, map[session.Signal]int64{session.SignalCSS: 1}),
		snapWith(2, nil),
	}
	b := Breakdown(sessions, 0)
	if b.Total != 2 || b.CSS != 1 {
		t.Fatalf("breakdown = %+v", b)
	}
	empty := Breakdown(nil, 0)
	if empty.HumanUpperBound() != 0 || empty.MaxFalsePositiveRate() != 0 || empty.CSSFraction() != 0 {
		t.Fatal("empty breakdown fractions should be zero")
	}
}

func TestBreakdownFractionAccessors(t *testing.T) {
	sessions := []session.Snapshot{
		snapWith(20, map[session.Signal]int64{session.SignalCSS: 1, session.SignalJS: 1, session.SignalMouse: 1, session.SignalCaptcha: 1, session.SignalHidden: 1, session.SignalUAMismatch: 1}),
		snapWith(20, nil),
	}
	b := Breakdown(sessions, 10)
	for name, got := range map[string]float64{
		"css": b.CSSFraction(), "js": b.JSFraction(), "mouse": b.MouseFraction(),
		"captcha": b.CaptchaFraction(), "hidden": b.HiddenFraction(), "ua": b.UAMismatchFraction(),
	} {
		if math.Abs(got-0.5) > 1e-9 {
			t.Fatalf("%s fraction = %f, want 0.5", name, got)
		}
	}
}

func TestBreakdownBoundsProperty(t *testing.T) {
	f := func(flags []uint8) bool {
		var sessions []session.Snapshot
		for _, fl := range flags {
			sigs := map[session.Signal]int64{}
			if fl&1 != 0 {
				sigs[session.SignalCSS] = 1
			}
			if fl&2 != 0 {
				sigs[session.SignalMouse] = 2
			}
			if fl&4 != 0 {
				sigs[session.SignalJS] = 3
			}
			sessions = append(sessions, snapWith(20, sigs))
		}
		b := Breakdown(sessions, 10)
		lower, upper := b.HumanLowerBound(), b.HumanUpperBound()
		if lower < 0 || upper > 1 {
			return false
		}
		// Lower bound (mouse share) never exceeds upper bound (S_H share):
		// every mouse session is in S_H by construction of the rule.
		if lower > upper+1e-12 {
			return false
		}
		fpr := b.MaxFalsePositiveRate()
		return fpr >= -1e-12 && fpr <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownTableFormat(t *testing.T) {
	sessions := []session.Snapshot{
		snapWith(20, map[session.Signal]int64{session.SignalCSS: 1}),
		snapWith(20, map[session.Signal]int64{session.SignalMouse: 1}),
		snapWith(20, nil),
	}
	tab := Breakdown(sessions, 10).Table()
	out := tab.Format()
	for _, want := range []string{"Downloaded CSS", "Mouse movement detected", "Total sessions", "Passed CAPTCHA test"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing row %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "33.3") {
		t.Fatalf("expected 33.3%% rows in table:\n%s", out)
	}
}

func TestDetectionLatencies(t *testing.T) {
	sessions := []session.Snapshot{
		snapWith(60, map[session.Signal]int64{session.SignalMouse: 10, session.SignalCSS: 3}),
		snapWith(60, map[session.Signal]int64{session.SignalMouse: 30}),
		snapWith(60, map[session.Signal]int64{session.SignalCSS: 5}),
		snapWith(60, nil),
	}
	cdfs := DetectionLatencies(sessions, session.SignalMouse, session.SignalCSS, session.SignalJS)
	if cdfs[session.SignalMouse].Len() != 2 {
		t.Fatalf("mouse CDF samples = %d", cdfs[session.SignalMouse].Len())
	}
	if cdfs[session.SignalCSS].Len() != 2 {
		t.Fatalf("css CDF samples = %d", cdfs[session.SignalCSS].Len())
	}
	if cdfs[session.SignalJS].Len() != 0 {
		t.Fatalf("js CDF samples = %d", cdfs[session.SignalJS].Len())
	}
	if got := cdfs[session.SignalMouse].Quantile(1.0); got != 30 {
		t.Fatalf("mouse p100 = %f", got)
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 929922: "929922", -15: "-15"}
	for in, want := range cases {
		if got := itoa(in); got != want {
			t.Fatalf("itoa(%d) = %q", in, got)
		}
	}
}
