package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"botdetect/internal/core"
)

// Small scales keep the experiment tests fast while still exercising every
// code path; the benchmarks and cmd/botbench run the full default scale.
func smallScale() Scale { return Scale{Sessions: 150, Seed: 7} }

func TestTable1ShapeAndFormat(t *testing.T) {
	r := Table1(smallScale())
	if r.Breakdown.Total < 40 {
		t.Fatalf("too few sessions: %d", r.Breakdown.Total)
	}
	// Shape checks: CSS share exceeds mouse share (some CSS fetchers are not
	// humans with input events), bounds are ordered, FPR bound is small.
	if r.Breakdown.CSSFraction() < r.Breakdown.MouseFraction() {
		t.Errorf("CSS share (%f) below mouse share (%f)", r.Breakdown.CSSFraction(), r.Breakdown.MouseFraction())
	}
	if r.UpperBound < r.LowerBound {
		t.Errorf("upper bound %f below lower bound %f", r.UpperBound, r.LowerBound)
	}
	if r.MaxFPR > 0.15 {
		t.Errorf("max FPR bound = %f", r.MaxFPR)
	}
	if r.TrueFPR > 0.08 {
		t.Errorf("true FPR = %f", r.TrueFPR)
	}
	// The measured human share must sit between (or near) the bounds.
	if r.TrueHumanShare < r.LowerBound-0.10 || r.TrueHumanShare > r.UpperBound+0.10 {
		t.Errorf("ground-truth human share %f far outside bounds [%f, %f]", r.TrueHumanShare, r.LowerBound, r.UpperBound)
	}
	out := r.Format()
	for _, want := range []string{"Downloaded CSS", "Mouse movement detected", "paper 22.3%", "Total sessions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestCaptchaCross(t *testing.T) {
	r := CaptchaCross(smallScale())
	if r.CaptchaSessions == 0 {
		t.Fatal("no CAPTCHA-passing sessions generated")
	}
	// Among CAPTCHA-verified humans, most ran JS and almost all fetched CSS.
	if r.FetchedCSS < 0.9 {
		t.Errorf("CSS share among captcha humans = %f", r.FetchedCSS)
	}
	if r.RanJS < 0.7 || r.RanJS > 1.0 {
		t.Errorf("JS share among captcha humans = %f", r.RanJS)
	}
	if r.JSDisabledShare < -0.01 {
		t.Errorf("negative JS-disabled share: %f", r.JSDisabledShare)
	}
	if !strings.Contains(r.Format(), "CAPTCHA cross-validation") {
		t.Fatal("Format missing header")
	}
}

// figure2ShapeHolds reports whether the qualitative claims of Figure 2 hold
// in the regenerated data: the CSS (browser test) signal fires in fewer
// requests than the mouse (human activity) signal at matched coverage, and
// both fire within a few tens of requests for the vast majority of sessions.
func figure2ShapeHolds(r Figure2Result) bool {
	if r.MouseCDF.Len() == 0 || r.CSSCDF.Len() == 0 {
		return false
	}
	if r.CSS95 > r.Mouse95 {
		return false
	}
	return r.Mouse95 <= 100 && r.CSS95 <= 60
}

// figure3ShapeHolds reports whether the qualitative Figure 3 claim holds:
// complaints rise to a mid-year peak after the network expansion and drop by
// a large factor once the detector and rate limiting are deployed.
func figure3ShapeHolds(r Figure3Result) bool {
	return r.PeakBeforeDeployment >= 3 && r.ReductionFactor >= 3
}

// figure4ShapeHolds reports whether the qualitative Figure 4 claims hold:
// test accuracy stays in the ~90%+ band throughout and does not degrade as
// the classifier sees more requests.
func figure4ShapeHolds(r Figure4Result) bool {
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

// overheadShapeHolds reports whether the qualitative overhead claim holds:
// script generation is far below one millisecond and instrumentation is a
// small fraction of served bytes.
func overheadShapeHolds(r OverheadResult) bool {
	return r.ScriptGenTime < time.Millisecond && r.BandwidthOverhead < 0.15 && r.ScriptBytes > 200
}

func TestFigure2Shape(t *testing.T) {
	r := Figure2(smallScale())
	if r.MouseCDF.Len() == 0 || r.CSSCDF.Len() == 0 || r.JSFileCDF.Len() == 0 {
		t.Fatalf("empty CDFs: mouse=%d css=%d js=%d", r.MouseCDF.Len(), r.CSSCDF.Len(), r.JSFileCDF.Len())
	}
	if !figure2ShapeHolds(r) {
		t.Errorf("Figure 2 shape does not hold: mouse95=%f css95=%f", r.Mouse95, r.CSS95)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	out := r.Format()
	if !strings.Contains(out, "Mouse events") || !strings.Contains(out, "CSS files") {
		t.Fatal("Format missing series")
	}
}

func TestFigure3Shape(t *testing.T) {
	r := Figure3(smallScale())
	if len(r.Complaints) != 13 {
		t.Fatalf("months = %d", len(r.Complaints))
	}
	if r.MeasuredBlockedFraction <= 0.2 {
		t.Errorf("measured blocked fraction = %f; policy engine seems ineffective", r.MeasuredBlockedFraction)
	}
	if !figure3ShapeHolds(r) {
		t.Errorf("Figure 3 shape does not hold: peak=%d after=%d reduction=%.1f",
			r.PeakBeforeDeployment, r.TotalRobotAfterDeployment, r.ReductionFactor)
	}
	out := r.Format()
	if !strings.Contains(out, "detector deployed") || !strings.Contains(out, "Reduction factor") {
		t.Fatal("Format missing annotations")
	}
}

func TestTable2Definitions(t *testing.T) {
	r := Table2()
	if len(r.Names) != 12 || len(r.Descriptions) != 12 {
		t.Fatalf("attributes = %d/%d", len(r.Names), len(r.Descriptions))
	}
	out := r.Format()
	for _, want := range []string{"HEAD %", "UNSEEN REFERRER %", "FAVICON %", "% of requests with referrer"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q", want)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 4 training is slow")
	}
	r := Figure4(Scale{Sessions: 150, Seed: 11})
	if len(r.Points) < 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if !figure4ShapeHolds(r) {
		for _, p := range r.Points {
			t.Logf("requests=%d train=%.3f test=%.3f", p.Requests, p.TrainAccuracy, p.TestAccuracy)
		}
		t.Error("Figure 4 shape does not hold")
	}
	if len(r.TopAttributes) != 3 {
		t.Fatalf("top attributes = %v", r.TopAttributes)
	}
	if r.NavTreeTestAccuracy <= 0.5 {
		t.Errorf("nav-tree baseline accuracy = %f", r.NavTreeTestAccuracy)
	}
	out := r.Format()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "Most contributing attributes") {
		t.Fatal("Format incomplete")
	}
}

func TestOverheadShape(t *testing.T) {
	r := Overhead(Scale{Sessions: 80, Seed: 13})
	if !overheadShapeHolds(r) {
		t.Errorf("overhead shape does not hold: %+v", r)
	}
	if r.ScriptsPerSecond < 1000 {
		t.Errorf("script generation too slow: %.0f/s", r.ScriptsPerSecond)
	}
	// The reported size is a served script's: the same engine hands the same
	// first page view the same body, inside the wire budget jsgen pins
	// (TestScriptBytesBudget).
	e := overheadEngine(13)
	var ps core.PageState
	ip, path := overheadView(e, 0, &ps)
	resp, ok := e.HandleBeacon(ip, overheadUA, path)
	defer resp.Done()
	if !ok || !strings.Contains(string(resp.Body), "String.fromCharCode(") {
		t.Fatalf("script download: ok=%v body %q", ok, resp.Body)
	}
	if r.ScriptBytes != len(resp.Body) || r.ScriptBytes > 1560 {
		t.Errorf("ScriptBytes = %d; the served index_*.js body is %d bytes, budget 1560", r.ScriptBytes, len(resp.Body))
	}
	if !strings.Contains(r.Format(), "bandwidth overhead") {
		t.Fatal("Format incomplete")
	}
}

func TestAblationDecoys(t *testing.T) {
	r := AblationDecoys(Scale{Sessions: 300, Seed: 17})
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	prev := 0.0
	for _, row := range r.Rows {
		if row.SinglePickCatchRate < row.Expected-0.08 || row.SinglePickCatchRate > row.Expected+0.08 {
			t.Errorf("m=%d single-pick catch rate %f deviates from expected %f", row.Decoys, row.SinglePickCatchRate, row.Expected)
		}
		if row.FetchAllCatchRate < 0.99 {
			t.Errorf("m=%d fetch-all catch rate %f should be ~1", row.Decoys, row.FetchAllCatchRate)
		}
		if row.SinglePickCatchRate+0.08 < prev {
			t.Errorf("catch rate should not decrease with more decoys")
		}
		prev = row.SinglePickCatchRate
	}
	if !strings.Contains(r.Format(), "Decoys (m)") {
		t.Fatal("Format incomplete")
	}
	// What the sweep picks from is what a client could hold: every downloaded
	// script yields the real beacon and m decoys, nothing else.
	for _, m := range []int{1, 2, 4, 8, 16} {
		e := core.New(core.Config{Decoys: m, ObfuscateJS: true, Seed: 17})
		for i := 0; i < 20; i++ {
			if urls := scrapedBeacons(e, fmt.Sprintf("10.78.0.%d", i)); len(urls) != m+1 {
				t.Fatalf("m=%d: script yields %d .jpg beacon URLs, want %d: %v", m, len(urls), m+1, urls)
			}
		}
	}
}

func TestBaselineComparison(t *testing.T) {
	r := BaselineComparison(Scale{Sessions: 150, Seed: 19})
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	ours := r.Rows[0]
	heuristic := r.Rows[1]
	if ours.Accuracy <= heuristic.Accuracy {
		t.Errorf("combining rule (%.3f) should beat the heuristic baseline (%.3f) on disguised robots",
			ours.Accuracy, heuristic.Accuracy)
	}
	if ours.FPR > 0.08 {
		t.Errorf("combining rule FPR = %f", ours.FPR)
	}
	if !strings.Contains(r.Format(), "combining rule") {
		t.Fatal("Format incomplete")
	}
}

func TestScaleDefaults(t *testing.T) {
	s := Scale{}.withDefaults()
	if s != DefaultScale() {
		t.Fatalf("defaults = %+v", s)
	}
	s2 := Scale{Sessions: 10}.withDefaults()
	if s2.Sessions != 10 || s2.Seed != DefaultScale().Seed {
		t.Fatalf("partial defaults = %+v", s2)
	}
}
