package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(10) != 0 || c.Quantile(0.5) != 0 || c.Max() != 0 {
		t.Fatal("empty CDF should return zeros")
	}
	if c.Points(5) != nil {
		t.Fatal("empty CDF Points should be nil")
	}
}

func TestCDFBasic(t *testing.T) {
	c := NewCDF(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if got := c.At(5); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("At(5) = %f, want 0.5", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %f, want 0", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %f, want 1", got)
	}
	if got := c.Quantile(0.8); got != 8 {
		t.Fatalf("Quantile(0.8) = %f, want 8", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Fatalf("Quantile(0) = %f, want 1", got)
	}
	if got := c.Quantile(1); got != 10 {
		t.Fatalf("Quantile(1) = %f, want 10", got)
	}
	if c.Max() != 10 || c.Len() != 10 {
		t.Fatal("Max/Len incorrect")
	}
}

func TestCDFAddAfterQuery(t *testing.T) {
	c := NewCDF(5, 1)
	_ = c.At(2)
	c.Add(3)
	if got := c.Quantile(1); got != 5 {
		t.Fatalf("Quantile(1) after Add = %f", got)
	}
	if got := c.At(3); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("At(3) = %f", got)
	}
}

func TestCDFQuantileAtMonotonic(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		c := &CDF{}
		for _, v := range raw {
			c.Add(float64(v % 1000))
		}
		// At must be monotonically non-decreasing.
		prev := -1.0
		for x := 0.0; x <= 1000; x += 50 {
			v := c.At(x)
			if v < prev {
				return false
			}
			prev = v
		}
		// Quantile must be monotonically non-decreasing in q.
		prevQ := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prevQ {
				return false
			}
			prevQ = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF(1, 2, 3, 4, 5)
	pts := c.Points(3)
	if len(pts) != 3 {
		t.Fatalf("Points(3) returned %d points", len(pts))
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("last point Y = %f, want 1", pts[len(pts)-1].Y)
	}
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].X <= pts[j].X }) {
		t.Fatal("points not sorted by X")
	}
	one := c.Points(1)
	if len(one) != 1 || one[0].Y != 1 {
		t.Fatalf("Points(1) = %v", one)
	}
}

func TestSeriesFormat(t *testing.T) {
	s := Series{Name: "css", Points: []Point{{1, 0.5}, {2, 1}}}
	out := s.Format()
	if !strings.Contains(out, "# css") || !strings.Contains(out, "1\t0.5") {
		t.Fatalf("unexpected format output: %q", out)
	}
}

func TestConfusionMatrix(t *testing.T) {
	var m ConfusionMatrix
	// 8 humans correctly classified, 2 humans missed, 1 robot misclassified,
	// 9 robots correctly classified.
	for i := 0; i < 8; i++ {
		m.Record(true, true)
	}
	for i := 0; i < 2; i++ {
		m.Record(false, true)
	}
	m.Record(true, false)
	for i := 0; i < 9; i++ {
		m.Record(false, false)
	}
	if m.Total() != 20 {
		t.Fatalf("Total = %d", m.Total())
	}
	if got := m.Accuracy(); math.Abs(got-17.0/20.0) > 1e-9 {
		t.Fatalf("Accuracy = %f", got)
	}
	if got := m.FalsePositiveRate(); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("FPR = %f", got)
	}
	if got := m.FalseNegativeRate(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("FNR = %f", got)
	}
	if got := m.Precision(); math.Abs(got-8.0/9.0) > 1e-9 {
		t.Fatalf("Precision = %f", got)
	}
	if got := m.Recall(); math.Abs(got-0.8) > 1e-9 {
		t.Fatalf("Recall = %f", got)
	}
	if !strings.Contains(m.String(), "TP=8") {
		t.Fatalf("String() = %q", m.String())
	}
}

func TestConfusionMatrixEmpty(t *testing.T) {
	var m ConfusionMatrix
	if m.Accuracy() != 0 || m.FalsePositiveRate() != 0 || m.FalseNegativeRate() != 0 ||
		m.Precision() != 0 || m.Recall() != 0 {
		t.Fatal("empty matrix rates should all be 0")
	}
}

func TestConfusionMatrixRatesBounded(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		m := ConfusionMatrix{TP: int64(tp), FP: int64(fp), TN: int64(tn), FN: int64(fn)}
		for _, v := range []float64{m.Accuracy(), m.FalsePositiveRate(), m.FalseNegativeRate(), m.Precision(), m.Recall()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTableFormat(t *testing.T) {
	tab := NewTable("Table 1: sessions", "Description", "# of Sessions", "Percentage(%)")
	tab.AddRow("Downloaded CSS", "268952", "28.9")
	tab.AddRow("Total sessions", "929922")
	out := tab.Format()
	if !strings.Contains(out, "Table 1: sessions") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "Downloaded CSS") || !strings.Contains(out, "28.9") {
		t.Fatal("row content missing")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("expected 5 lines, got %d: %q", len(lines), out)
	}
	// Padded missing cell should not panic and row should align.
	if !strings.Contains(lines[4], "929922") {
		t.Fatalf("missing padded row: %q", lines[4])
	}
}

func TestPct(t *testing.T) {
	if Pct(0.289) != "28.9" {
		t.Fatalf("Pct(0.289) = %q", Pct(0.289))
	}
}
