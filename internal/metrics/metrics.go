// Package metrics provides the statistical summaries used to report the
// paper's evaluation: empirical CDFs (Figure 2), monthly time series
// (Figure 3), accuracy curves (Figure 4), session-breakdown tables (Table 1),
// and the confusion-matrix derived rates (false positive rate, accuracy)
// quoted throughout Section 3.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution function over float64 samples.
// The zero value is ready to use.
type CDF struct {
	samples []float64
	sorted  bool
}

// NewCDF returns a CDF pre-populated with the given samples.
func NewCDF(samples ...float64) *CDF {
	c := &CDF{}
	c.AddAll(samples)
	return c
}

// Add appends one sample.
func (c *CDF) Add(v float64) {
	c.samples = append(c.samples, v)
	c.sorted = false
}

// AddAll appends all samples.
func (c *CDF) AddAll(vs []float64) {
	c.samples = append(c.samples, vs...)
	c.sorted = false
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.samples) }

func (c *CDF) ensureSorted() {
	if !c.sorted {
		sort.Float64s(c.samples)
		c.sorted = true
	}
}

// At returns the fraction of samples <= x, in [0, 1]. An empty CDF returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	idx := sort.SearchFloat64s(c.samples, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.samples))
}

// Quantile returns the smallest sample value v such that At(v) >= q.
// q is clamped to [0, 1]. An empty CDF returns 0.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	if q <= 0 {
		return c.samples[0]
	}
	if q >= 1 {
		return c.samples[len(c.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.samples) {
		idx = len(c.samples) - 1
	}
	return c.samples[idx]
}

// Max returns the largest sample, or 0 for an empty CDF.
func (c *CDF) Max() float64 {
	if len(c.samples) == 0 {
		return 0
	}
	c.ensureSorted()
	return c.samples[len(c.samples)-1]
}

// Points returns up to n evenly spaced (x, F(x)) points suitable for
// plotting or printing the CDF as a series, always including the extremes.
func (c *CDF) Points(n int) []Point {
	if len(c.samples) == 0 || n <= 0 {
		return nil
	}
	c.ensureSorted()
	if n == 1 {
		return []Point{{X: c.samples[len(c.samples)-1], Y: 1}}
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.samples) - 1) / (n - 1)
		x := c.samples[idx]
		pts = append(pts, Point{X: x, Y: float64(idx+1) / float64(len(c.samples))})
	}
	return pts
}

// Point is a single (x, y) coordinate of a reported series.
type Point struct {
	X float64
	Y float64
}

// Series is a named sequence of points, the unit in which figures are
// regenerated (one Series per curve in a paper figure).
type Series struct {
	Name   string
	Points []Point
}

// Format renders the series as a two-column gnuplot-style block.
func (s Series) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", s.Name)
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%g\t%g\n", p.X, p.Y)
	}
	return b.String()
}

// ConfusionMatrix accumulates binary-classification outcomes where
// "positive" means "classified as human" unless documented otherwise by the
// caller.
type ConfusionMatrix struct {
	TP, FP, TN, FN int64
}

// Record adds one outcome given the predicted and actual labels.
func (m *ConfusionMatrix) Record(predictedPositive, actuallyPositive bool) {
	switch {
	case predictedPositive && actuallyPositive:
		m.TP++
	case predictedPositive && !actuallyPositive:
		m.FP++
	case !predictedPositive && actuallyPositive:
		m.FN++
	default:
		m.TN++
	}
}

// Total returns the number of recorded outcomes.
func (m *ConfusionMatrix) Total() int64 { return m.TP + m.FP + m.TN + m.FN }

// Accuracy returns (TP+TN)/total, or 0 when empty.
func (m *ConfusionMatrix) Accuracy() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.TP+m.TN) / float64(t)
}

// FalsePositiveRate returns FP/(FP+TN), the definition used in the paper
// (false positives over all negatives), or 0 when there are no negatives.
func (m *ConfusionMatrix) FalsePositiveRate() float64 {
	neg := m.FP + m.TN
	if neg == 0 {
		return 0
	}
	return float64(m.FP) / float64(neg)
}

// FalseNegativeRate returns FN/(TP+FN), or 0 when there are no positives.
func (m *ConfusionMatrix) FalseNegativeRate() float64 {
	pos := m.TP + m.FN
	if pos == 0 {
		return 0
	}
	return float64(m.FN) / float64(pos)
}

// Precision returns TP/(TP+FP), or 0 when nothing was predicted positive.
func (m *ConfusionMatrix) Precision() float64 {
	p := m.TP + m.FP
	if p == 0 {
		return 0
	}
	return float64(m.TP) / float64(p)
}

// Recall returns TP/(TP+FN), or 0 when there are no positives.
func (m *ConfusionMatrix) Recall() float64 {
	p := m.TP + m.FN
	if p == 0 {
		return 0
	}
	return float64(m.TP) / float64(p)
}

// String renders the matrix compactly for logs and test failures.
func (m *ConfusionMatrix) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.3f fpr=%.3f",
		m.TP, m.FP, m.TN, m.FN, m.Accuracy(), m.FalsePositiveRate())
}

// Table is a simple fixed-column text table used to print the regenerated
// paper tables from cmd/botbench and the benchmarks.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Format renders the table with aligned columns.
func (t *Table) Format() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a fraction as a percentage with one decimal, e.g. 0.289 -> "28.9".
func Pct(fraction float64) string {
	return fmt.Sprintf("%.1f", fraction*100)
}
