package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ContentType is the Prometheus text exposition content type, for handlers
// serving WritePrometheus output.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Registry holds named metric families and renders them in the Prometheus
// text exposition format. Registration takes the registry mutex; the metric
// write paths (Counter.Inc, Histogram.Observe, …) never touch the registry
// at all, so scraping cannot contend with serving. A family may hold many
// collectors (e.g. one labelled counter per beacon kind, or one per fleet
// node) — they are rendered in registration order under one HELP/TYPE
// header, and families are rendered sorted by name so the exposition is
// byte-stable for a given sequence of observations.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one metric name: its metadata and its collectors.
type family struct {
	name, help, typ string
	collectors      []collector
}

// collector renders one metric instance's sample lines.
type collector interface {
	collect(buf []byte, name string) []byte
}

// NewRegistry creates an empty Registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family returns (creating if needed) the family for name, enforcing that a
// name never changes type. The first registration's help text wins.
func (r *Registry) family(name, help, typ string) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as both %s and %s", name, f.typ, typ))
	}
	return f
}

// Counter registers a counter under name with the given pre-rendered labels
// (see Label/Join; "" for none).
func (r *Registry) Counter(name, labels, help string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	f.collectors = append(f.collectors, valueCollector{labels: labels, value: func() float64 { return float64(c.Value()) }})
}

// CounterFunc registers a counter whose value is read at scrape time — the
// bridge for components that already maintain their own atomic counters
// (core.Stats, keystore.Stats, policy.Stats) and should not pay for a second
// increment on the serve path.
func (r *Registry) CounterFunc(name, labels, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	f.collectors = append(f.collectors, valueCollector{labels: labels, value: fn})
}

// GaugeFunc registers a gauge collector that may emit any number of labelled
// samples at scrape time (e.g. one per shard). The emit callback appends one
// sample with the given pre-rendered labels.
func (r *Registry) GaugeFunc(name, help string, fn func(emit func(labels string, v float64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "gauge")
	f.collectors = append(f.collectors, funcCollector(fn))
}

// Histogram registers a histogram under name.
func (r *Registry) Histogram(name, labels, help string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	f.collectors = append(f.collectors, histCollector{labels: labels, h: h})
}

// WritePrometheus renders every registered family in the text exposition
// format: families sorted by name, collectors within a family in
// registration order.
//
// The family list (and each family's collector slice header) is copied under
// the registry mutex, then rendered with the mutex released: scrape-time
// collector callbacks (CounterFunc, GaugeFunc) are free to call back into
// the registry — e.g. lazy registration — without self-deadlocking, and a
// slow callback never blocks concurrent registrations. Collectors registered
// mid-scrape appear from the next scrape on.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, *f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	buf := make([]byte, 0, 4096)
	for i := range fams {
		f := &fams[i]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(f.help)...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.typ...)
		buf = append(buf, '\n')
		for _, c := range f.collectors {
			buf = c.collect(buf, f.name)
		}
	}
	_, err := w.Write(buf)
	return err
}

// valueCollector renders one sample from a scrape-time value function.
type valueCollector struct {
	labels string
	value  func() float64
}

func (c valueCollector) collect(buf []byte, name string) []byte {
	return appendSample(buf, name, c.labels, c.value())
}

// funcCollector renders whatever samples its function emits.
type funcCollector func(emit func(labels string, v float64))

func (c funcCollector) collect(buf []byte, name string) []byte {
	c(func(labels string, v float64) {
		buf = appendSample(buf, name, labels, v)
	})
	return buf
}

// histCollector renders a histogram's cumulative buckets, sum and count.
type histCollector struct {
	labels string
	h      *Histogram
}

func (c histCollector) collect(buf []byte, name string) []byte {
	s := c.h.Snapshot()
	var cum int64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		le := `le="` + bucketLE[i] + `"`
		labels := le
		if c.labels != "" {
			labels = c.labels + "," + le
		}
		buf = appendSample(buf, name+"_bucket", labels, float64(cum))
	}
	buf = appendSample(buf, name+"_sum", c.labels, s.Sum.Seconds())
	buf = appendSample(buf, name+"_count", c.labels, float64(s.Count))
	return buf
}

// appendSample appends one "name{labels} value\n" line.
func appendSample(buf []byte, name, labels string, v float64) []byte {
	buf = append(buf, name...)
	if labels != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = appendValue(buf, v)
	return append(buf, '\n')
}

// appendValue formats v the way Prometheus expects: integral values without
// an exponent or decimal point, everything else in Go's shortest 'g' form.
func appendValue(buf []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// helpEscaper escapes HELP text per the exposition format.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// labelEscaper escapes label values per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Label renders one key="value" label pair with the value escaped, for the
// pre-rendered labels the registration calls take.
func Label(key, value string) string {
	return key + `="` + labelEscaper.Replace(value) + `"`
}

// Join combines pre-rendered label pairs, skipping empties.
func Join(labels ...string) string {
	out := ""
	for _, l := range labels {
		if l == "" {
			continue
		}
		if out != "" {
			out += ","
		}
		out += l
	}
	return out
}
