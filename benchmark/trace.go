package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// This file is the benchmark's tracer. A span is recorded around every call
// the replay makes into a layer: name, start, end, the span that caused it,
// and the request it belongs to. Spans are kept in memory and aggregated (or
// written out as Chrome trace-event JSON) when the run ends. The replay is
// single-threaded, so "the span that caused it" is simply the innermost span
// still open.

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	name   uint16
	parent int32 // index of the enclosing span, -1 for a root
	req    uint32
	start  int64
	end    int64
}

type tracer struct {
	epoch time.Time
	names []string
	index map[string]uint16
	spans []span
	open  int32 // innermost open span, -1 when none
	req   uint32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), index: make(map[string]uint16), open: -1}
}

// name interns a span name; call it once per name, outside the timed path.
func (t *tracer) name(s string) uint16 {
	if id, ok := t.index[s]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, s)
	t.index[s] = id
	return id
}

// nextRequest starts a new request: spans begun from now on carry its id.
func (t *tracer) nextRequest() { t.req++ }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name uint16) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.open, req: t.req, start: int64(time.Since(t.epoch))})
	t.open = id
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	s := &t.spans[id]
	s.end = int64(time.Since(t.epoch))
	t.open = s.parent
}

// endAs closes the span under a different name than it was opened with, for
// calls whose kind is only known from their result.
func (t *tracer) endAs(id int32, name uint16) {
	t.end(id)
	t.spans[id].name = name
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of that interval its direct children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// printSelfTimes prints, per span name, how many spans there were, their
// median duration, and the share of all recorded time that was their own —
// not their children's. This is the table to diff between two commits when a
// change claims to have made some layer cheaper.
func (t *tracer) printSelfTimes() {
	self := selfTimes(t.spans)
	type row struct {
		name  string
		n     int
		durs  []float64
		selfN int64
	}
	rows := make([]row, len(t.names))
	var total int64
	for i, s := range t.spans {
		r := &rows[s.name]
		r.name, r.n = t.names[s.name], r.n+1
		r.durs = append(r.durs, float64(s.end-s.start)/1e3)
		r.selfN += self[i]
		total += self[i]
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].selfN > rows[j].selfN })
	fmt.Printf("%-26s %9s %12s %11s\n", "span", "count", "median us", "self share")
	for _, r := range rows {
		if r.n > 0 {
			fmt.Printf("%-26s %9d %12.3f %10.1f%%\n", r.name, r.n, median(r.durs), 100*float64(r.selfN)/float64(total))
		}
	}
}

// durations groups span durations, in microseconds, by span name.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64, len(t.names))
	for _, s := range t.spans {
		n := t.names[s.name]
		out[n] = append(out[n], float64(s.end-s.start)/1e3)
	}
	return out
}

// childSums returns, for every span named parent that has a direct child
// named marker, the summed duration of its direct children in microseconds,
// alongside the span's own duration.
func (t *tracer) childSums(parent, marker string) (sums, totals []float64) {
	pid, ok := t.index[parent]
	mid, ok2 := t.index[marker]
	if !ok || !ok2 {
		return nil, nil
	}
	// Children follow their parent in the slice, so one pass suffices: cur is
	// the parent span being accumulated.
	cur, sum, marked := int32(-1), 0.0, false
	flush := func() {
		if cur >= 0 && marked {
			sums = append(sums, sum)
			totals = append(totals, float64(t.spans[cur].end-t.spans[cur].start)/1e3)
		}
	}
	for i, s := range t.spans {
		switch {
		case s.name == pid:
			flush()
			cur, sum, marked = int32(i), 0, false
		case s.parent == cur && cur >= 0:
			sum += float64(s.end-s.start) / 1e3
			marked = marked || s.name == mid
		}
	}
	flush()
	return sums, totals
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"request\":%d}}",
			t.names[s.name], float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.req)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
