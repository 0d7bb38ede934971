package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// A hand-built tree:
//
//	0 serve   [0, 100]
//	1   admit   [5, 15]
//	2   prepare [20, 70]
//	3     issue   [25, 40]
//	4     render  [45, 60]
//	5   observe [80, 95]
//	6 serve   [200, 230]   (no children)
func handBuiltTrace() *tracer {
	t := newTracer()
	serve, admit, prepare, issue, render, observe := t.name("serve"), t.name("admit"), t.name("prepare"), t.name("issue"), t.name("render"), t.name("observe")
	add := func(name uint16, parent int32, start, end int64) {
		t.spans = append(t.spans, span{name: name, parent: parent, req: 1, start: start, end: end})
	}
	add(serve, -1, 0, 100)
	add(admit, 0, 5, 15)
	add(prepare, 0, 20, 70)
	add(issue, 2, 25, 40)
	add(render, 2, 45, 60)
	add(observe, 0, 80, 95)
	add(serve, -1, 200, 230)
	return t
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	tr := handBuiltTrace()
	self := selfTimes(tr.spans)
	want := []int64{100 - 10 - 50 - 15, 10, 50 - 15 - 15, 15, 15, 15, 30}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, self[i], want[i])
		}
	}
	// Self times partition the roots: nothing is counted twice or lost.
	var total int64
	for _, s := range self {
		total += s
	}
	if total != 100+30 {
		t.Errorf("self times sum to %d, want the roots' 130", total)
	}
}

func TestChildSumsOnlyCountsDirectChildrenOfMarkedParents(t *testing.T) {
	tr := handBuiltTrace()
	sums, totals := tr.childSums("serve", "prepare")
	if len(sums) != 1 || math.Abs(sums[0]-0.075) > 1e-12 || math.Abs(totals[0]-0.1) > 1e-12 {
		t.Fatalf("sums %v totals %v", sums, totals)
	}
	if sums, _ := tr.childSums("serve", "nonesuch"); sums != nil {
		t.Fatalf("unknown marker gave %v", sums)
	}
}

func TestBeginEndNestAndRename(t *testing.T) {
	tr := newTracer()
	outer, inner, renamed := tr.name("outer"), tr.name("inner"), tr.name("renamed")
	tr.nextRequest()
	a := tr.begin(outer)
	b := tr.begin(inner)
	tr.end(b)
	c := tr.begin(inner)
	tr.endAs(c, renamed)
	tr.end(a)
	if tr.open != -1 {
		t.Fatalf("open = %d after closing everything", tr.open)
	}
	if tr.spans[b].parent != a || tr.spans[c].parent != a || tr.spans[a].parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	if tr.names[tr.spans[c].name] != "renamed" || tr.spans[c].req != 1 {
		t.Fatalf("span c: %+v", tr.spans[c])
	}
	for _, s := range tr.spans {
		if s.end < s.start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := handBuiltTrace().writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Parent  int `json:"parent"`
				Request int `json:"request"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 7 || doc.TraceEvents[3].Name != "issue" || doc.TraceEvents[3].Args.Parent != 2 || doc.TraceEvents[3].Ph != "X" {
		t.Fatalf("events: %+v", doc.TraceEvents)
	}
}
