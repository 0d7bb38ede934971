package detect

import (
	"sync"
	"testing"

	"botdetect/internal/adaboost"
	"botdetect/internal/features"
	"botdetect/internal/logfmt"
	"botdetect/internal/session"
)

// recorded returns the signals a tracker holds for a session whose signals
// were each first seen at the given request (a count below 1 reads as 1).
func recorded(sigs map[session.Signal]int64) session.Signals {
	tr := session.NewTracker(session.Config{Shards: 1})
	key := session.Key{IP: "10.0.0.1", UserAgent: "UA"}
	for n, left := int64(1), len(sigs); left > 0; n++ {
		tr.ObserveQuiet(logfmt.Entry{ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET", Path: "/", Status: 200})
		for sig, at := range sigs {
			if max(at, 1) == n {
				tr.Mark(key, sig)
				left--
			}
		}
	}
	var out session.Signals
	if snap, ok := tr.Peek(key); ok {
		out = snap.Signals
		snap.Release()
	}
	return out
}

func snapWith(total uint32, sigs map[session.Signal]int64) *session.Snapshot {
	return &session.Snapshot{Counts: session.Counts{Total: total}, Signals: recorded(sigs)}
}

// TestChainFirstOpinionWins: the table is a chain of rows; the first row
// of the mask that fires decides and its verdict carries the row.
func TestChainFirstOpinionWins(t *testing.T) {
	snap := snapWith(20, map[session.Signal]int64{session.SignalMouse: 2, session.SignalHidden: 5, session.SignalCSS: 3})
	v, ok := New(AllRows, 10, nil, nil).Detect(snap)
	if !ok || v != (Verdict{Class: ClassRobot, Confidence: Definite, Rule: RuleHidden, AtRequest: 5}) {
		t.Fatalf("verdict = %+v ok=%v", v, ok)
	}
	if v.Reason() != "followed a link invisible to human users" || v.Rule.Name() != "hidden" {
		t.Fatalf("row %q explains %q", v.Rule.Name(), v.Reason())
	}
	v, ok = New(AllRows&^(1<<RuleHidden), 10, nil, nil).Detect(snap)
	if !ok || v.Rule != RuleMouse || v.Class != ClassHuman || v.AtRequest != 2 {
		t.Fatalf("without the hidden row: verdict = %+v ok=%v", v, ok)
	}
}

// TestChainAllAbstain: a mask whose rows all stay silent, and the empty
// mask, abstain.
func TestChainAllAbstain(t *testing.T) {
	snap := snapWith(20, map[session.Signal]int64{session.SignalMouse: 2, session.SignalHidden: 5, session.SignalCSS: 3})
	if _, ok := New(DirectRows, 10, nil, nil).Detect(snapWith(50, map[session.Signal]int64{session.SignalCSS: 1})); ok {
		t.Fatal("the direct rows fired on a stylesheet fetch")
	}
	if _, ok := (Detector{}).Detect(snap); ok {
		t.Fatal("the empty mask fired")
	}
}

// TestVerdictTableRows: every row of the table has a name and a reason,
// and no ID outside the table reads as a row.
func TestVerdictTableRows(t *testing.T) {
	var got []Rule
	for r := Rule(0); r < 20; r++ {
		if AllRows.Has(r) {
			got = append(got, r)
			if r.Name() == "" || r.Reason() == "" {
				t.Errorf("row %d has no name or reason", r)
			}
		} else if r.Name() != "" || r.Reason() != "" || r.Class() != ClassUndecided {
			t.Errorf("unknown row %d reads as %q / %q", r, r.Name(), r.Reason())
		}
	}
	if len(got) != 13 || len(AllRows.Rules()) != 13 || got[0] != RuleDecoy || got[12] != RuleNoPresentation {
		t.Fatalf("the table's rows are %v", got)
	}
}

func trainToyModel(t *testing.T) *adaboost.Model {
	t.Helper()
	var examples []features.Example
	for i := 0; i < 40; i++ {
		var v features.Vector
		if i%2 == 0 {
			v[features.ReferrerPct] = 0.8
			examples = append(examples, features.Example{X: v, Human: true})
		} else {
			v[features.HTMLPct] = 0.9
			examples = append(examples, features.Example{X: v, Human: false})
		}
	}
	m, err := adaboost.Train(examples, adaboost.Config{Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLearnedAbstainsAndDecides(t *testing.T) {
	l := NewLearned()
	rows := New(LearnedRows, 10, l, nil)
	// The learned rows read Counts.Vector(): 16 of 20 requests with a
	// referrer is the toy model's human (ReferrerPct 0.8), 18 of 20 HTML its
	// robot (HTMLPct 0.9).
	long := &session.Snapshot{Counts: session.Counts{Total: 20, WithReferrer: 16}}

	if _, ok := rows.Detect(long); ok {
		t.Fatal("learned without a model must abstain")
	}
	if l.Epoch() != 0 || l.Model() != nil {
		t.Fatal("fresh learned should have epoch 0 and nil model")
	}

	m := trainToyModel(t)
	l.SetModel(m)
	if l.Epoch() != 1 || l.Model() != m {
		t.Fatalf("epoch=%d model=%p", l.Epoch(), l.Model())
	}

	v, ok := rows.Detect(long)
	if !ok || v.Rule != RuleLearnedHuman || v.Class != ClassHuman || v.Confidence != Probable || v.AtRequest != 20 {
		t.Fatalf("verdict = %+v ok=%v", v, ok)
	}
	v, ok = rows.Detect(&session.Snapshot{Counts: session.Counts{Total: 20, HTML: 18}})
	if !ok || v.Rule != RuleLearnedRobot || v.Class != ClassRobot {
		t.Fatalf("robot verdict = %+v ok=%v", v, ok)
	}

	// Too-short sessions abstain even with a model.
	if _, ok := rows.Detect(&session.Snapshot{Counts: session.Counts{Total: 5, WithReferrer: 4}}); ok {
		t.Fatal("learned rows must not fire below the threshold")
	}

	// Unpublishing reverts to abstention and advances the epoch.
	l.SetModel(nil)
	if _, ok := rows.Detect(long); ok {
		t.Fatal("unpublished model must abstain")
	}
	if l.Epoch() != 2 {
		t.Fatalf("epoch = %d", l.Epoch())
	}
}

func TestOutcomesRing(t *testing.T) {
	o := NewOutcomes(16)
	for i := 0; i < 20; i++ {
		var v features.Vector
		v[0] = float64(i)
		o.Add(v, i%2 == 0)
	}
	if o.Len() != 16 {
		t.Fatalf("Len = %d", o.Len())
	}
	if o.Total() != 20 {
		t.Fatalf("Total = %d", o.Total())
	}
	snap := o.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	// Oldest retained example is #4 (0..3 overwritten), newest is #19.
	if snap[0].X[0] != 4 || snap[15].X[0] != 19 {
		t.Fatalf("ring order wrong: first=%v last=%v", snap[0].X[0], snap[15].X[0])
	}
}

// TestOutcomesRingAcrossChunks: a ring larger than one allocation chunk,
// with a short last chunk, keeps insertion order while it fills and the
// newest capacity examples, oldest first, once it wraps.
func TestOutcomesRingAcrossChunks(t *testing.T) {
	const capacity = 2*outcomeChunk + 44
	o := NewOutcomes(capacity)
	add := func(i int) {
		var v features.Vector
		v[0] = float64(i)
		o.Add(v, i%2 == 0)
	}
	check := func(first, n int) {
		t.Helper()
		snap := o.Snapshot()
		if len(snap) != n || o.Len() != n {
			t.Fatalf("snapshot holds %d, Len %d, want %d", len(snap), o.Len(), n)
		}
		for k, ex := range snap {
			if ex.X[0] != float64(first+k) {
				t.Fatalf("snapshot[%d] = #%v, want #%d", k, ex.X[0], first+k)
			}
		}
	}
	for i := 0; i < capacity-1; i++ {
		add(i)
	}
	check(0, capacity-1)
	for i := capacity - 1; i < 1000; i++ {
		add(i)
	}
	check(1000-capacity, capacity)
	if len(o.chunks) != 3 || len(o.chunks[2]) != 44 {
		t.Fatalf("storage is %d chunks, the last of %d examples; want 3, the last of 44", len(o.chunks), len(o.chunks[len(o.chunks)-1]))
	}
}

func TestOutcomesConcurrent(t *testing.T) {
	o := NewOutcomes(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var v features.Vector
				v[0] = float64(seed*1000 + i)
				o.Add(v, i%2 == 0)
				_ = o.Snapshot()
				_ = o.Len()
			}
		}(w)
	}
	wg.Wait()
	if o.Total() != 800 {
		t.Fatalf("Total = %d", o.Total())
	}
	if o.Len() != 64 {
		t.Fatalf("Len = %d", o.Len())
	}
}
