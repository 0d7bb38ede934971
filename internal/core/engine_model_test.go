package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/detect"
	"botdetect/internal/features"
	"botdetect/internal/jsgen"
	"botdetect/internal/logfmt"
	"botdetect/internal/session"
)

// trainTestModel fits a small separable model: high referrer share = human.
func trainTestModel(t testing.TB, rounds int) *adaboost.Model {
	t.Helper()
	var examples []features.Example
	for i := 0; i < 60; i++ {
		var v features.Vector
		if i%2 == 0 {
			v[features.ReferrerPct] = 0.7 + float64(i%10)/100
			examples = append(examples, features.Example{X: v, Human: true})
		} else {
			v[features.HTMLPct] = 0.8 + float64(i%10)/100
			examples = append(examples, features.Example{X: v, Human: false})
		}
	}
	m, err := adaboost.Train(examples, adaboost.Config{Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSetModelChangesVerdictAndInvalidatesCache(t *testing.T) {
	d := New(Config{Seed: 21})
	key := session.Key{IP: "10.4.0.1", UserAgent: "RefBot"}
	// A session past the threshold whose every request is a referrered image
	// fetch: the rules call it robot (no presentation objects), the learned
	// model below calls it human (high referrer share, no HTML).
	for i := 0; i < 12; i++ {
		d.ObserveRequestQuiet(logfmt.Entry{
			ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET",
			Path: fmt.Sprintf("/img/p%d.jpg", i), Status: 200, Referer: "http://h/prev.html",
			ContentType: "image/jpeg",
		})
	}
	v := readVerdict(d, key)
	if v.Class != ClassRobot {
		t.Fatalf("rules-only verdict = %+v", v)
	}
	// Classify again: the cached verdict must be identical.
	if v2 := readVerdict(d, key); v2 != v {
		t.Fatalf("cached verdict differs: %+v vs %+v", v2, v)
	}

	d.SetModel(trainTestModel(t, 40))
	v = readVerdict(d, key)
	if v.Class != ClassHuman {
		t.Fatalf("verdict after hot swap = %+v", v)
	}
	if d.Model() == nil {
		t.Fatal("Model() lost the published model")
	}

	// Unpublish: back to the behavioural rules.
	d.SetModel(nil)
	if v := readVerdict(d, key); v.Class != ClassRobot {
		t.Fatalf("verdict after unpublish = %+v", v)
	}

	// Direct evidence always outranks the model.
	d.SetModel(trainTestModel(t, 40))
	d.HandleBeacon(key.IP, key.UserAgent, objectPath(jsgen.HiddenPathParts, d.Config().BeaconPrefix, "xyz"))
	if v := readVerdict(d, key); v.Class != ClassRobot || v.Confidence != Definite {
		t.Fatalf("direct evidence lost to the model: %+v", v)
	}
}

// TestModelHotSwapRace hammers Engine.SetModel concurrently with the full
// serving surface — ObserveRequestQuiet, Classify, Decide, HandleBeacon and
// retraining — proving (under -race) that model hot-swap takes no locks the
// read path can trip over and that cached verdicts never tear.
func TestModelHotSwapRace(t *testing.T) {
	d := New(Config{Seed: 33, Shards: 8})
	modelA := trainTestModel(t, 20)
	modelB := trainTestModel(t, 60)

	keys := make([]session.Key, 32)
	for i := range keys {
		keys[i] = session.Key{IP: fmt.Sprintf("10.5.%d.%d", i/8, i%8), UserAgent: "UA-" + string(rune('a'+i%16))}
	}
	// Seed every session past the classification threshold.
	for _, k := range keys {
		for i := 0; i < 12; i++ {
			d.ObserveRequestQuiet(logfmt.Entry{ClientIP: k.IP, UserAgent: k.UserAgent, Method: "GET",
				Path: fmt.Sprintf("/s%d.html", i), Status: 200, Referer: "http://h/x.html"})
		}
	}

	const iters = 1500
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Swapper: flips between two models, nil, and retrained-from-outcomes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			switch i % 4 {
			case 0:
				d.SetModel(modelA)
			case 1:
				d.SetModel(nil)
			case 2:
				d.SetModel(modelB)
			default:
				d.RecordOutcomeVector(features.Vector{features.ReferrerPct: 0.9}, true)
				d.RecordOutcomeVector(features.Vector{features.HTMLPct: 0.9}, false)
				_, _ = d.RetrainFromOutcomes(adaboost.Config{Rounds: 4})
			}
		}
		stop.Store(true)
	}()

	// Readers and writers on the serving surface.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := keys[(seed+i)%len(keys)]
				switch i % 4 {
				case 0:
					v := readVerdict(d, k)
					if v.Class == ClassUndecided && v.Rule == 0 {
						t.Error("torn verdict")
						return
					}
				case 1:
					d.ObserveRequestQuiet(logfmt.Entry{ClientIP: k.IP, UserAgent: k.UserAgent, Method: "GET",
						Path: "/r.html", Status: 200})
				case 2:
					if snap, v, ok := d.Decide(k); ok && snap.Counts.Total >= 10 && v.Class == ClassUndecided {
						t.Errorf("decided session came back undecided: %+v", v)
						return
					}
				default:
					d.HandleBeacon(k.IP, k.UserAgent, d.Config().BeaconPrefix+"/beacon.css")
				}
			}
		}(w)
	}
	wg.Wait()

	// The engine must still classify coherently after the storm.
	d.SetModel(modelA)
	for _, k := range keys {
		if v := readVerdict(d, k); v.Class == ClassUndecided {
			t.Fatalf("session %v undecided after %d requests", k, 12)
		}
	}
}

// TestClassifySteadyStateZeroAllocs pins the acceptance criterion that the
// cached, incrementally-featured classify path allocates nothing once a
// session's verdict is cached.
func TestClassifySteadyStateZeroAllocs(t *testing.T) {
	d := New(Config{Seed: 55})
	d.SetModel(trainTestModel(t, 40))
	key := session.Key{IP: "10.6.0.1", UserAgent: "Steady"}
	for i := 0; i < 15; i++ {
		d.ObserveRequestQuiet(logfmt.Entry{ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET",
			Path: fmt.Sprintf("/p%d.html", i), Status: 200, Referer: "http://h/x.html"})
	}
	readVerdict(d, key) // warm the cache

	if allocs := testing.AllocsPerRun(200, func() { readVerdict(d, key) }); allocs != 0 {
		t.Fatalf("steady-state Classify allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDecideRecomputeZeroAlloc gates the other half of the verdict read
// path: a Decide whose session moved epoch since its verdict was stored
// re-runs the chain and writes the verdict back into the session record,
// and neither allocates. (While the verdict lived beside the record, every
// recompute allocated the holder and the boxed Verdict: 2 allocs.) The hit
// that follows stays at 0 too.
func TestDecideRecomputeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceiling not meaningful under -race")
	}
	d := New(Config{Seed: 56})
	d.SetModel(trainTestModel(t, 40))
	key := session.Key{IP: "10.6.0.2", UserAgent: "Recompute"}
	for i := 0; i < 15; i++ {
		d.ObserveRequestQuiet(logfmt.Entry{ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET",
			Path: fmt.Sprintf("/p%d.html", i), Status: 200, Referer: "http://h/x.html"})
	}
	decide := func() {
		snap, v, ok := d.Decide(key)
		if !ok || v.Class == ClassUndecided {
			t.Fatalf("Decide = %+v, %v", v, ok)
		}
		snap.Release()
	}
	decide() // warm the snapshot pool

	const runs = 200
	recomputes := d.tel.ClassifyRecomputes.Value()
	if allocs := testing.AllocsPerRun(runs, func() { d.sessions.Bump(key); decide() }); allocs != 0 {
		t.Errorf("Bump + recomputing Decide allocates %.1f objects/op, want 0", allocs)
	}
	if got := d.tel.ClassifyRecomputes.Value() - recomputes; got != runs+1 {
		t.Fatalf("%d recomputes over %d bumped Decides (AllocsPerRun runs one more), want every one", got, runs)
	}
	hits := d.tel.ClassifyCacheHits.Value()
	if allocs := testing.AllocsPerRun(runs, decide); allocs != 0 {
		t.Errorf("Decide on a stored verdict allocates %.1f objects/op, want 0", allocs)
	}
	if got := d.tel.ClassifyCacheHits.Value() - hits; got != runs+1 {
		t.Fatalf("%d hits over %d Decides after the write-back, want every one", got, runs+1)
	}
}

// TestRemoteRecomputeZeroAlloc is TestDecideRecomputeZeroAlloc for a
// session a fleet peer judged: the remote row serves the peer's verdict, the
// write-back stores its origin as an index into the fleet's membership, and
// the hit that follows decodes it — none of it allocates.
func TestRemoteRecomputeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc ceiling not meaningful under -race")
	}
	d := New(Config{Seed: 57})
	key := session.Key{IP: "10.6.0.3", UserAgent: "Remote"}
	d.ObserveRequestQuiet(logfmt.Entry{ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET", Path: "/", Status: 200})
	peer := Verdict{Class: ClassRobot, Confidence: Definite, Rule: detect.RuleDecoy, AtRequest: 3, Origin: "c"}
	d.SetFleet(&stubFleet{peer: map[session.Key]Verdict{key: peer}})
	decide := func() {
		snap, v, ok := d.Decide(key)
		if !ok || v != peer {
			t.Fatalf("Decide = %+v, %v; want the peer's %+v", v, ok, peer)
		}
		snap.Release()
	}
	decide()

	const runs = 200
	recomputes := d.tel.ClassifyRecomputes.Value()
	if allocs := testing.AllocsPerRun(runs, func() { d.ApplyRemoteVerdict(key); decide() }); allocs != 0 {
		t.Errorf("ApplyRemoteVerdict + recomputing Decide allocates %.1f objects/op, want 0", allocs)
	}
	if got := d.tel.ClassifyRecomputes.Value() - recomputes; got != runs+1 {
		t.Fatalf("%d recomputes over %d bumped Decides, want every one", got, runs)
	}
	hits := d.tel.ClassifyCacheHits.Value()
	if allocs := testing.AllocsPerRun(runs, decide); allocs != 0 {
		t.Errorf("Decide on a stored peer verdict allocates %.1f objects/op, want 0", allocs)
	}
	if got := d.tel.ClassifyCacheHits.Value() - hits; got != runs+1 {
		t.Fatalf("%d hits over %d Decides after the write-back, want every one", got, runs+1)
	}
}

// TestTrainerLoopRetrainsAndSwaps steps the trainer over real outcomes: too
// few new outcomes leave the model alone, enough publish one.
func TestTrainerLoopRetrainsAndSwaps(t *testing.T) {
	d := New(Config{Seed: 77})
	step := d.trainerStep(10, adaboost.Config{Rounds: 8})
	record := func(from, to int) {
		for i := from; i < to; i++ {
			var v features.Vector
			if i%2 == 0 {
				v[features.ReferrerPct] = 0.8
			} else {
				v[features.HTMLPct] = 0.9
			}
			d.RecordOutcomeVector(v, i%2 == 0)
		}
	}
	record(0, 8)
	step(time.Time{})
	if d.Model() != nil {
		t.Fatal("trainer published a model on 8 outcomes, under its minimum of 10")
	}
	record(8, 40)
	step(time.Time{})
	if d.Model() == nil {
		t.Fatal("trainer never published a model")
	}
	// The published model must reflect the outcomes' structure.
	if !d.Model().Predict(features.Vector{features.ReferrerPct: 0.8}) {
		t.Fatal("published model misclassifies the training structure")
	}
	if d.Learned().Epoch() == 0 {
		t.Fatal("model epoch did not advance")
	}
}

// TestFreshEngineHoldsNoOutcomeBuffer: the outcome ring grows on demand, so
// an engine that has seen no ground truth pays next to nothing for it — not
// OutcomeCapacity examples up front: a fresh engine with room for 4,096
// outcomes costs what one with room for a single outcome does.
func TestFreshEngineHoldsNoOutcomeBuffer(t *testing.T) {
	heapOf := func(cfg Config) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		New(cfg)
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	cost := int64(math.MaxInt64)
	for i := 0; i < 3; i++ { // the smallest of three: a stray allocation elsewhere only inflates
		cost = min(cost, heapOf(Config{Seed: 3, OutcomeCapacity: 4096})-heapOf(Config{Seed: 3, OutcomeCapacity: 1}))
	}
	if cost >= 1024 {
		t.Fatalf("a fresh engine holds %d B of outcome buffer, want < 1 KB", cost)
	}
	e := New(Config{Seed: 3, OutcomeCapacity: 20})
	for i := 0; i < 50; i++ {
		e.RecordOutcomeVector(features.Vector{}, i%2 == 0)
	}
	if e.OutcomeCount() != 20 || e.outcomes.Total() != 50 {
		t.Fatalf("ring holds %d of %d outcomes, want 20 of 50", e.OutcomeCount(), e.outcomes.Total())
	}
}
