package core

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"botdetect/internal/adaboost"
	"botdetect/internal/features"
	"botdetect/internal/session"
)

// TestTelemetryStagesObserve verifies every instrumented serve-path stage
// actually reports: page preparation, keystore issue, beacon handling,
// classification (cache hit and recompute), rotation and retraining.
func TestTelemetryStagesObserve(t *testing.T) {
	e := New(Config{Seed: 21, ObfuscateJS: true})
	tel := e.Telemetry()

	_, inst := instrumentPage(e, "10.9.0.1", "Firefox/1.5", []byte("<html><head></head><body></body></html>"))
	if tel.Prepare.Snapshot().Count == 0 {
		t.Fatal("Prepare histogram did not observe the page prepare")
	}
	if tel.KeystoreIssue.Snapshot().Count == 0 {
		t.Fatal("KeystoreIssue histogram did not observe the key issue")
	}

	if _, ok := e.HandleBeacon("10.9.0.1", "Firefox/1.5", inst.ScriptPath); !ok {
		t.Fatal("script path must be handled as instrumentation")
	}
	if tel.Beacon.Snapshot().Count == 0 {
		t.Fatal("Beacon histogram did not observe the script serve")
	}

	key := session.Key{IP: "10.9.0.1", UserAgent: "Firefox/1.5"}
	readVerdict(e, key)
	recomputes := tel.ClassifyRecomputes.Value()
	if recomputes == 0 {
		t.Fatal("first classification must recompute")
	}
	if tel.Classify.Snapshot().Count != recomputes {
		t.Fatalf("Classify histogram count %d != recomputes %d", tel.Classify.Snapshot().Count, recomputes)
	}
	readVerdict(e, key)
	if tel.ClassifyCacheHits.Value() == 0 {
		t.Fatal("second classification must hit the verdict cache")
	}

	e.RotateScripts()
	if tel.ScriptRotations.Value() != 1 {
		t.Fatalf("ScriptRotations = %d, want 1", tel.ScriptRotations.Value())
	}

	if _, err := e.RetrainFromOutcomes(adaboost.Config{Rounds: 4}); err == nil {
		t.Fatal("retrain without outcomes should fail")
	}
	if tel.TrainerErrors.Value() != 1 {
		t.Fatalf("TrainerErrors = %d, want 1", tel.TrainerErrors.Value())
	}
	for i := 0; i < 64; i++ {
		var v features.Vector
		v[0] = float64(i%2) * 0.9
		e.RecordOutcomeVector(v, i%2 == 0)
	}
	if _, err := e.RetrainFromOutcomes(adaboost.Config{Rounds: 4}); err != nil {
		t.Fatalf("retrain with outcomes failed: %v", err)
	}
	if tel.TrainerRetrains.Value() != 1 {
		t.Fatalf("TrainerRetrains = %d, want 1", tel.TrainerRetrains.Value())
	}

	// The scrape must include the engine collectors and the stage histograms.
	var sb strings.Builder
	if err := tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"botdetect_pages_instrumented_total 1",
		"botdetect_keystore_keys_issued_total 1",
		"botdetect_keystore_batches_drawn_total 1",
		"botdetect_script_rotations_total 1",
		`botdetect_stage_duration_seconds_count{stage="prepare_instrumentation"} 1`,
		`botdetect_shard_sessions{shard="0"}`,
		"botdetect_model_epoch 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMemoryComponentsSumToEstimate reads where the estimated bytes go off
// one scrape: botdetect_memory_component_bytes carries the sessions, keystore
// and intern components, each with the engine's node label, and they add up
// to botdetect_memory_estimate_bytes in the same exposition.
func TestMemoryComponentsSumToEstimate(t *testing.T) {
	e := New(Config{Seed: 27, TelemetryNode: "edge-1"})
	for i := 0; i < 40; i++ {
		ip := fmt.Sprintf("10.7.0.%d", i)
		_, inst := instrumentPage(e, ip, "Firefox/1.5", []byte("<html><head></head><body></body></html>"))
		if i%2 == 0 {
			e.HandleBeacon(ip, "Firefox/1.5", inst.ScriptPath)
		}
	}
	var sb strings.Builder
	if err := e.Telemetry().Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	components := map[string]float64{}
	estimate := -1.0
	for _, line := range strings.Split(sb.String(), "\n") {
		sample, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		switch name, labels, _ := strings.Cut(sample, "{"); name {
		case "botdetect_memory_estimate_bytes":
			estimate = v
		case "botdetect_memory_component_bytes":
			components[strings.TrimSuffix(labels, "}")] = v
		}
	}
	sum := 0.0
	for _, c := range []string{"sessions", "keystore", "intern"} {
		v, ok := components[`component="`+c+`",node="edge-1"`]
		if !ok || v <= 0 {
			t.Fatalf("component %q missing or empty in %v", c, components)
		}
		sum += v
	}
	if len(components) != 3 || sum != estimate {
		t.Fatalf("components %v sum to %.0f, estimate %.0f", components, sum, estimate)
	}
}

// TestScrapeVersusServing is the consistency hammer: continuous Prometheus
// scrapes race page serving, beacon handling, classification, script
// rotation and retraining. Under -race this proves the scrape path shares no
// unsynchronised state with the serve path; in any mode it checks totals
// only ever grow.
func TestScrapeVersusServing(t *testing.T) {
	e := New(Config{Seed: 23, ObfuscateJS: true})
	tel := e.Telemetry()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := fmt.Sprintf("10.8.0.%d", w)
			key := session.Key{IP: ip, UserAgent: "Firefox/1.5"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, inst := instrumentPage(e, ip, "Firefox/1.5", []byte("<html><head></head><body></body></html>"))
				e.HandleBeacon(ip, "Firefox/1.5", inst.ScriptPath)
				readVerdict(e, key)
				if i%50 == 0 {
					e.RecordOutcomeVector(features.Vector{0: float64(i%2) * 0.8}, i%2 == 0)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			e.RotateScripts()
			_, _ = e.RetrainFromOutcomes(adaboost.Config{Rounds: 2})
		}
	}()

	var lastPages, lastBeacons int64
	for i := 0; i < 100; i++ {
		if err := tel.Registry().WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		pages := e.Stats().PagesInstrumented
		beacons := tel.Beacon.Snapshot().Count
		if pages < lastPages || beacons < lastBeacons {
			t.Fatalf("totals went backwards: pages %d→%d beacons %d→%d",
				lastPages, pages, lastBeacons, beacons)
		}
		lastPages, lastBeacons = pages, beacons
	}
	close(stop)
	wg.Wait()
}
