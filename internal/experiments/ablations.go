package experiments

import (
	"fmt"

	"botdetect/internal/agents"
	"botdetect/internal/baselines"
	"botdetect/internal/core"
	"botdetect/internal/jsgen"
	"botdetect/internal/metrics"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/workload"
)

// AblationDecoysResult measures how the number of decoy functions (m) drives
// the probability of catching robots that fetch beacon URLs without
// executing the script (Section 2.1's (m-1)/m argument).
type AblationDecoysResult struct {
	// Rows holds one entry per decoy count.
	Rows []DecoyRow
}

// DecoyRow is one decoy-count configuration.
type DecoyRow struct {
	// Decoys is m.
	Decoys int
	// SinglePickCatchRate is the measured catch probability for a robot that
	// fetches exactly one scraped beacon URL at random (expected m/(m+1)).
	SinglePickCatchRate float64
	// FetchAllCatchRate is the measured catch probability for a robot that
	// fetches every scraped URL (expected 1: it must hit a decoy).
	FetchAllCatchRate float64
	// Expected is the analytic m/(m+1) value.
	Expected float64
}

// blindFetcherUA is what the URL-scraping robots of the decoy sweep present.
const blindFetcherUA = "blind-fetcher/1.0"

// scrapedBeacons serves one page view to ip on e, downloads its script the way
// any client does and returns the mouse-beacon URLs (<key>.jpg) a robot that
// scrapes URLs out of the script text finds: the real one and the decoys, in
// the script's own shuffled order.
func scrapedBeacons(e *core.Engine, ip string) []string {
	var ps core.PageState
	servePage(e, ip, blindFetcherUA, &ps)
	resp, _ := e.HandleBeacon(ip, blindFetcherUA, scriptPath(e, &ps))
	defer resp.Done()
	var urls []string
	for _, u := range agents.AllBeaconURLs(string(resp.Body)) {
		if obj, _, _, _ := jsgen.ParsePath(e.Config().BeaconPrefix, u); obj == jsgen.ObjectBeacon {
			urls = append(urls, u)
		}
	}
	return urls
}

// caughtFetching has the client at ip fetch urls and reports whether the
// engine then holds decoy evidence against its session.
func caughtFetching(e *core.Engine, ip string, urls []string) bool {
	for _, u := range urls {
		e.HandleBeacon(ip, blindFetcherUA, u)
	}
	snap, _ := e.Session(session.Key{IP: ip, UserAgent: blindFetcherUA})
	return snap.Signals.Has(session.SignalDecoy)
}

// AblationDecoys sweeps the decoy count and measures blind-fetcher catch
// rates against a serving engine: every trial is a page view whose script is
// downloaded and scraped, and whose scraped beacons are fetched back.
func AblationDecoys(scale Scale) AblationDecoysResult {
	scale = scale.withDefaults()
	src := rng.New(scale.Seed ^ 0xdec0)
	trials := scale.Sessions
	if trials < 100 {
		trials = 100
	}

	var out AblationDecoysResult
	for _, m := range []int{1, 2, 4, 8, 16} {
		e := core.New(core.Config{Decoys: m, ObfuscateJS: true, Seed: src.Uint64()})
		caughtSingle, caughtAll := 0, 0
		for i := 0; i < trials; i++ {
			ip := fmt.Sprintf("10.77.%d.%d", i/250, i%250)
			urls := scrapedBeacons(e, ip)
			if len(urls) == 0 {
				continue
			}
			// Single random pick.
			pick := src.Intn(len(urls))
			if caughtFetching(e, ip, urls[pick:pick+1]) {
				caughtSingle++
			}
			// Fetch-all robot: caught as soon as any decoy is hit.
			ip2 := ip + ":all"
			if caughtFetching(e, ip2, scrapedBeacons(e, ip2)) {
				caughtAll++
			}
		}
		out.Rows = append(out.Rows, DecoyRow{
			Decoys:              m,
			SinglePickCatchRate: float64(caughtSingle) / float64(trials),
			FetchAllCatchRate:   float64(caughtAll) / float64(trials),
			Expected:            float64(m) / float64(m+1),
		})
	}
	return out
}

// Format renders the result as text.
func (r AblationDecoysResult) Format() string {
	t := metrics.NewTable("Ablation — decoy count vs. blind-fetcher catch rate",
		"Decoys (m)", "Single-pick catch rate", "Expected m/(m+1)", "Fetch-all catch rate")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.Decoys),
			fmt.Sprintf("%.3f", row.SinglePickCatchRate),
			fmt.Sprintf("%.3f", row.Expected),
			fmt.Sprintf("%.3f", row.FetchAllCatchRate))
	}
	return t.Format()
}

// BaselineComparisonResult compares the paper's real-time detector against
// the related-work baselines on the same labelled workload.
type BaselineComparisonResult struct {
	Rows []BaselineRow
}

// BaselineRow is one detector's aggregate performance.
type BaselineRow struct {
	// Name identifies the detector.
	Name string
	// Accuracy, FPR and FNR are measured against ground truth over sessions
	// with more than ten requests.
	Accuracy float64
	FPR      float64
	FNR      float64
	// Undecided is the fraction of sessions the detector left unclassified.
	Undecided float64
}

// BaselineComparison evaluates the combining-rule detector, the heuristic
// robots.txt/User-Agent baseline, and a majority-robot default on one
// workload.
func BaselineComparison(scale Scale) BaselineComparisonResult {
	scale = scale.withDefaults()
	res := workload.Run(workload.Config{Sessions: scale.Sessions, Seed: scale.Seed ^ 0xbc, RecordLogs: true})

	heur := baselines.NewHeuristic()
	for _, e := range res.Entries {
		heur.Observe(e)
	}

	var detectorCM, heuristicCM, defaultCM metrics.ConfusionMatrix
	undecided := 0
	considered := 0
	for _, s := range res.Sessions {
		if s.Snapshot.Counts.Total <= 10 {
			continue
		}
		considered++
		isHuman := s.IsHuman()

		switch s.Verdict.Class {
		case core.ClassUndecided:
			undecided++
			// Count undecided as "not classified human": conservative.
			detectorCM.Record(false, isHuman)
		default:
			detectorCM.Record(s.Verdict.Class == core.ClassHuman, isHuman)
		}

		heuristicSaysRobot := heur.IsRobot(session.Key{IP: s.Snapshot.Key.IP, UserAgent: s.Snapshot.Key.UserAgent})
		heuristicCM.Record(!heuristicSaysRobot, isHuman)

		defaultCM.Record(false, isHuman) // "everything is a robot"
	}

	mk := func(name string, cm metrics.ConfusionMatrix, und int) BaselineRow {
		row := BaselineRow{Name: name, Accuracy: cm.Accuracy(), FPR: cm.FalsePositiveRate(), FNR: cm.FalseNegativeRate()}
		if considered > 0 {
			row.Undecided = float64(und) / float64(considered)
		}
		return row
	}
	return BaselineComparisonResult{Rows: []BaselineRow{
		mk("combining rule (this paper)", detectorCM, undecided),
		mk("robots.txt / User-Agent heuristic", heuristicCM, 0),
		mk("all-robot default", defaultCM, 0),
	}}
}

// Format renders the result as text.
func (r BaselineComparisonResult) Format() string {
	t := metrics.NewTable("Baseline comparison (sessions with > 10 requests)",
		"Detector", "Accuracy (%)", "FPR (%)", "FNR (%)", "Undecided (%)")
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.1f", row.Accuracy*100),
			fmt.Sprintf("%.1f", row.FPR*100),
			fmt.Sprintf("%.1f", row.FNR*100),
			fmt.Sprintf("%.1f", row.Undecided*100))
	}
	return t.Format()
}
