package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"botdetect/internal/agents"
)

// maxGenCPUShare is the generator CPU share above which a wire run is
// invalid: past it the generator, not the server, is what was measured.
const maxGenCPUShare = 0.8

// runWorkload runs one workload once and returns its result line.
func runWorkload(bin string, plan cpuPlan, o options) (result, error) {
	if o.workload == "codeen_mix" {
		if o.trace {
			return traceCodeen(o)
		}
		return runCodeen(o)
	}
	seconds := float64(o.seconds)
	var wl wireWorkload
	switch o.workload {
	case "browse_hot":
		wl = newBrowse(o.seed, seconds)
	case "churn_cold":
		wl = newChurn(o.seed)
	case "bigpage_origin":
		wl = newBigpage(o.seed)
	default:
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runWire(wl, bin, plan, o)
	if err != nil {
		return result{}, err
	}
	describeWire(res)
	quality := make(map[string]float64)
	if ok, fp, has := wl.quality(); has {
		quality["quality.human_ok_ratio"], quality["quality.human_fp_ratio"] = ok, fp
	}
	e2e := wireMetrics(res, wl.latencyLimitUs())
	e2e.putQuality(quality)
	out := result{Attempted: res.attempted, Failed: res.failed, Metrics: e2e.metrics, samples: e2e.samples}
	out.Correct = res.failed == 0
	if share := res.genCPUShare(); share > maxGenCPUShare && !o.smoke {
		fmt.Printf("INVALID: generator cpu share %.2f exceeds %.2f\n", share, maxGenCPUShare)
		out.Correct = false
	}
	if !o.trace {
		return out, nil
	}

	spec := wl.replaySpec(seconds)
	bare := spec.run(false)
	defer bare.close()
	led := spec.run(true)
	defer led.close()
	ls := layerMetrics(layerInputs{
		bare: bare, led: led, wire: res, limitUs: wl.latencyLimitUs(), counts: res.scraped,
		probe: wl.probeRequest(), quality: quality, upstream: o.workload == "bigpage_origin",
	})
	return finishTrace(out, ls, bare, led, o)
}

// finishTrace folds a replay into a wire (or empty) result: the per-layer
// metrics replace the end-to-end ones, replayed requests count as attempted,
// and a shadow that fell out of step with the surface makes the run incorrect
// — its ledger would describe some other request stream.
func finishTrace(out result, ls layerSet, bare, led *pass, o options) (result, error) {
	fmt.Printf("replay: %d requests bare in %.2f s, %d ledgered in %.2f s, %d spans, stream hash %016x\n",
		bare.client.count, bare.seconds, led.client.count, led.seconds, len(led.tr.spans), led.client.hash)
	led.tr.printSelfTimes()
	out.Metrics, out.samples = ls.metrics, ls.samples
	out.Attempted += int64(bare.client.count + led.client.count)
	if bare.client.hash != led.client.hash {
		fmt.Println("FAILED: the bare and the ledgered pass saw different request streams")
		out.Failed++
		out.Correct = false
	}
	if !led.synced {
		fmt.Println("FAILED: the shadow engines' counters differ from the surface engines'")
		out.Failed++
		out.Correct = false
	}
	if o.spans != "" {
		if err := led.tr.writeChrome(o.spans); err != nil {
			return out, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", o.spans)
	}
	return out, nil
}

// codeenSessions is the population size for a run of the given length: 4,000
// at the declared 20 seconds, 200 for a smoke run.
func codeenSessions(seconds int) int { return 200 * seconds }

// codeenSetupSamples is how many times the world is built to time set-up.
const codeenSetupSamples = 25

// codeenBudget is the wall-clock guard on the repeats: three take about 15
// seconds, and no further one is started once this much has gone by (see
// slowdownAllowance).
const codeenBudget = 30 * time.Second

// runCodeen runs the population codeenRepeats times on fresh networks — the
// same requests in the same order every time — and reports the median repeat.
func runCodeen(o options) (result, error) {
	sessions := codeenSessions(o.seconds)
	spec := codeenSpec(o.seed, sessions)
	// Set-up is timed first, each build from a collected heap: otherwise a
	// build is timed against the collection of the worlds before it, and the
	// median moves by ±9 % from run to run instead of ±3 %.
	var setup []float64
	for i := 0; i < codeenSetupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		buildCodeen(o.seed, sessions)
		setup = append(setup, time.Since(t0).Seconds())
	}
	// rss_peak_mb is this process's: the four-node network and its agents,
	// and nothing that ran before them.
	if err := resetPeakRSS(); err != nil {
		fmt.Printf("peak RSS mark not reset (%v): rss_peak_mb covers the whole process\n", err)
	}
	var reqPerSec, cpuUs, pageP50, bytesPerSession []float64
	var recv, orig float64
	var first codeenQuality
	out := result{Correct: true}
	start := time.Now()
	for r := 0; r < codeenRepeats && (r == 0 || time.Since(start) < codeenBudget); r++ {
		p := spec.run(false)
		w := p.codeen
		busyNs, pages := rootTimes(p)
		reqPerSec = append(reqPerSec, perUnit(float64(p.client.count), busyNs/1e9))
		cpuUs = append(cpuUs, p.cpuS*1e6/float64(p.client.count))
		pageP50 = append(pageP50, median(pages))
		bytesPerSession = append(bytesPerSession, w.bytesPerSession())
		recv += float64(w.recv)
		orig += float64(w.network.TotalStats().OriginBytes)
		q := w.judge()
		out.Attempted += int64(p.client.count)
		for _, f := range q.shapeFailures {
			fmt.Printf("FAILED Table 1 shape check: %s\n", f)
			out.Failed++
		}
		if r == 0 {
			first = q
			fmt.Printf("%d sessions (%d human, %d robot, %d blocked), %d requests in %.2f s\n", q.sessions, q.humans, q.robots, q.blocked, p.client.count, p.seconds)
		} else if q.digest() != first.digest() {
			fmt.Printf("FAILED: detection outcome differs between repeats: %q vs %q\n", first.digest(), q.digest())
			out.Failed++
		}
	}
	out.Correct = out.Failed == 0
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return out, err
	}
	fmt.Printf("  repeats req/s      %.0f\n  repeats cpu us/req %.1f\n  repeats page p50   %.1f us\n", reqPerSec, cpuUs, pageP50)
	ls := newLayerSet()
	ls.put("setup_s", median(setup), "s", len(setup))
	ls.put("loadgen.req_per_s", median(reqPerSec), "1/s", len(reqPerSec))
	ls.put("loadgen.cpu_us_per_req", median(cpuUs), "us", len(cpuUs))
	ls.put("rss_peak_mb", rss, "MB", 1)
	ls.put("bytes_per_session", median(bytesPerSession), "B", len(bytesPerSession))
	ls.put("overhead_bytes_ratio", perUnit(recv, orig)-1, "ratio", int(out.Attempted))
	ls.put("cdn.do_page_us", median(pageP50), "us", len(pageP50))
	ls.putQuality(first.values())
	out.Metrics, out.samples = ls.metrics, ls.samples
	return out, nil
}

// rootTimes returns how long the surface was busy with a pass's requests, in
// nanoseconds, and every page request's service time in microseconds.
func rootTimes(p *pass) (busyNs float64, pagesUs []float64) {
	for _, s := range p.tr.spans {
		if s.parent >= 0 {
			continue
		}
		d := float64(s.end - s.start)
		busyNs += d
		if s.name == p.n.servePage {
			pagesUs = append(pagesUs, d/1e3)
		}
	}
	return busyNs, pagesUs
}

// traceCodeen replays the population once bare and once ledgered.
func traceCodeen(o options) (result, error) {
	spec := codeenSpec(o.seed, codeenSessions(o.seconds))
	bare := spec.run(false)
	led := spec.run(true)
	counts := led.codeen.scrape()
	qb, ql := bare.codeen.judge(), led.codeen.judge()
	out := result{Correct: true}
	if qb.digest() != ql.digest() {
		fmt.Printf("FAILED: detection outcome differs between passes: %q vs %q\n", qb.digest(), ql.digest())
		out.Failed++
		out.Correct = false
	}
	ls := layerMetrics(layerInputs{
		bare: bare, led: led, counts: counts, cdn: true,
		probe:   agents.Request{Time: led.codeen.vc.Now().Add(time.Second), Method: "GET", Path: "/"},
		quality: ql.values(),
	})
	return finishTrace(out, ls, bare, led, o)
}
