package main

import (
	"fmt"
	"math"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/rng"
)

// This file runs a wire workload: it starts the real botproxy as its own
// process, takes it through warm-up, the closed loop and the open loop, then
// scrapes the admin listener, reads the server's peak RSS and runs the
// workload's final checks. The three wire workloads differ only in what one
// arrival does and in how they size their phases; everything measured is
// measured here, the same way for all of them.

// setupSamples is how many times a run starts the server to time set-up.
const setupSamples = 15

// rates are a workload's frozen open-loop arrival rates per second: 25 %,
// 50 % and 75 % of the closed-loop capacity measured when the benchmark was
// written. They are constants so that two commits always face the same load.
type rates struct{ lo, mid, hi float64 }

// phasePlan sizes a run. The measured part of a server generation is cut
// into slices, each a closed-loop burst of a fixed number of arrivals followed
// by an open-loop stretch of a fixed number of arrivals: fixed counts make the
// request stream, the session table and the script cache identical from run
// to run, and each metric is reported from the median slice.
type phasePlan struct {
	generations   int     // fresh servers in the run
	slices        int     // slices per generation
	closedCount   int64   // arrivals per closed-loop slice
	closedSeconds float64 // nominal length of each closed-loop slice
	openSeconds   float64 // nominal length of each open-loop slice; arrivals = rate × this
}

// slowdownAllowance is how many times its nominal length a phase may take
// before the rest of its arrivals are dropped. The counts are sized so that a
// phase takes about its nominal length; a host that parks the server's CPU
// for minutes (seen: ×10 for four minutes) must not turn a 25-second run into
// a 250-second one.
const slowdownAllowance = 3

func allowance(nominalSeconds float64) time.Duration {
	return time.Duration(slowdownAllowance * nominalSeconds * float64(time.Second))
}

// phaseShares splits a run's time between the closed loop and each open-loop
// rate it visits: 60 % closed and 40 % at the middle rate or, traced, 20 %
// closed and 10 % at each of the three rates (the replay takes the rest).
func phaseShares(trace bool) (closed, open float64) {
	if trace {
		return 0.2, 0.1
	}
	return 0.6, 0.4
}

// arrivalsPerSecond is how many arrivals a run makes per nominal second, so
// that a workload with a budget per server can tell how many servers it needs.
func arrivalsPerSecond(trace bool, closedRate float64, r rates) float64 {
	closed, open := phaseShares(trace)
	if trace {
		return closed*closedRate + open*(r.lo+r.mid+r.hi)
	}
	return closed*closedRate + open*r.mid
}

// sizePlan cuts a run of the given length into generations × slices.
// closedRate is roughly how many arrivals per second the closed loop
// completes; it only turns the closed-loop share of the time into a fixed
// arrival count.
func sizePlan(seconds float64, trace bool, generations, slices int, closedRate float64) phasePlan {
	closedShare, openShare := phaseShares(trace)
	total := float64(generations * slices)
	return phasePlan{
		generations:   generations,
		slices:        slices,
		closedCount:   int64(closedRate * closedShare * seconds / total),
		closedSeconds: closedShare * seconds / total,
		openSeconds:   openShare * seconds / total,
	}
}

// sliceCount is how many slices a run of the given length is cut into: about
// one per 1.7 measured seconds, never fewer than two.
func sliceCount(seconds float64) int {
	n := int(0.6*seconds + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// wireWorkload is what a wire workload supplies to the common runner.
type wireWorkload interface {
	// start brings up anything the server depends on (the stub origin) and
	// returns botproxy's flags.
	start() (flags []string, err error)
	// stop tears down what start brought up.
	stop()
	// plan sizes the phases for a run of the given length.
	plan(seconds float64, trace bool) phasePlan
	// rates are the frozen open-loop rates.
	rates() rates
	// latencyLimitUs is the p99 limit that defines loadgen.max_rate_ok.
	latencyLimitUs() float64
	// reset builds the per-generation client state.
	reset()
	// probe performs one verified request: the server is ready when it passes.
	probe(w *worker) error
	// warm performs the generation's fixed warm-up work.
	warm(g *loadgen)
	// unit is the work of one arrival.
	unit() unit
	// verify runs the workload's end-of-generation checks, reporting each
	// violated one through fail.
	verify(g *loadgen, admin *wireConn, scraped map[string]float64, fail func(reason string))
	// quality reports detection-quality ratios measured over the wire, when
	// the workload has them.
	quality() (humanOK, humanFP float64, ok bool)
	// replaySpec describes the in-process replay of the same request stream.
	replaySpec(seconds float64) replaySpec
	// probeRequest is a page request a client of the workload could make; the
	// allocation probes repeat it.
	probeRequest() agents.Request
}

// sliceResult is one slice's measurements.
type sliceResult struct {
	closed closedSlice
	open   map[string]openResult // by rate name: "lo", "mid", "hi"
}

// wireResult is everything a wire run measured.
type wireResult struct {
	setupS          []float64
	slices          []sliceResult // all generations, in order
	rssMB           []float64
	bytesPerSession []float64
	attempted       int64
	failed          int64
	dropped         int64 // planned arrivals not made because a phase outran its allowance
	bytesRecv       int64
	bytesOrig       int64
	reasons         map[string]int64
	scraped         map[string]float64 // last generation
}

const beaconPrefix = "/__bd"

// siteHost is the Host header the generator sends; the synthetic site uses
// the same name for its absolute URLs.
const siteHost = "www.example.com"

// runWire executes one wire workload.
func runWire(wl wireWorkload, bin string, plan cpuPlan, o options) (*wireResult, error) {
	seed, seconds, trace := o.seed, float64(o.seconds), o.trace
	res := &wireResult{
		reasons: make(map[string]int64),
	}
	flags, err := wl.start()
	if err != nil {
		return nil, err
	}
	defer wl.stop()

	pp := wl.plan(seconds, trace)
	src := rng.New(seed).Fork("arrivals")
	for gen := 0; gen < pp.generations; gen++ {
		if err := runGeneration(wl, bin, plan, flags, pp, src, o, res); err != nil {
			return nil, err
		}
	}
	// Set-up is timed several times per run: one spawn is a ~50 ms event on
	// a machine with other things to do. Only an end-to-end measurement
	// reports it.
	for !o.trace && !o.smoke && len(res.setupS) < setupSamples {
		p, setup, err := spawnReady(wl, bin, plan, flags)
		if err != nil {
			return nil, err
		}
		p.stop()
		res.setupS = append(res.setupS, setup)
	}
	return res, nil
}

// spawnReady starts botproxy and waits for the workload's first verified
// response; the elapsed time is one set-up sample.
func spawnReady(wl wireWorkload, bin string, plan cpuPlan, flags []string) (*proxyProc, float64, error) {
	t0 := time.Now()
	p, err := startProxy(bin, plan, flags...)
	if err != nil {
		return nil, 0, err
	}
	err = p.waitReady(func() error {
		w, err := newWorker(p.addr, siteHost, beaconPrefix)
		if err != nil {
			return err
		}
		defer w.conn.close()
		return wl.probe(w)
	})
	if err != nil {
		p.stop()
		return nil, 0, err
	}
	return p, time.Since(t0).Seconds(), nil
}

func runGeneration(wl wireWorkload, bin string, plan cpuPlan, flags []string, pp phasePlan, src *rng.Source, o options, res *wireResult) error {
	p, setup, err := spawnReady(wl, bin, plan, flags)
	if err != nil {
		return err
	}
	defer p.stop()
	res.setupS = append(res.setupS, setup)

	g, err := newLoadgen(p.addr, siteHost, beaconPrefix, p.pid(), len(plan.genCPUs))
	if err != nil {
		return err
	}
	defer g.close()
	wl.reset()
	wl.warm(g)

	do := wl.unit()
	r := wl.rates()
	type phase struct {
		name string
		rate float64
	}
	phases := []phase{{"mid", r.mid}}
	if o.trace {
		phases = []phase{{"lo", r.lo}, {"mid", r.mid}, {"hi", r.hi}}
	}
	for i := 0; i < pp.slices; i++ {
		sl := sliceResult{closed: g.runClosed(pp.closedCount, allowance(pp.closedSeconds), do), open: make(map[string]openResult)}
		for _, ph := range phases {
			planned := int64(ph.rate * pp.openSeconds)
			sl.open[ph.name] = g.runOpen(ph.rate, planned, allowance(pp.openSeconds), src, do)
			res.dropped += planned - sl.open[ph.name].arrivals
		}
		res.dropped += pp.closedCount - sl.closed.arrivals
		res.slices = append(res.slices, sl)
	}

	// Dialled only now: the server drops a connection that sends no request
	// within its header timeout.
	admin, err := dialWire(p.admin, "admin")
	if err != nil {
		return err
	}
	defer admin.close()
	scraped, err := scrapeMetrics(admin, beaconPrefix)
	if err != nil {
		return err
	}
	res.scraped = scraped
	if sessions := scraped["botdetect_sessions_active"]; sessions > 0 {
		res.bytesPerSession = append(res.bytesPerSession, scraped["botdetect_memory_estimate_bytes"]/sessions)
	}
	rss, err := peakRSSMB(p.pid())
	if err != nil {
		return err
	}
	res.rssMB = append(res.rssMB, rss)

	checkFailures := int64(0)
	wl.verify(g, admin, scraped, func(reason string) {
		res.reasons["check: "+reason]++
		checkFailures++
	})
	attempted, failed, recv, orig, reasons := g.totals()
	res.attempted += attempted
	res.failed += failed + checkFailures
	res.bytesRecv += recv
	res.bytesOrig += orig
	mergeReasons(res.reasons, reasons)
	select {
	case <-p.exited:
		return fmt.Errorf("botproxy died during the run:\n%s", p.stderr.String())
	default:
	}
	return nil
}

// wireMetrics turns a wire result into the end-to-end metrics and the
// generator's timings.
func wireMetrics(res *wireResult, limitUs float64) layerSet {
	ls := newLayerSet()
	ls.put("setup_s", median(res.setupS), "s", len(res.setupS))
	ls.put("rss_peak_mb", median(res.rssMB), "MB", len(res.rssMB))
	ls.put("bytes_per_session", median(res.bytesPerSession), "B", len(res.bytesPerSession))
	if res.bytesOrig > 0 {
		ls.put("overhead_bytes_ratio", float64(res.bytesRecv)/float64(res.bytesOrig)-1, "ratio", int(res.attempted))
	}
	loadgenMetrics(&ls, res, limitUs)
	return ls
}

// loadgenMetrics adds what the generator timed, each the median over the
// run's slices: closed-loop throughput and server CPU per request, its own
// CPU share and lateness, and the open-loop latencies at every rate the run
// visited (an end-to-end run visits the middle one, a traced run all three).
func loadgenMetrics(ls *layerSet, w *wireResult, limitUs float64) {
	ls.put("loadgen.cpu_share", w.genCPUShare(), "ratio", len(w.slices))
	var reqPerSec, cpuUs, late, obj, lat50, ttfb50 []float64
	for _, sl := range w.slices {
		reqPerSec = append(reqPerSec, sl.closed.reqPerSec)
		cpuUs = append(cpuUs, sl.closed.cpuUsPerReq)
		mid := sl.open["mid"]
		late = append(late, mid.late...)
		obj = append(obj, mid.objLat...)
		lat50 = append(lat50, median(mid.pageLat))
		ttfb50 = append(ttfb50, median(mid.ttfb))
	}
	ls.put("loadgen.req_per_s", median(reqPerSec), "1/s", len(reqPerSec))
	ls.put("loadgen.cpu_us_per_req", median(cpuUs), "us", len(cpuUs))
	ls.put("loadgen.lat_p50_us", median(lat50), "us", len(lat50))
	ls.put("loadgen.ttfb_p50_us", median(ttfb50), "us", len(ttfb50))
	ls.put("loadgen.late_p99_us", quantile(late, 0.99), "us", len(late))
	ls.put("loadgen.obj_p50_us", median(obj), "us", len(obj))
	var okRate float64
	var missed, arrivals int64
	for _, name := range []string{"lo", "mid", "hi"} {
		p99, _, samples := pooledTail(w.slices, name)
		ls.put("loadgen.lat_p99_us_"+name, p99, "us", samples)
		var rate, backlog float64
		var failed int64
		for _, sl := range w.slices {
			or := sl.open[name]
			rate, failed = or.rate, failed+or.failed+or.missed
			backlog = math.Max(backlog, or.backlogUs)
			missed, arrivals = missed+or.missed, arrivals+or.arrivals
		}
		// The rate holds when the tail meets the limit, nothing failed or
		// missed its deadline, and the last arrivals were not being sent
		// later and later.
		if samples > 0 && p99 <= limitUs && failed == 0 && backlog <= limitUs {
			okRate = rate
		}
	}
	ls.put("loadgen.max_rate_ok", okRate, "1/s", len(w.slices))
	ls.put("loadgen.deadline_missed", float64(missed), "count", int(arrivals))
}

// pooledTail pools the page latencies of every slice at one open-loop rate
// and returns their tail percentile, which percentile that was, and the
// sample count behind it.
func pooledTail(slices []sliceResult, rate string) (value, pct float64, samples int) {
	var pooled []float64
	for _, sl := range slices {
		pooled = append(pooled, sl.open[rate].pageLat...)
	}
	value, pct = tail(pooled)
	return value, pct, len(pooled)
}

// genCPUShare is the generator's CPU share in the median closed slice.
func (res *wireResult) genCPUShare() float64 {
	var vs []float64
	for _, sl := range res.slices {
		vs = append(vs, sl.closed.genCPUShare)
	}
	return median(vs)
}

// describeWire prints the run's diagnostics: sample counts, which tail
// percentile was reportable, and every failure reason.
func describeWire(res *wireResult) {
	var requests int64
	var seconds float64
	var reqPerSec, cpuUs []float64
	for _, sl := range res.slices {
		requests += sl.closed.requests
		seconds += sl.closed.seconds
		reqPerSec = append(reqPerSec, sl.closed.reqPerSec)
		cpuUs = append(cpuUs, sl.closed.cpuUsPerReq)
	}
	fmt.Printf("closed loop: %d requests in %.2f s over %d slices, generator cpu share %.2f\n",
		requests, seconds, len(res.slices), res.genCPUShare())
	fmt.Printf("  slices req/s      %.0f\n  slices cpu us/req %.1f\n", reqPerSec, cpuUs)

	for _, name := range []string{"lo", "mid", "hi"} {
		var all openResult
		var medians []float64
		for _, sl := range res.slices {
			or, ok := sl.open[name]
			if !ok {
				continue
			}
			all.rate = or.rate
			all.arrivals += or.arrivals
			all.missed += or.missed
			all.late = append(all.late, or.late...)
			medians = append(medians, median(or.pageLat))
		}
		if all.arrivals == 0 {
			continue
		}
		p99, pct, n := pooledTail(res.slices, name)
		fmt.Printf("open loop %-3s: %.0f/s, %d arrivals, slice p50s %.0f us; p%g %.1f us over %d samples; sent late p99 %.1f us, missed %d\n",
			name, all.rate, all.arrivals, medians, pct*100, p99, n, quantile(all.late, 0.99), all.missed)
	}
	if res.dropped > 0 {
		fmt.Printf("machine too slow: %d planned arrivals dropped after phases took over %d times their nominal length\n", res.dropped, slowdownAllowance)
	}
	printReasons("failures", res.reasons)
}

func printReasons(title string, reasons map[string]int64) {
	if len(reasons) == 0 {
		return
	}
	fmt.Printf("%s:\n", title)
	for _, k := range sortedKeys(reasons) {
		fmt.Printf("  %-45s %d\n", k, reasons[k])
	}
}
