package main

import (
	"io"
	"math"
	"strconv"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/htmlmod"
	"botdetect/internal/logfmt"
)

// This file turns a traced run into the per-layer metrics: medians of the
// spans the replay recorded, allocation counts from short probe loops on the
// same instances, exact byte counts, counters scraped from the program, and
// the generator's own diagnostics.

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	bare, led *pass              // the replay without and with the shadow
	wire      *wireResult        // nil for codeen_mix
	limitUs   float64            // the workload's p99 limit, for loadgen.max_rate_ok
	counts    map[string]float64 // the program's own counters, Prometheus names
	cdn       bool               // counts come from cdn.Node collectors
	upstream  bool               // the surface is a reverse proxy with a real origin behind it
	probe     agents.Request     // a page request a fresh client may make, for serve_allocs
	quality   map[string]float64 // quality.* values the workload measured
}

// layerSet collects metrics and the sample count behind each.
type layerSet struct {
	metrics map[string]metric
	samples map[string]int
}

// put stores a metric with the sample count behind it. A metric with no
// samples is left out: the layer is not on this workload's path.
func (ls *layerSet) put(name string, v float64, unit string, n int) {
	if n == 0 {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	ls.metrics[name] = metric{v, unit}
	ls.samples[name] = n
}

// spanMedian stores the median duration of a span name as metric.
func (ls *layerSet) spanMedian(durs map[string][]float64, span, name string) float64 {
	m := median(durs[span])
	ls.put(name, m, "us", len(durs[span]))
	return m
}

func newLayerSet() layerSet {
	return layerSet{metrics: make(map[string]metric), samples: make(map[string]int)}
}

func layerMetrics(in layerInputs) layerSet {
	ls := newLayerSet()
	led, bare := in.led.tr.durations(), in.bare.tr.durations()
	sh := in.led.sh

	// proxy / cdn: what the real surface took, from the ledgered pass.
	serve := ls.spanMedian(led, "proxy.serve", "proxy.serve_us")
	ls.spanMedian(led, "proxy.beacon", "proxy.beacon_us")
	ls.spanMedian(led, "proxy.passthrough", "proxy.passthrough_us")
	doPage := ls.spanMedian(led, "cdn.do_page", "cdn.do_page_us")
	ls.spanMedian(led, "cdn.do_beacon", "cdn.do_beacon_us")
	ls.spanMedian(led, "cdn.do_object", "cdn.do_object_us")
	pageSpan, barePage := "proxy.serve", median(bare["proxy.serve"])
	if in.cdn {
		pageSpan, barePage, serve = "cdn.do_page", median(bare["cdn.do_page"]), doPage
		// No generator here: throughput and CPU per request are the bare
		// pass's, over the time spent inside Network.Do.
		busyNs, _ := rootTimes(in.bare)
		n := in.bare.client.count
		ls.put("loadgen.req_per_s", perUnit(float64(n), busyNs/1e9), "1/s", n)
		ls.put("loadgen.cpu_us_per_req", perUnit(in.bare.cpuS*1e6, float64(n)), "us", n)
	}

	// core: the shadow engine's share of each request.
	ls.spanMedian(led, "core.admit", "core.admit_us")
	prepare := ls.spanMedian(led, "core.prepare_page", "core.prepare_page_us")
	ls.spanMedian(led, "core.beacon_css", "core.beacon_css_us")
	ls.spanMedian(led, "core.beacon_script", "core.beacon_script_us")
	ls.spanMedian(led, "core.beacon_exec", "core.beacon_exec_us")
	ls.spanMedian(led, "core.beacon_mouse", "core.beacon_mouse_us")
	ls.spanMedian(led, "core.observe", "core.observe_us")
	ls.spanMedian(led, "core.observe_new", "core.observe_new_us")
	ls.spanMedian(led, "core.decide", "core.decide_us")

	// The standalone layers.
	issue := ls.spanMedian(led, "keystore.issue", "keystore.issue_us")
	issueNew := ls.spanMedian(led, "keystore.issue_new", "keystore.issue_new_us")
	ls.spanMedian(led, "keystore.validate", "keystore.validate_us")
	ls.spanMedian(led, "session.observe", "session.observe_us")
	ls.spanMedian(led, "session.create", "session.create_us")
	ls.spanMedian(led, "session.peek", "session.peek_us")
	render := ls.spanMedian(led, "jsgen.render", "jsgen.render_us")
	compose := ls.spanMedian(led, "htmlmod.compose", "htmlmod.compose_us")
	ls.spanMedian(led, "htmlmod.rewrite_small", "htmlmod.rewrite_small_us")
	ls.spanMedian(led, "detect.classify", "detect.classify_us")
	ls.spanMedian(led, "policy.evaluate", "policy.evaluate_us")
	ls.spanMedian(led, "policy.blocked", "policy.blocked_us")

	// prepare_self: what PreparePage costs beyond the three calls it makes.
	// Warm clients dominate every stream but churn_cold's.
	if issue == 0 {
		issue = issueNew
	}
	ls.put("core.prepare_self_us", prepare-issue-render-compose, "us", len(led["core.prepare_page"]))

	// Exact byte counts.
	ls.put("htmlmod.added_bytes", median(sh.addedBytes), "B", len(sh.addedBytes))
	ls.put("jsgen.script_bytes", median(sh.scriptBytes), "B", len(sh.scriptBytes))
	ls.put("keystore.bytes_per_client", perUnit(float64(sh.ks.MemoryEstimate()), float64(sh.ks.Clients())), "B", sh.ks.Clients())
	ls.put("session.bytes_per_session", perUnit(float64(sh.tracker.MemoryEstimate()), float64(sh.tracker.Active())), "B", sh.tracker.Active())

	// Fixed probes on the 240 KB document, and allocation counts.
	big := renderDoc(corpusSource(), 0, largeDocSize)
	mbps, firstFlush := rewriteProbes(&sh.srw, &sh.prep, big)
	ls.put("htmlmod.rewrite_mb_per_s", mbps, "MB/s", rewriteProbeRuns)
	ls.put("htmlmod.first_flush_bytes", firstFlush, "B", 1)
	allocProbes(&ls, in)

	// The program's own counters.
	c := in.counts
	if in.cdn {
		blocked := sumWhere(c, "botdetect_node_enforcement_total", `action="blocked"`)
		challenged := sumWhere(c, "botdetect_node_enforcement_total", `action="challenged"`)
		beacons := sumSeries(c, "botdetect_node_instrumentation_hits_total")
		ls.put("proxy.requests_origin", sumSeries(c, "botdetect_node_requests_total")-beacons-blocked-challenged, "count", 1)
		ls.put("proxy.requests_beacon", beacons, "count", 1)
		ls.put("proxy.requests_blocked", blocked, "count", 1)
		ls.put("proxy.requests_challenged", challenged, "count", 1)
	} else {
		for _, outcome := range []string{"origin", "beacon", "blocked", "challenged"} {
			ls.put("proxy.requests_"+outcome, sumWhere(c, "botdetect_proxy_requests_total", `outcome="`+outcome+`"`), "count", 1)
		}
	}
	ls.put("core.shed_total", sumSeries(c, "botdetect_load_shed_total"), "count", 1)
	ls.put("keystore.evicted_total", sumSeries(c, "botdetect_keystore_evicted_clients_total"), "count", 1)
	ls.put("session.evicted_total", sumWhere(c, "botdetect_sessions_evicted_total", `reason="capacity`), "count", 1)
	hits, misses := sumWhere(c, "botdetect_intern_lookups_total", `result="hit"`), sumWhere(c, "botdetect_intern_lookups_total", `result="miss"`)
	ls.put("intern.hit_ratio", perUnit(hits, hits+misses), "ratio", int(hits+misses))
	ls.put("intern.bytes", sumSeries(c, "botdetect_intern_bytes"), "B", 1)
	cached, recomputed := sumWhere(c, "botdetect_classify_total", `result="cache_hit"`), sumWhere(c, "botdetect_classify_total", `result="recompute"`)
	ls.put("detect.cache_hit_ratio", perUnit(cached, cached+recomputed), "ratio", int(cached+recomputed))
	ls.put("detect.recomputes", recomputed, "count", 1)
	ls.put("policy.transitions", sumWhere(c, "botdetect_policy_decisions_total", `action="challenge"`)+
		sumSeries(c, "botdetect_policy_transitions_total")+sumWhere(c, "botdetect_policy_sessions", `stage="block"`), "count", 1)

	// The ledger: do the shadow's parts add up to what the surface took, and
	// what did running the shadow cost the surface?
	sums, _ := in.led.tr.childSums("ledger.request", "core.prepare_page")
	ls.put("ledger.residual_ratio", perUnit(math.Abs(median(sums)-serve), serve), "ratio", len(sums))
	ls.put("ledger.trace_overhead_ratio", perUnit(serve, barePage)-1, "ratio", len(bare[pageSpan]))
	inSync := 0.0
	if in.led.synced {
		inSync = 1
	}
	ls.put("ledger.shadow_in_sync", inSync, "count", 1)

	wireLayerMetrics(&ls, in, led, bare)
	ls.putQuality(in.quality)
	return ls
}

// putQuality stores the detection-quality values a workload measured.
func (ls *layerSet) putQuality(quality map[string]float64) {
	for name, v := range quality {
		unit := "ratio"
		if name == "quality.robot_reqs_to_block_p50" {
			unit = "requests"
		}
		ls.put(name, v, unit, 1)
	}
}

// wireLayerMetrics adds the metrics that need the wire run: the reverse
// proxy's upstream share, the wire overhead, and the generator diagnostics.
func wireLayerMetrics(ls *layerSet, in layerInputs, led, bare map[string][]float64) {
	w := in.wire
	if w == nil {
		return
	}
	// upstream: what a reverse-proxied page serve costs beyond rewriting it —
	// the origin round trip and the transport. An in-process origin has none.
	if in.upstream {
		ls.put("proxy.upstream_us", median(led["proxy.serve"])-median(led["htmlmod.rewrite_inline"]), "us", len(led["proxy.serve"]))
	}

	// wire overhead: server CPU per request over the wire minus the same
	// request mix served in-process. Requests the policy throttled sleep for
	// 10 ms and are left out of the in-process mean.
	var inProcess, n float64
	for _, span := range []string{"proxy.serve", "proxy.beacon", "proxy.passthrough", "proxy.refused"} {
		for _, d := range bare[span] {
			if d < 5000 {
				inProcess += d
				n++
			}
		}
	}
	var cpu []float64
	for _, sl := range w.slices {
		cpu = append(cpu, sl.closed.cpuUsPerReq)
	}
	ls.put("proxy.wire_overhead_us", median(cpu)-perUnit(inProcess, n), "us", int(n))
	loadgenMetrics(ls, w, in.limitUs)
}

func perUnit(total, units float64) float64 {
	if units == 0 {
		return 0
	}
	return total / units
}

const rewriteProbeRuns = 40

// firstWrite notes how many origin bytes had gone in when the first byte
// came out.
type firstWrite struct {
	fed   *int
	first int
}

func (f *firstWrite) Write(p []byte) (int, error) {
	if f.first < 0 && len(p) > 0 {
		f.first = *f.fed
	}
	return len(p), nil
}

// rewriteProbes streams doc through rw a number of times and returns the
// median scan rate, and how many origin bytes the rewriter had consumed
// (in 4 KiB reads, as a socket delivers them) before its first downstream
// write.
func rewriteProbes(rw *htmlmod.StreamRewriter, prep *htmlmod.Prepared, doc []byte) (mbPerS, firstFlushBytes float64) {
	var rates []float64
	for i := 0; i < rewriteProbeRuns; i++ {
		t0 := time.Now()
		rw.Reset(io.Discard, prep)
		_, _ = rw.Write(doc) // io.Discard cannot fail
		_ = rw.Close()
		rates = append(rates, float64(len(doc))/1e6/time.Since(t0).Seconds())
	}
	fed := 0
	fw := &firstWrite{fed: &fed, first: -1}
	rw.Reset(fw, prep)
	for off := 0; off < len(doc); off += 4 << 10 {
		end := off + 4<<10
		if end > len(doc) {
			end = len(doc)
		}
		fed = end
		_, _ = rw.Write(doc[off:end]) // firstWrite cannot fail
	}
	_ = rw.Close()
	return median(rates), float64(fw.first)
}

const (
	allocProbeRuns = 280
	// allocProbeClients share the surface probe's requests so that none of
	// them reaches the classification threshold: a client that asks for ten
	// pages and never fetches a stylesheet is a robot, and the policy would
	// challenge it and then sleep 10 ms on each request.
	allocProbeClients = 40
)

// allocProbes measures heap allocations per call of the hot operations, on
// the ledgered pass's warm instances, with a client of its own.
func allocProbes(ls *layerSet, in layerInputs) {
	sh := in.led.sh
	const ip, ua = "192.0.2.9", "alloc-probe/1.0"
	node := sh.nodes[0]
	page := stripQuery(in.probe.Path)

	probe, next := in.probe, 0
	probe.UserAgent = ua
	var ips [allocProbeClients]string
	for i := range ips {
		ips[i] = "192.0.2." + strconv.Itoa(100+i)
	}
	serve := func() {
		probe.IP = ips[next%allocProbeClients]
		next++
		in.led.client.surface.Do(probe)
	}
	for i := 0; i < allocProbeClients; i++ {
		serve() // session creation stays outside the measured window
	}
	ls.put("proxy.serve_allocs", mallocsPer(allocProbeRuns-1, serve), "count", allocProbeRuns-1)
	ls.put("core.prepare_allocs", mallocsPer(allocProbeRuns, func() { node.eng.PreparePage(ip, ua, page, &node.ps) }), "count", allocProbeRuns)
	ls.put("keystore.issue_allocs", mallocsPer(allocProbeRuns, func() { sh.ks.IssuePage(ip, page, &sh.pk) }), "count", allocProbeRuns)
	entry := logfmt.Entry{Time: in.probe.Time, ClientIP: ip, UserAgent: ua, Method: "GET", Path: page, Protocol: "HTTP/1.1", Status: 200, Bytes: 2048, ContentType: "text/html"}
	ls.put("session.observe_allocs", mallocsPer(allocProbeRuns, func() { sh.tracker.ObserveQuiet(entry) }), "count", allocProbeRuns)
	ls.put("jsgen.render_allocs", mallocsPer(allocProbeRuns, func() {
		sh.script = sh.pool.Pick(sh.picks.Uint64()).RenderKeys(sh.script[:0], sh.pk.Key, sh.pk.ScriptToken, sh.pk.Decoys, sh.pk.Digits)
	}), "count", allocProbeRuns)
	_, _, body := sh.origin(in.probe.Path)
	ls.put("htmlmod.rewrite_allocs", mallocsPer(allocProbeRuns, func() {
		sh.srw.Reset(io.Discard, &sh.prep)
		_, _ = sh.srw.Write(body) // io.Discard cannot fail
		_ = sh.srw.Close()
	}), "count", allocProbeRuns)
}
