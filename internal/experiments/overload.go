package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/chaos"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/htmlmod"
	"botdetect/internal/proxy"
	"botdetect/internal/session"
	"botdetect/internal/telemetry"
)

// The flash-crowd resilience run: a deliberately small engine flooded with
// 2.5x its session capacity. One driver goroutine issues every request over
// real loopback sockets, one at a time, and moves the engine's virtual clock
// a fixed step before each, so the run is a schedule, not a race: the same
// seed gives the same report.
const (
	// overloadMaxSessions is the engine's session-table capacity; kept small
	// so the flood saturates it quickly.
	overloadMaxSessions = 2048
	// overloadShards fixes the shard count, which otherwise follows the
	// machine's CPUs and would make the report differ between machines.
	overloadShards = 8
	// overloadMemoryBudget bounds the engine's estimated tracker+keystore
	// bytes.
	overloadMemoryBudget = 256 << 20
	// overloadEstablished is the number of evidence-bearing sessions created
	// before the flood.
	overloadEstablished = 256
	// overloadFloodFactor is the flood size as a multiple of
	// overloadMaxSessions.
	overloadFloodFactor = 2.5
	// overloadEstablishedEvery interleaves one established-cohort request
	// per this many flood requests.
	overloadEstablishedEvery = 4
	// overloadStep is the virtual time between requests: a 10,000 req/s
	// crowd. The whole run (~7,200 requests, a handful of retry backoffs) is
	// then well under a second, inside overloadIdleTimeout, so no session of
	// either cohort idles out before the recovery phase says so.
	overloadStep        = 100 * time.Microsecond
	overloadIdleTimeout = 1500 * time.Millisecond
	// overloadCooldown is the breaker's: 2,000 requests are refused on the
	// origin's behalf before the probe.
	overloadCooldown = 200 * time.Millisecond
	// overloadSettlePolls bounds the wait for the servers' and transports'
	// goroutines to exit after everything is closed: each poll yields the
	// processor overloadPollYields times, then counts the run's goroutines.
	overloadSettlePolls = 1 << 12
	overloadPollYields  = 64
	// overloadRunLabel is the pprof label key that marks each run's
	// goroutines, so that GoroutinesDelta counts those alone.
	overloadRunLabel = "overload-run"
)

// OverloadResult is the flash-crowd report: a reverse proxy in front of a
// chaos-wrapped origin is flooded with FloodFactor x MaxSessions brand-new
// clients while previously established, evidence-bearing sessions keep
// browsing; a quarter of the way in the origin goes dark (503s) until the
// circuit breaker trips, then heals. The run reports what the overload
// machinery promises: bounded memory, zero evidence-bearing evictions, full
// service for established clients whenever the origin can be reached, one
// breaker trip, probe and recovery, and load-state recovery after the crowd
// leaves. Every field but DurationSec and RSSBytes is exact: a function of
// the seed.
type OverloadResult struct {
	MaxSessions  int     `json:"max_sessions"`
	FloodClients int     `json:"flood_clients"`
	Established  int     `json:"established_sessions"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	DurationSec  float64 `json:"duration_sec"`

	// Degradation ladder.
	PeakLoadState    string `json:"peak_load_state"`
	ShedPassThrough  int64  `json:"shed_passthrough"`
	ShedDegraded     int64  `json:"shed_degraded"`
	LiveSessionsPeak int    `json:"live_sessions_peak"`

	// Eviction discipline: capacity evictions must only hit anonymous
	// sessions while capacity remains attacker-drivable.
	EvictedIdle              int64 `json:"evicted_idle"`
	EvictedCapacityAnonymous int64 `json:"evicted_capacity_anonymous"`
	EvictedCapacityEvidence  int64 `json:"evicted_capacity_evidence"`
	EstablishedSurvived      int   `json:"established_survived"`

	// Memory budget.
	MemoryBudgetBytes   int64 `json:"memory_budget_bytes"`
	MemoryEstimateBytes int64 `json:"memory_estimate_bytes"`
	// RSSBytes is the process's resident anonymous plus file-backed memory
	// (telemetry.ReadMemoryLedger), read after the flood.
	RSSBytes int64 `json:"rss_bytes"`

	// The established cohort during the flood. Every request is either
	// served (an instrumented 200) or refused while the origin was dark or
	// the breaker not closed; the two must sum to the requests.
	EstablishedRequests int64 `json:"established_requests"`
	EstablishedServed   int64 `json:"established_served"`
	EstablishedRefused  int64 `json:"established_refused_in_outage"`

	// Origin fault tolerance.
	BreakerOpens         int64 `json:"breaker_opens"`
	BreakerProbes        int64 `json:"breaker_probes"`
	BreakerRecoveries    int64 `json:"breaker_recoveries"`
	BreakerShortCircuits int64 `json:"breaker_short_circuits"`

	// Recovery after the crowd leaves: the clock steps past the idle timeout
	// and the sweeper runs until the ladder is back to normal, for at most
	// two passes over the shards.
	RecoverySweeps  int    `json:"recovery_sweeps"`
	FinalLoadState  string `json:"final_load_state"`
	GoroutinesDelta int    `json:"goroutines_delta"`
}

// overloadRuns numbers the runs in this process: the number is the value
// of each run's goroutine label.
var overloadRuns atomic.Uint64

// OverloadBench runs the flash-crowd workload against a live localhost
// reverse proxy fronting a chaos origin. The run executes under a pprof
// label of its own, which every goroutine it starts inherits (the servers,
// their connections, the client transport's), and GoroutinesDelta is the
// number of those still alive after the run closed everything: a
// goroutine another caller started or ended meanwhile does not count.
func OverloadBench(seed uint64) OverloadResult {
	if seed == 0 {
		seed = DefaultScale().Seed
	}
	start := time.Now()
	run := strconv.FormatUint(overloadRuns.Add(1), 10)
	var res OverloadResult
	pprof.Do(context.Background(), pprof.Labels(overloadRunLabel, run), func(context.Context) {
		res = overloadRun(seed)
	})
	// Everything the run started has been told to stop; yield until it has.
	for i := 0; i < overloadSettlePolls && labelledGoroutines(overloadRunLabel, run) > 0; i++ {
		for j := 0; j < overloadPollYields; j++ {
			runtime.Gosched()
		}
	}
	res.GoroutinesDelta = labelledGoroutines(overloadRunLabel, run)
	res.DurationSec = time.Since(start).Seconds()
	return res
}

// labelledGoroutines counts the live goroutines whose pprof labels include
// key=value, read from the goroutine profile's text form: each record is a
// "<count> @ <pcs>" line, followed by a "# labels: {...}" line when its
// goroutines carry labels.
func labelledGoroutines(key, value string) int {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return -1
	}
	want := strconv.Quote(key) + ":" + strconv.Quote(value)
	n, count := 0, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if labels, ok := strings.CutPrefix(line, "# labels: "); ok {
			if strings.Contains(labels, want) {
				n += count
			}
		} else if c, _, ok := strings.Cut(line, " @ "); ok {
			count, _ = strconv.Atoi(c)
		}
	}
	return n
}

// overloadRun is one flash-crowd run; it closes everything it started
// before it returns.
func overloadRun(seed uint64) OverloadResult {
	vc := clock.NewVirtual(time.Time{})
	det := core.New(core.Config{
		Seed:               seed,
		Clock:              vc,
		Shards:             overloadShards,
		MaxSessions:        overloadMaxSessions,
		MemoryBudget:       overloadMemoryBudget,
		SessionIdleTimeout: overloadIdleTimeout,
		ObfuscateJS:        true,
	})

	// Chaos origin on its own listener, reverse proxy in front.
	origin := chaos.NewOrigin(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = serveOriginCT
		_, _ = w.Write(serveOriginPage)
	}), vc)
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return OverloadResult{}
	}
	originSrv := &http.Server{Handler: origin}
	go func() { _ = originSrv.Serve(originLn) }()
	defer originSrv.Close() // for the early return below; the run's end closes it first

	mw := proxy.NewReverseProxy(&url.URL{Scheme: "http", Host: originLn.Addr().String()}, proxy.Config{
		Engine:            det,
		TrustForwardedFor: true,
		Upstream: proxy.UpstreamConfig{
			DialTimeout:           time.Second,
			ResponseHeaderTimeout: 2 * time.Second,
			RequestTimeout:        5 * time.Second,
			Retries:               1,
			RetryBackoff:          5 * time.Millisecond,
			BreakerFailures:       5,
			BreakerCooldown:       overloadCooldown,
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return OverloadResult{}
	}
	srv := &http.Server{Handler: mw, ConnContext: proxy.ConnContext}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	transport := &http.Transport{}
	client := &http.Client{Transport: transport}

	floodClients := int(overloadFloodFactor * float64(overloadMaxSessions))
	res := OverloadResult{
		MaxSessions:       overloadMaxSessions,
		FloodClients:      floodClients,
		Established:       overloadEstablished,
		MemoryBudgetBytes: overloadMemoryBudget,
	}
	// get issues one request as the given client, a step of virtual time
	// after the one before it. Anything but a 200 counts as an error.
	get := func(ip, ua, path string) (status int, body []byte) {
		vc.Advance(overloadStep)
		res.Requests++
		if status, body = fetch(client, base+path, ip, ua); status != http.StatusOK {
			res.Errors++
		}
		return status, body
	}
	page := func(n int) string { return "/page" + strconv.Itoa(n%8) + ".html" }

	// Phase 1: establish evidence-bearing sessions the way a browser does —
	// view a page, download its script, fire the input-event beacon the
	// script names (a real-key hit: the strongest human evidence) — so the
	// flood later faces sessions the tracker must protect.
	estIP := func(i int) string { return "10.200." + strconv.Itoa(i/250) + "." + strconv.Itoa(i%250) }
	const estUA, floodUA = "Mozilla/5.0 (established)", "Mozilla/5.0 (bench)"
	for i := 0; i < overloadEstablished; i++ {
		_, doc := get(estIP(i), estUA, page(i))
		for _, src := range htmlmod.Extract(doc).Scripts {
			_, script := get(estIP(i), estUA, src)
			if beacon := agents.HandlerBeaconURL(string(script), "__bd_f"); beacon != "" {
				get(estIP(i), estUA, beacon)
			}
		}
	}

	// Phase 2: the flash crowd — FloodFactor x MaxSessions distinct brand-new
	// clients, with the established cohort browsing in between. A quarter of
	// the way in the origin goes dark; it heals the moment a request finds
	// the breaker open on it, and from there the cooldown, the probe and the
	// recovery are arithmetic on the clock.
	br := mw.Breaker()
	dark := false
	// outage prepares the next request: it reports whether that request may
	// be refused for the origin's sake.
	outage := func() bool {
		if dark && br.State() == proxy.BreakerOpen {
			origin.Heal()
			dark = false
		}
		return dark || br.State() != proxy.BreakerClosed
	}
	prefix := []byte(det.Config().BeaconPrefix + "/")
	peakState := core.LoadNormal
	var ipBuf [32]byte
	for id := 0; id < floodClients; id++ {
		if id == floodClients/4 {
			origin.FailWith(http.StatusServiceUnavailable, -1)
			dark = true
		}
		outage()
		get(string(appendClientIP(ipBuf[:0], uint32(id))), floodUA, page(id))
		res.LiveSessionsPeak = max(res.LiveSessionsPeak, det.SessionCount())
		peakState = max(peakState, det.LoadState())

		if id%overloadEstablishedEvery == overloadEstablishedEvery-1 {
			n := int(res.EstablishedRequests)
			refusable := outage()
			status, doc := get(estIP(n%overloadEstablished), estUA, page(n))
			res.EstablishedRequests++
			switch {
			case status == http.StatusOK && bytes.Contains(doc, prefix):
				res.EstablishedServed++
			case refusable:
				res.EstablishedRefused++
			}
		}
	}
	res.PeakLoadState = peakState.String()

	// Survival census before recovery: every established session must still
	// be tracked and still carry its evidence.
	for i := 0; i < overloadEstablished; i++ {
		if snap, _, ok := det.Decide(session.Key{IP: estIP(i), UserAgent: estUA}); ok {
			if snap.Signals.Any() {
				res.EstablishedSurvived++
			}
			snap.Release()
		}
	}
	ev, stats, brStats := det.EvictionStats(), det.Stats(), br.Stats()
	res.ShedPassThrough, res.ShedDegraded = stats.ShedPassThrough, stats.ShedDegraded
	res.EvictedIdle, res.EvictedCapacityAnonymous, res.EvictedCapacityEvidence = ev.Idle, ev.CapacityAnonymous, ev.CapacityEvidence
	res.BreakerOpens, res.BreakerProbes, res.BreakerRecoveries, res.BreakerShortCircuits =
		brStats.Opens, brStats.Probes, brStats.Recoveries, brStats.ShortCircuits
	res.MemoryEstimateBytes = det.MemoryEstimate()
	mem := telemetry.ReadMemoryLedger()
	res.RSSBytes = mem.ResidentAnon + mem.ResidentFile

	// Phase 3: recovery. The crowd leaves; the clock steps past the idle
	// timeout — which is also the NTP-step fault: recovery must not depend on
	// time arriving smoothly — and the sweeper drains the table shard by
	// shard until the ladder is back to normal.
	vc.Advance(overloadIdleTimeout + overloadStep)
	for det.LoadState() != core.LoadNormal && res.RecoverySweeps < 2*det.ShardCount() {
		det.SweepStep(vc.Now())
		res.RecoverySweeps++
	}
	res.FinalLoadState = det.LoadState().String()

	transport.CloseIdleConnections()
	srv.Close()
	originSrv.Close()
	return res
}

// serveOriginPage is the synthetic origin document; small enough that the
// run measures the instrumentation pipeline rather than kernel copy cost.
var serveOriginPage = []byte("<html><head><title>bench</title></head>" +
	"<body><h1>serve bench</h1><p>payload paragraph one</p>" +
	"<p>payload paragraph two</p></body></html>")

var serveOriginCT = []string{"text/html; charset=utf-8"}

// fetch GETs url as the given client and returns the status and the body;
// status 0 is a request that got no response.
func fetch(client *http.Client, url, ip, ua string) (status int, body []byte) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil
	}
	req.Header.Set("X-Forwarded-For", ip)
	req.Header.Set("User-Agent", ua)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, _ = io.ReadAll(resp.Body) // a body cut short shows as a page without its markers
	return resp.StatusCode, body
}

// appendClientIP renders the id as a distinct 10.x.y.z address.
func appendClientIP(dst []byte, id uint32) []byte {
	dst = append(dst, "10."...)
	dst = strconv.AppendUint(dst, uint64(id>>16&255), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(id>>8&255), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(id&255), 10)
	return dst
}

// JSON renders the result as indented JSON (the BENCH_overload.json artifact).
func (r OverloadResult) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return append(b, '\n')
}

// Format renders the result as text.
func (r OverloadResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Overload resilience (flash crowd + origin outage against a live reverse proxy)\n")
	fmt.Fprintf(&sb, "  flood:                  %d brand-new clients against MaxSessions=%d (%.1fx)\n",
		r.FloodClients, r.MaxSessions, float64(r.FloodClients)/float64(r.MaxSessions))
	fmt.Fprintf(&sb, "  requests:               %d (%d errors, outage window included) in %.1fs\n",
		r.Requests, r.Errors, r.DurationSec)
	fmt.Fprintf(&sb, "  degradation:            peak state %s, shed passthrough=%d degraded=%d, peak sessions %d\n",
		r.PeakLoadState, r.ShedPassThrough, r.ShedDegraded, r.LiveSessionsPeak)
	fmt.Fprintf(&sb, "  evictions:              idle=%d capacity-anonymous=%d capacity-evidence=%d\n",
		r.EvictedIdle, r.EvictedCapacityAnonymous, r.EvictedCapacityEvidence)
	fmt.Fprintf(&sb, "  established sessions:   %d/%d survived with evidence intact\n",
		r.EstablishedSurvived, r.Established)
	fmt.Fprintf(&sb, "  established requests:   %d under flood = %d served instrumented + %d refused during the outage\n",
		r.EstablishedRequests, r.EstablishedServed, r.EstablishedRefused)
	fmt.Fprintf(&sb, "  memory:                 estimate %.1f MiB of %.0f MiB budget, %.1f MiB RSS\n",
		float64(r.MemoryEstimateBytes)/(1<<20), float64(r.MemoryBudgetBytes)/(1<<20), float64(r.RSSBytes)/(1<<20))
	fmt.Fprintf(&sb, "  origin breaker:         opens=%d probes=%d recoveries=%d short-circuits=%d\n",
		r.BreakerOpens, r.BreakerProbes, r.BreakerRecoveries, r.BreakerShortCircuits)
	fmt.Fprintf(&sb, "  recovery:               %s after %d sweeps (goroutine delta %+d)\n",
		r.FinalLoadState, r.RecoverySweeps, r.GoroutinesDelta)
	return sb.String()
}
