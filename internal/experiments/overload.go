package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/chaos"
	"botdetect/internal/core"
	"botdetect/internal/jsgen"
	"botdetect/internal/proxy"
	"botdetect/internal/session"
)

// The size of the flash-crowd resilience run: it floods a deliberately small
// engine with 2.5x its session capacity in a few seconds of wall clock.
const (
	// overloadMaxSessions is the engine's session-table capacity; kept small
	// so the flood saturates it quickly.
	overloadMaxSessions = 2048
	// overloadMemoryBudget bounds the engine's estimated tracker+keystore
	// bytes.
	overloadMemoryBudget = 256 << 20
	// overloadEstablished is the number of evidence-bearing sessions created
	// before the flood.
	overloadEstablished = 256
	// overloadFloodFactor is the flood size as a multiple of
	// overloadMaxSessions.
	overloadFloodFactor = 2.5
)

// overloadWorkers is the number of concurrent flood goroutines: enough
// concurrency to saturate admission without turning the run into a pure
// scheduler-queueing measurement on small machines.
func overloadWorkers() int { return min(max(2*runtime.GOMAXPROCS(0), 2), 16) }

// OverloadResult is the flash-crowd report: a reverse proxy in front of a
// chaos-wrapped origin is flooded with FloodFactor x MaxSessions brand-new
// clients while previously established, evidence-bearing sessions keep
// browsing; mid-flood the origin goes dark (503 burst) until the circuit
// breaker trips, then heals. The run measures what the overload machinery
// promises: bounded memory, zero evidence-bearing evictions, bounded latency
// for established clients, breaker trip + recovery, and load-state recovery
// after the crowd leaves.
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
	RSSBytes            int64 `json:"rss_bytes"`

	// Established-session latency, unpressured vs mid-flood.
	BaselineP50Us  float64 `json:"baseline_p50_us"`
	BaselineP99Us  float64 `json:"baseline_p99_us"`
	PressuredP50Us float64 `json:"pressured_p50_us"`
	PressuredP99Us float64 `json:"pressured_p99_us"`
	P99Ratio       float64 `json:"pressured_p99_over_baseline"`

	// Origin fault tolerance.
	BreakerOpens         int64 `json:"breaker_opens"`
	BreakerProbes        int64 `json:"breaker_probes"`
	BreakerRecoveries    int64 `json:"breaker_recoveries"`
	BreakerShortCircuits int64 `json:"breaker_short_circuits"`

	// Recovery after the crowd leaves (includes a +idle-timeout clock skew,
	// the chaos harness's "NTP step" fault, so idle expiry fires at once).
	RecoverySec     float64 `json:"recovery_sec"`
	FinalLoadState  string  `json:"final_load_state"`
	GoroutinesDelta int     `json:"goroutines_delta"`
}

// OverloadBench runs the flash-crowd workload against a live localhost
// reverse proxy fronting a chaos origin.
func OverloadBench(seed uint64) OverloadResult {
	if seed == 0 {
		seed = DefaultScale().Seed
	}
	workers := overloadWorkers()
	const idleTimeout = 1500 * time.Millisecond

	goroutinesBefore := runtime.NumGoroutine()

	// The engine reads a skewable clock so the recovery phase can inject the
	// clock-step fault instead of sleeping through the idle timeout.
	skew := chaos.NewSkewed(nil)
	det := core.New(core.Config{
		Seed:               seed,
		Clock:              skew,
		MaxSessions:        overloadMaxSessions,
		MemoryBudget:       overloadMemoryBudget,
		SessionIdleTimeout: idleTimeout,
		ObfuscateJS:        true,
	})

	// Chaos origin on its own listener, reverse proxy in front.
	origin := chaos.NewOrigin(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = serveOriginCT
		_, _ = w.Write(serveOriginPage)
	}))
	originLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return OverloadResult{}
	}
	originSrv := &http.Server{Handler: origin}
	go func() { _ = originSrv.Serve(originLn) }()
	defer originSrv.Close()

	upstreamURL := &url.URL{Scheme: "http", Host: originLn.Addr().String()}
	mw := proxy.NewReverseProxy(upstreamURL, proxy.Config{
		Engine:            det,
		TrustForwardedFor: true,
		Upstream: proxy.UpstreamConfig{
			DialTimeout:           time.Second,
			ResponseHeaderTimeout: 2 * time.Second,
			RequestTimeout:        5 * time.Second,
			Retries:               1,
			RetryBackoff:          5 * time.Millisecond,
			BreakerFailures:       5,
			BreakerCooldown:       200 * time.Millisecond,
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return OverloadResult{}
	}
	srv := &http.Server{Handler: mw, ConnContext: proxy.ConnContext}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	transport := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	// The established cohort measures the proxy, not the flood's client-side
	// connection queue, so it keeps its own keep-alive connections.
	estTransport := &http.Transport{MaxIdleConns: 4, MaxIdleConnsPerHost: 4}
	defer estTransport.CloseIdleConnections()
	estClient := &http.Client{Transport: estTransport}

	var requests, errors atomic.Int64
	fetchWith := func(c *http.Client, ip string, page int) (time.Duration, bool) {
		t0 := time.Now()
		err := serveOnePage(c, base, ip, page)
		d := time.Since(t0)
		requests.Add(1)
		if err != nil {
			errors.Add(1)
			return d, false
		}
		return d, true
	}
	fetch := func(ip string, page int) (time.Duration, bool) { return fetchWith(client, ip, page) }

	start := time.Now()

	// Phase 1: establish evidence-bearing sessions. Each client views a page
	// over HTTP, then its instrumentation key is exercised through the
	// engine's own beacon path (a real-key hit: the strongest human
	// evidence), so the flood later faces sessions the tracker must protect.
	prefix := det.Config().BeaconPrefix
	estIP := func(i int) string { return "10.200." + strconv.Itoa(i/250) + "." + strconv.Itoa(i%250) }
	const estUA = "Mozilla/5.0 (established)"
	var ps core.PageState
	for i := 0; i < overloadEstablished; i++ {
		ip := estIP(i)
		fetchWith(estClient, ip, i)
		det.PreparePage(ip, estUA, "/page.html", &ps)
		pk := ps.Keys()
		// The page's key exists once its script is downloaded, and the script
		// is the only place to read it.
		script, _ := det.HandleBeacon(ip, estUA, jsgen.ScriptPath(prefix, pk.KeyString(pk.ScriptToken)))
		beacon := agents.HandlerBeaconURL(string(script.Body), "__bd_f")
		script.Done()
		det.HandleBeacon(ip, estUA, beacon)
	}

	// Baseline latency for established clients, unpressured.
	baseline := make([]float64, 0, 4*overloadEstablished)
	for i := 0; i < 4*overloadEstablished; i++ {
		if d, ok := fetchWith(estClient, estIP(i%overloadEstablished), i); ok {
			baseline = append(baseline, float64(d.Nanoseconds())/1e3)
		}
	}

	// Phase 2: the flash crowd — FloodFactor x MaxSessions distinct brand-new
	// clients — while the established cohort keeps browsing and measuring,
	// and the origin goes dark mid-flood until the breaker trips, then heals.
	floodClients := int(overloadFloodFactor * float64(overloadMaxSessions))
	var (
		next      atomic.Int64
		floodWG   sync.WaitGroup
		floodDone = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			var ipBuf [32]byte
			for {
				id := next.Add(1) - 1
				if id >= int64(floodClients) {
					return
				}
				ip := appendClientIP(ipBuf[:0], uint32(id))
				fetch(string(ip), int(id))
			}
		}()
	}

	// Outage driver: wait for the flood to be in full swing, kill the origin
	// until the breaker opens, heal, and confirm a half-open probe closes it.
	outageDone := make(chan struct{})
	br := mw.Breaker()
	go func() {
		defer close(outageDone)
		time.Sleep(50 * time.Millisecond)
		origin.FailWith(http.StatusServiceUnavailable, -1)
		waitUntil(2*time.Second, func() bool { return br.State() == proxy.BreakerOpen })
		origin.Heal()
		waitUntil(2*time.Second, func() bool { return br.State() == proxy.BreakerClosed })
	}()

	// Established cohort keeps measuring under pressure until the flood and
	// the outage cycle both complete (its traffic also provides the breaker's
	// half-open probe if the flood drains first).
	pressured := make([]float64, 0, 4096)
	peakSessions := 0
	peakState := core.LoadNormal
	go func() {
		floodWG.Wait()
		close(floodDone)
	}()
	for i := 0; ; i++ {
		if d, ok := fetchWith(estClient, estIP(i%overloadEstablished), i); ok {
			pressured = append(pressured, float64(d.Nanoseconds())/1e3)
		}
		if n := det.SessionCount(); n > peakSessions {
			peakSessions = n
		}
		if s := det.LoadState(); s > peakState {
			peakState = s
		}
		select {
		case <-floodDone:
			select {
			case <-outageDone:
			default:
				continue
			}
		default:
			continue
		}
		break
	}

	// Survival census before recovery: every established session must still
	// be tracked and still carry its evidence.
	survived := 0
	for i := 0; i < overloadEstablished; i++ {
		if snap, _, ok := det.Decide(session.Key{IP: estIP(i), UserAgent: estUA}); ok {
			if snap.Signals.Any() {
				survived++
			}
			snap.Release()
		}
	}

	evBefore := det.EvictionStats()
	stats := det.Stats()
	memEstimate := det.MemoryEstimate()
	rss := readRSS()

	// Phase 3: recovery. The crowd leaves; a clock-skew fault steps time past
	// the idle timeout (chaos.Skewed — recovery must survive an NTP jump, not
	// depend on a quiet wall clock), and the sweeper drains the flood's
	// anonymous sessions until the ladder returns to Normal.
	recoverStart := time.Now()
	skew.Skew(idleTimeout + 100*time.Millisecond)
	finalState := det.LoadState()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		det.SweepStep(skew.Now())
		finalState = det.RecomputeLoadState()
		if finalState == core.LoadNormal {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	recovery := time.Since(recoverStart)
	elapsed := time.Since(start)

	srv.Close()
	originSrv.Close()
	transport.CloseIdleConnections()
	time.Sleep(50 * time.Millisecond)
	runtime.GC()
	goroutinesAfter := runtime.NumGoroutine()

	sort.Float64s(baseline)
	sort.Float64s(pressured)
	q := func(s []float64, p float64) float64 {
		if len(s) == 0 {
			return 0
		}
		return s[int(p*float64(len(s)-1))]
	}
	brStats := br.Stats()
	out := OverloadResult{
		MaxSessions:  overloadMaxSessions,
		FloodClients: floodClients,
		Established:  overloadEstablished,
		Requests:     requests.Load(),
		Errors:       errors.Load(),
		DurationSec:  elapsed.Seconds(),

		PeakLoadState:    peakState.String(),
		ShedPassThrough:  stats.ShedPassThrough,
		ShedDegraded:     stats.ShedDegraded,
		LiveSessionsPeak: peakSessions,

		EvictedIdle:              evBefore.Idle,
		EvictedCapacityAnonymous: evBefore.CapacityAnonymous,
		EvictedCapacityEvidence:  evBefore.CapacityEvidence,
		EstablishedSurvived:      survived,

		MemoryBudgetBytes:   overloadMemoryBudget,
		MemoryEstimateBytes: memEstimate,
		RSSBytes:            rss,

		BaselineP50Us:  q(baseline, 0.50),
		BaselineP99Us:  q(baseline, 0.99),
		PressuredP50Us: q(pressured, 0.50),
		PressuredP99Us: q(pressured, 0.99),

		BreakerOpens:         brStats.Opens,
		BreakerProbes:        brStats.Probes,
		BreakerRecoveries:    brStats.Recoveries,
		BreakerShortCircuits: brStats.ShortCircuits,

		RecoverySec:     recovery.Seconds(),
		FinalLoadState:  finalState.String(),
		GoroutinesDelta: goroutinesAfter - goroutinesBefore,
	}
	if out.BaselineP99Us > 0 {
		out.P99Ratio = out.PressuredP99Us / out.BaselineP99Us
	}
	return out
}

// serveOriginPage is the synthetic origin document; small enough that the
// run measures the instrumentation pipeline rather than kernel copy cost.
var serveOriginPage = []byte("<html><head><title>bench</title></head>" +
	"<body><h1>serve bench</h1><p>payload paragraph one</p>" +
	"<p>payload paragraph two</p></body></html>")

var serveOriginCT = []string{"text/html; charset=utf-8"}

// serveOnePage issues one instrumented page view as the given client.
func serveOnePage(client *http.Client, base, ip string, page int) error {
	req, err := http.NewRequest(http.MethodGet, base+"/page"+strconv.Itoa(page%8)+".html", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Forwarded-For", ip)
	req.Header.Set("User-Agent", "Mozilla/5.0 (bench)")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
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

// readRSS parses VmRSS from /proc/self/status; 0 where unavailable.
func readRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// waitUntil polls cond every millisecond until it holds or d elapses.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
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
	fmt.Fprintf(&sb, "  memory:                 estimate %.1f MiB of %.0f MiB budget, %.1f MiB RSS\n",
		float64(r.MemoryEstimateBytes)/(1<<20), float64(r.MemoryBudgetBytes)/(1<<20), float64(r.RSSBytes)/(1<<20))
	fmt.Fprintf(&sb, "  established latency:    p99 %.0fus -> %.0fus under flood (%.1fx)\n",
		r.BaselineP99Us, r.PressuredP99Us, r.P99Ratio)
	fmt.Fprintf(&sb, "  origin breaker:         opens=%d probes=%d recoveries=%d short-circuits=%d\n",
		r.BreakerOpens, r.BreakerProbes, r.BreakerRecoveries, r.BreakerShortCircuits)
	fmt.Fprintf(&sb, "  recovery:               %s after %.2fs (goroutine delta %+d)\n",
		r.FinalLoadState, r.RecoverySec, r.GoroutinesDelta)
	return sb.String()
}
