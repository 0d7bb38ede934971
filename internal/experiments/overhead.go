package experiments

import (
	"fmt"
	"strings"
	"time"

	"botdetect/internal/core"
	"botdetect/internal/jsgen"
	"botdetect/internal/metrics"
	"botdetect/internal/session"
	"botdetect/internal/workload"
)

// OverheadResult is the Section 3.2 cost study: how long it takes to
// generate an obfuscated beacon script and how much extra bandwidth the
// instrumentation consumes relative to origin traffic.
type OverheadResult struct {
	// ScriptBytes is the size of one obfuscated script as served: the body of
	// an index_<token>.js download.
	ScriptBytes int
	// ScriptGenTime is the mean wall-clock time the engine takes to answer
	// one script download — parse the path, draw the page's keys, splice them
	// into a precompiled variant, mark the session.
	ScriptGenTime time.Duration
	// ScriptsPerSecond is the derived generation throughput.
	ScriptsPerSecond float64
	// OriginBytes is the origin payload served during the measurement run.
	OriginBytes int64
	// AddedBytes is the instrumentation payload: HTML growth plus the body of
	// every generated object served (scripts, both stylesheets, the exec and
	// mouse beacon images, the transparent image, hidden pages) — the same
	// bytes the benchmark's overhead_bytes_ratio counts on the wire.
	AddedBytes int64
	// BandwidthOverhead is AddedBytes / (OriginBytes + AddedBytes). The
	// paper's 0.3% is a share of CoDeeN's total traffic (dominated by large
	// media objects); the synthetic site is smaller, so the measured share
	// is expected to sit above the published one while remaining a small
	// fraction.
	BandwidthOverhead float64
}

// overheadUA is the browser the script-cost run's clients present.
const overheadUA = "Mozilla/5.0 (X11; U; Linux i686) Firefox/1.5"

// overheadEngine is the engine the script-cost run measures: the defaults a
// deployment gets (10-digit keys, 4 decoys, site-relative beacons), obfuscated.
func overheadEngine(seed uint64) *core.Engine {
	return core.New(core.Config{ObfuscateJS: true, Seed: seed ^ 0x0f})
}

// overheadView serves page view i of the script-cost run and returns the
// client it went to and the path of its script. Clients take 32 views each,
// inside the 64 a client may have outstanding.
func overheadView(e *core.Engine, i int, ps *core.PageState) (ip, path string) {
	ip = fmt.Sprintf("10.15.0.%d", i/32)
	servePage(e, ip, overheadUA, ps)
	return ip, scriptPath(e, ps)
}

// servePage prepares one full page view for ip/ua the way the serving
// surfaces do: one verdict read (Decide), then Prepare.
func servePage(e *core.Engine, ip, ua string, ps *core.PageState) {
	snap, v, _ := e.Decide(session.Key{IP: ip, UserAgent: ua})
	snap.Release()
	e.Prepare(v, core.AdmitFull, ip, ps)
}

// scriptPath is the request path of the script the last page prepared on ps
// injected: the engine's script path parts around the page's token.
func scriptPath(e *core.Engine, ps *core.PageState) string {
	pre, suf := jsgen.ScriptPathParts(e.Config().BeaconPrefix)
	pk := ps.Keys()
	return string(append(pk.AppendKey([]byte(pre), pk.ScriptToken), suf...))
}

// Overhead measures script cost on the path that serves scripts — page views
// prepared on a core.Engine, each script fetched through HandleBeacon as a
// client fetches it — and bandwidth overhead from a workload run.
func Overhead(scale Scale) OverheadResult {
	scale = scale.withDefaults()
	var out OverheadResult

	const iterations = 2000
	e := overheadEngine(scale.Seed)
	var ps core.PageState
	ips, paths := make([]string, iterations+1), make([]string, iterations+1)
	for i := range paths {
		ips[i], paths[i] = overheadView(e, i, &ps)
	}
	warm, _ := e.HandleBeacon(ips[0], overheadUA, paths[0])
	out.ScriptBytes = len(warm.Body)
	warm.Done()

	start := time.Now()
	for i := 1; i <= iterations; i++ {
		resp, _ := e.HandleBeacon(ips[i], overheadUA, paths[i])
		resp.Done()
	}
	elapsed := time.Since(start)
	out.ScriptGenTime = elapsed / iterations
	if out.ScriptGenTime > 0 {
		out.ScriptsPerSecond = float64(time.Second) / float64(out.ScriptGenTime)
	}

	// Bandwidth overhead from a calibrated workload run.
	res := workload.Run(workload.Config{Sessions: scale.Sessions / 2, Seed: scale.Seed ^ 0x0f0f})
	stats := res.Network.EngineStats()
	nodeStats := res.Network.TotalStats()
	out.OriginBytes = nodeStats.OriginBytes
	out.AddedBytes = stats.AddedBytes
	total := out.OriginBytes + out.AddedBytes
	if total > 0 {
		out.BandwidthOverhead = float64(out.AddedBytes) / float64(total)
	}
	return out
}

// Format renders the result as text.
func (r OverheadResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Overhead (Section 3.2)\n")
	fmt.Fprintf(&sb, "  obfuscated script size:        %d bytes as served (paper ~1 KB)\n", r.ScriptBytes)
	fmt.Fprintf(&sb, "  script generation time:        %v per download (%.0f scripts/s)\n", r.ScriptGenTime, r.ScriptsPerSecond)
	fmt.Fprintf(&sb, "  origin bytes served:           %d\n", r.OriginBytes)
	fmt.Fprintf(&sb, "  instrumentation bytes added:   %d\n", r.AddedBytes)
	fmt.Fprintf(&sb, "  bandwidth overhead:            %s%% (paper 0.3%% of CoDeeN's much larger traffic)\n", metrics.Pct(r.BandwidthOverhead))
	return sb.String()
}
