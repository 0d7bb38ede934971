// Package botdetect holds the repository-level benchmark harness: one
// benchmark per table and figure of the paper's evaluation (each regenerates
// the artifact from a synthetic workload and reports its headline numbers as
// benchmark metrics), plus micro-benchmarks for the hot paths of the
// detection pipeline (page rewriting, script generation, beacon handling,
// session accounting, AdaBoost training).
//
// Run with:
//
//	go test -bench=. -benchmem
package botdetect

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/agents"
	"botdetect/internal/cdn"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/experiments"
	"botdetect/internal/features"
	"botdetect/internal/htmlmod"
	"botdetect/internal/jsgen"
	"botdetect/internal/keystore"
	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/shard"
	"botdetect/internal/webmodel"
)

// benchScale keeps the per-iteration experiment cost manageable while still
// producing stable shapes; cmd/botbench runs the full default scale.
func benchScale(i int) experiments.Scale {
	return experiments.Scale{Sessions: 200, Seed: uint64(1000 + i)}
}

// BenchmarkTable1SessionBreakdown regenerates Table 1 (session breakdown and
// the Section 3.1 bounds) once per iteration.
func BenchmarkTable1SessionBreakdown(b *testing.B) {
	var last experiments.Table1Result
	for i := 0; i < b.N; i++ {
		last = experiments.Table1(benchScale(i))
	}
	b.ReportMetric(last.Breakdown.CSSFraction()*100, "css_%")
	b.ReportMetric(last.Breakdown.MouseFraction()*100, "mouse_%")
	b.ReportMetric(last.MaxFPR*100, "maxFPR_%")
}

// BenchmarkFigure2DetectionLatency regenerates the Figure 2 CDFs.
func BenchmarkFigure2DetectionLatency(b *testing.B) {
	var last experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure2(benchScale(i))
	}
	b.ReportMetric(last.Mouse80, "mouse_p80_reqs")
	b.ReportMetric(last.Mouse95, "mouse_p95_reqs")
	b.ReportMetric(last.CSS95, "css_p95_reqs")
}

// BenchmarkFigure3AbuseComplaints regenerates the Figure 3 complaint
// timeline, including the enforcement-effectiveness calibration run.
func BenchmarkFigure3AbuseComplaints(b *testing.B) {
	var last experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure3(benchScale(i))
	}
	b.ReportMetric(float64(last.PeakBeforeDeployment), "peak_complaints")
	b.ReportMetric(last.ReductionFactor, "reduction_x")
}

// BenchmarkFigure4AdaBoost regenerates the Figure 4 accuracy curve (AdaBoost
// with 200 rounds at request prefixes 20..160).
func BenchmarkFigure4AdaBoost(b *testing.B) {
	var last experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		last = experiments.Figure4(experiments.Scale{Sessions: 120, Seed: uint64(2000 + i)})
	}
	if len(last.Points) > 0 {
		b.ReportMetric(last.Points[0].TestAccuracy*100, "acc20_%")
		b.ReportMetric(last.Points[len(last.Points)-1].TestAccuracy*100, "acc160_%")
	}
}

// BenchmarkOverheadBandwidth regenerates the Section 3.2 bandwidth-overhead
// measurement from a workload run.
func BenchmarkOverheadBandwidth(b *testing.B) {
	var last experiments.OverheadResult
	for i := 0; i < b.N; i++ {
		last = experiments.Overhead(experiments.Scale{Sessions: 120, Seed: uint64(3000 + i)})
	}
	b.ReportMetric(last.BandwidthOverhead*100, "overhead_%")
}

// BenchmarkAblationDecoys sweeps the decoy count and measures blind-fetcher
// catch rates.
func BenchmarkAblationDecoys(b *testing.B) {
	var last experiments.AblationDecoysResult
	for i := 0; i < b.N; i++ {
		last = experiments.AblationDecoys(experiments.Scale{Sessions: 300, Seed: uint64(4000 + i)})
	}
	if len(last.Rows) > 0 {
		b.ReportMetric(last.Rows[len(last.Rows)-1].SinglePickCatchRate, "catch_rate_m16")
	}
}

// BenchmarkAblationSignals evaluates the combining-rule variants (CSS only,
// mouse only, union, full rule) against ground truth.
func BenchmarkAblationSignals(b *testing.B) {
	var last experiments.AblationSignalsResult
	for i := 0; i < b.N; i++ {
		last = experiments.AblationSignals(experiments.Scale{Sessions: 150, Seed: uint64(6000 + i)})
	}
	if len(last.Rows) == 4 {
		b.ReportMetric(last.Rows[3].Accuracy*100, "full_rule_acc_%")
		b.ReportMetric(last.Rows[0].Accuracy*100, "css_only_acc_%")
	}
}

// BenchmarkStagedDetection evaluates the Section 4.1 staged design
// (fast rules first, AdaBoost for boundary cases).
func BenchmarkStagedDetection(b *testing.B) {
	var last experiments.StagedResult
	for i := 0; i < b.N; i++ {
		last = experiments.Staged(experiments.Scale{Sessions: 120, Seed: uint64(7000 + i)})
	}
	if len(last.Rows) == 3 {
		b.ReportMetric(last.Rows[2].Accuracy*100, "staged_acc_%")
		b.ReportMetric(last.FastPathShare*100, "fast_path_%")
	}
}

// BenchmarkBaselineComparison compares the combining rule against the
// robots.txt / User-Agent heuristic baseline.
func BenchmarkBaselineComparison(b *testing.B) {
	var last experiments.BaselineComparisonResult
	for i := 0; i < b.N; i++ {
		last = experiments.BaselineComparison(experiments.Scale{Sessions: 150, Seed: uint64(5000 + i)})
	}
	if len(last.Rows) > 0 {
		b.ReportMetric(last.Rows[0].Accuracy*100, "rule_acc_%")
		b.ReportMetric(last.Rows[1].Accuracy*100, "heuristic_acc_%")
	}
}

// --- micro-benchmarks for the detection pipeline hot paths ------------------

// BenchmarkInstrumentPage measures rewriting one origin page (key issue,
// fragment composition, HTML injection, accounting). The client IP pool is
// built outside the timed loop so the measurement isolates the engine, not
// fmt.Sprintf.
func BenchmarkInstrumentPage(b *testing.B) {
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 1, NumPages: 50})
	det := core.New(core.Config{Seed: 1, ObfuscateJS: true})
	page := site.Lookup("/").Body
	ips := benchClientIPs(1024)
	var ps core.PageState
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := benchPrepare(det, ips[i%len(ips)], &ps).Rewrite(page)
		det.RecordInstrumented(len(page), res.AddedBytes)
	}
}

// BenchmarkPrepare measures the serve path's per-page instrumentation cost
// in isolation — the verdict read, key issue and fragment composition into a
// reused PageState — without the HTML rewrite the proxy streams separately.
func BenchmarkPrepare(b *testing.B) {
	det := core.New(core.Config{Seed: 4, ObfuscateJS: true})
	ips := benchClientIPs(1024)
	var ps core.PageState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPrepare(det, ips[i%len(ips)], &ps)
	}
}

// BenchmarkScriptRender measures pooled per-download script generation
// (template copy plus numeric key splices), the render the engine serves
// index_<token>.js from; the paper's ~1 KB / sub-millisecond claim.
func BenchmarkScriptRender(b *testing.B) {
	gen := jsgen.NewGenerator()
	pool := jsgen.NewPool(gen, jsgen.TemplateConfig{
		BeaconBase: "http://www.example.com",
		KeyDigits:  10, Decoys: 4, UAReport: true, Obfuscate: true,
	}, 8, 9)
	src := rng.New(9)
	decoys := []uint64{src.Uint64n(1e10), src.Uint64n(1e10), src.Uint64n(1e10), src.Uint64n(1e10)}
	var dst []byte
	b.ReportAllocs()
	b.ResetTimer()
	size := 0
	for i := 0; i < b.N; i++ {
		dst = pool.Pick(uint64(i)).RenderKeys(dst[:0], 729395160, 5550001111, decoys, 10)
		size = len(dst)
	}
	b.ReportMetric(float64(size), "script_bytes")
}

// keystoreOutstanding are the per-client log sizes the keystore benchmarks
// run at: a one-page visitor, a typical busy session, and the per-client cap
// (where the linear scans are longest).
var keystoreOutstanding = []int{1, 16, 64}

// BenchmarkKeystoreIssue measures per-page key issuance against warm clients
// that each hold `outstanding` page views: the clock moves a little over
// TTL/outstanding per round of clients, so every issue also drops the
// client's oldest batch (the steady state of a busy session).
func BenchmarkKeystoreIssue(b *testing.B) {
	for _, outstanding := range keystoreOutstanding {
		b.Run(fmt.Sprintf("outstanding=%d", outstanding), func(b *testing.B) {
			vc := clock.NewVirtual(time.Time{})
			s := keystore.New(keystore.Config{Seed: 6, TTL: time.Hour, Clock: vc})
			ips := benchClientIPs(64)
			var pk keystore.PageKeys
			issue := func(i int) {
				if i%len(ips) == 0 {
					vc.Advance(time.Hour/time.Duration(outstanding) + time.Second)
				}
				s.IssuePage(ips[i%len(ips)], "/page1.html", &pk)
			}
			for i := 0; i < 2*outstanding*len(ips); i++ {
				issue(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				issue(i)
			}
		})
	}
}

// BenchmarkKeystoreValidate measures validating a real key against clients
// that each hold `outstanding` page views with every script downloaded (the
// longest arena), cycling over every batch so the scan depth averages half
// the log.
func BenchmarkKeystoreValidate(b *testing.B) {
	for _, outstanding := range keystoreOutstanding {
		b.Run(fmt.Sprintf("outstanding=%d", outstanding), func(b *testing.B) {
			s := keystore.New(keystore.Config{Seed: 6})
			ips := benchClientIPs(64)
			var pk keystore.PageKeys
			keys := make([]uint64, 0, outstanding*len(ips))
			for i := 0; i < cap(keys); i++ {
				s.IssuePage(ips[i%len(ips)], "/page1.html", &pk)
				// The script download is what draws the page's keys.
				key, _, _ := s.PageKeysFor(ips[i%len(ips)], pk.ScriptToken, nil)
				keys = append(keys, key)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(keys)
				if s.ValidateValue(ips[k%len(ips)], keys[k]) == keystore.Unknown {
					b.Fatal("a live key did not validate")
				}
			}
		})
	}
}

// benchPrepare prepares one full page view for ip as a Firefox/1.5 client,
// the way the serving surfaces do: one verdict read, then Prepare.
func benchPrepare(det *core.Engine, ip string, ps *core.PageState) *htmlmod.Prepared {
	return det.Prepare(benchVerdict(det, session.Key{IP: ip, UserAgent: "Firefox/1.5"}), core.AdmitFull, ip, ps)
}

// benchVerdict is one verdict read: Decide, then Release.
func benchVerdict(det *core.Engine, key session.Key) core.Verdict {
	snap, v, _ := det.Decide(key)
	snap.Release()
	return v
}

// benchCSSPath prepares one page view and returns its stylesheet beacon path.
func benchCSSPath(det *core.Engine) string {
	var ps core.PageState
	benchPrepare(det, "10.0.0.1", &ps)
	pk := ps.Keys()
	pre, suf := jsgen.CSSPathParts(det.Config().BeaconPrefix)
	return string(append(pk.AppendKey([]byte(pre), pk.CSSToken), suf...))
}

// BenchmarkHandleBeaconCSS measures serving a stylesheet beacon request.
func BenchmarkHandleBeaconCSS(b *testing.B) {
	det := core.New(core.Config{Seed: 2})
	cssPath := benchCSSPath(det)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.HandleBeacon("10.0.0.1", "Firefox/1.5", cssPath)
	}
}

// BenchmarkHTMLRewrite measures the raw rewriter on a realistic page.
func BenchmarkHTMLRewrite(b *testing.B) {
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 3, NumPages: 50})
	page := site.Lookup("/").Body
	inj := htmlmod.Injection{
		CSSHref:      "/__bd/2031464296.css",
		ScriptSrc:    "/__bd/index_0729395150.js",
		InlineScript: "document.write('x');",
		HandlerName:  "__bd_f",
		HiddenHref:   "/__bd/hidden/1.html",
		HiddenImgSrc: "/__bd/transp_1x1.gif",
	}
	b.SetBytes(int64(len(page)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		htmlmod.Rewrite(page, inj)
	}
}

// --- contention benchmarks for the sharded engine ---------------------------
//
// Each benchmark runs the same parallel workload against a single-shard
// engine (the seed's single-global-mutex behaviour) and the default sharded
// engine. Compare the shards=1 and sharded ns/op at GOMAXPROCS >= 8 to see
// the fan-out win; the sharded variant must scale with cores where the
// single lock serialises.

// benchClientIPs returns a pool of client IPs reused by all goroutines, so
// sessions overlap across goroutines and shard locks are genuinely shared.
func benchClientIPs(n int) []string {
	ips := make([]string, n)
	for i := range ips {
		ips[i] = fmt.Sprintf("10.%d.%d.%d", i/65536%256, i/256%256, i%256)
	}
	return ips
}

// BenchmarkObserveRequestParallel measures concurrent per-request session
// accounting through the engine.
func BenchmarkObserveRequestParallel(b *testing.B) {
	ips := benchClientIPs(1024)
	at := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)
	for _, shards := range []int{1, 0} { // 0 = default shard count
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = fmt.Sprintf("shards=%d", shard.DefaultShards)
		}
		b.Run(name, func(b *testing.B) {
			det := core.New(core.Config{Seed: 1, Shards: shards})
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) * 7919 // offset goroutines into the pool
				for pb.Next() {
					det.ObserveRequestQuiet(logfmt.Entry{
						Time: at, ClientIP: ips[i%len(ips)], UserAgent: "Firefox/1.5",
						Method: "GET", Path: "/page1.html", Status: 200, Bytes: 4096,
						ContentType: "text/html",
					})
					i++
				}
			})
		})
	}
}

// BenchmarkDecideObserveParallel is the serve path's two session operations
// for one request — Decide (a locked snapshot copy plus the cached verdict),
// Release, then the quiet observe — alternating on every goroutine over
// 10,000 warm sessions. One op is one request; run with -cpu 1,2 to read the
// price of the shard lock the read now shares with the write.
func BenchmarkDecideObserveParallel(b *testing.B) {
	ips := benchClientIPs(10000)
	at := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)
	entryFor := func(ip string) logfmt.Entry {
		return logfmt.Entry{
			Time: at, ClientIP: ip, UserAgent: "Firefox/1.5", Method: "GET",
			Path: "/page1.html", Status: 200, Bytes: 4096, ContentType: "text/html",
		}
	}
	for _, shards := range []int{1, shard.DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			det := core.New(core.Config{Seed: 1, Shards: shards})
			for _, ip := range ips {
				for r := 0; r < 12; r++ { // past the classification threshold
					det.ObserveRequestQuiet(entryFor(ip))
				}
				benchVerdict(det, session.Key{IP: ip, UserAgent: "Firefox/1.5"}) // warm the verdict cache
			}
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) * 7919 // offset goroutines into the pool
				for pb.Next() {
					ip := ips[i%len(ips)]
					if snap, _, ok := det.Decide(session.Key{IP: ip, UserAgent: "Firefox/1.5"}); ok {
						snap.Release()
					}
					det.ObserveRequestQuiet(entryFor(ip))
					i++
				}
			})
		})
	}
}

// BenchmarkHandleBeaconParallel measures concurrent beacon handling (CSS
// signal marking plus keystore validation of unknown keys).
func BenchmarkHandleBeaconParallel(b *testing.B) {
	ips := benchClientIPs(1024)
	for _, shards := range []int{1, 0} {
		name := fmt.Sprintf("shards=%d", shards)
		if shards == 0 {
			name = fmt.Sprintf("shards=%d", shard.DefaultShards)
		}
		b.Run(name, func(b *testing.B) {
			det := core.New(core.Config{Seed: 2, Shards: shards})
			cssPath := benchCSSPath(det)
			prefix := det.Config().BeaconPrefix
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1)) * 7919
				for pb.Next() {
					ip := ips[i%len(ips)]
					if i%2 == 0 {
						det.HandleBeacon(ip, "Firefox/1.5", cssPath)
					} else {
						det.HandleBeacon(ip, "Firefox/1.5", prefix+"/0000000000.jpg")
					}
					i++
				}
			})
		})
	}
}

// BenchmarkNetworkDrive measures replaying a fixed request batch through an
// 8-node CDN, the way the workload driver does: one request at a time.
func BenchmarkNetworkDrive(b *testing.B) {
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 31, NumPages: 40})
	ips := benchClientIPs(512)
	at := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)
	reqs := make([]agents.Request, 4096)
	for i := range reqs {
		path := "/page1.html"
		if i%3 == 0 {
			path = "/"
		}
		reqs[i] = agents.Request{
			Time: at.Add(time.Duration(i) * time.Millisecond), IP: ips[i%len(ips)],
			UserAgent: "Firefox/1.5", Method: "GET", Path: path,
		}
	}
	netw := cdn.NewNetwork(8, site, core.Config{Seed: 32}, true, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			netw.Do(req)
		}
	}
}

// BenchmarkSessionObserve measures per-request session accounting.
func BenchmarkSessionObserve(b *testing.B) {
	tracker := session.NewTracker(session.Config{})
	entry := logfmt.Entry{
		Time: time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC), ClientIP: "10.0.0.1",
		UserAgent: "Firefox/1.5", Method: "GET", Path: "/page1.html", Status: 200,
		Referer: "http://www.example.com/", Bytes: 4096, ContentType: "text/html",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracker.ObserveQuiet(entry)
	}
}

// BenchmarkFeatureExtraction measures computing the Table 2 attribute vector.
func BenchmarkFeatureExtraction(b *testing.B) {
	counts := session.Counts{
		Total: 100, Head: 2, Get: 95, Post: 3, HTML: 40, Image: 30, CGI: 10,
		Favicon: 1, Embedded: 45, WithReferrer: 70, UnseenReferrer: 10,
		LinkFollowing: 60, Status2xx: 85, Status3xx: 5, Status4xx: 8, Status5xx: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = counts.Vector()
	}
}

// BenchmarkAdaBoostTrain measures training the 200-round ensemble on a
// moderately sized labelled set.
func BenchmarkAdaBoostTrain(b *testing.B) {
	src := rng.New(11)
	examples := make([]features.Example, 0, 400)
	for i := 0; i < 400; i++ {
		human := i%2 == 0
		var v features.Vector
		if human {
			v[features.ReferrerPct] = 0.6 + 0.2*src.Float64()
			v[features.EmbeddedObjPct] = 0.5 + 0.3*src.Float64()
		} else {
			v[features.HTMLPct] = 0.7 + 0.3*src.Float64()
			v[features.Resp4xxPct] = 0.2 * src.Float64()
		}
		examples = append(examples, features.Example{X: v, Human: human})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adaboost.Train(examples, adaboost.Config{Rounds: 200}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaBoostPredict measures single-vector prediction latency.
func BenchmarkAdaBoostPredict(b *testing.B) {
	src := rng.New(13)
	examples := make([]features.Example, 0, 200)
	for i := 0; i < 200; i++ {
		var v features.Vector
		for j := range v {
			v[j] = src.Float64()
		}
		examples = append(examples, features.Example{X: v, Human: i%2 == 0})
	}
	model, err := adaboost.Train(examples, adaboost.Config{Rounds: 200})
	if err != nil {
		b.Fatal(err)
	}
	var probe features.Vector
	probe[features.ReferrerPct] = 0.5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Predict(probe)
	}
}

// BenchmarkClassifyParallel compares the two outcomes of a verdict read
// (Decide) from all cores at once: "cached" reads the verdict stored in the
// session record off the snapshot Peek copies (the serving path — 0
// allocs/op at steady state), while "recompute" follows a Bump
// (ApplyRemoteVerdict) of the session's epoch on every read, so each read
// re-derives the feature vector from the counters, re-runs the full verdict
// table and writes the result back (the Bump's shard lock is in the figure).
func BenchmarkClassifyParallel(b *testing.B) {
	setup := func(b *testing.B) (*core.Engine, []session.Key) {
		b.Helper()
		d := core.New(core.Config{Seed: 42, Shards: 32})
		var examples []features.Example
		for i := 0; i < 64; i++ {
			var v features.Vector
			if i%2 == 0 {
				v[features.ReferrerPct] = 0.7
				examples = append(examples, features.Example{X: v, Human: true})
			} else {
				v[features.HTMLPct] = 0.9
				examples = append(examples, features.Example{X: v, Human: false})
			}
		}
		model, err := adaboost.Train(examples, adaboost.Config{Rounds: 200})
		if err != nil {
			b.Fatal(err)
		}
		d.SetModel(model)
		keys := make([]session.Key, 256)
		for i := range keys {
			keys[i] = session.Key{IP: fmt.Sprintf("10.8.%d.%d", i/250, i%250), UserAgent: "Firefox/1.5"}
			for r := 0; r < 15; r++ {
				d.ObserveRequestQuiet(logfmt.Entry{
					ClientIP: keys[i].IP, UserAgent: keys[i].UserAgent, Method: "GET",
					Path: fmt.Sprintf("/p%d.html", r), Status: 200, Referer: "http://h/x.html",
				})
			}
			benchVerdict(d, keys[i]) // warm the verdict cache
		}
		return d, keys
	}

	b.Run("cached", func(b *testing.B) {
		d, keys := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				benchVerdict(d, keys[i%len(keys)])
				i++
			}
		})
	})

	b.Run("recompute", func(b *testing.B) {
		d, keys := setup(b)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := keys[i%len(keys)]
				d.ApplyRemoteVerdict(k)
				benchVerdict(d, k)
				i++
			}
		})
	})
}
