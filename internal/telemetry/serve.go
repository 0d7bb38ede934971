package telemetry

// Stage label values for the per-stage latency histogram family. One
// histogram family with a stage label — rather than one family per stage —
// keeps dashboards to a single query and the exposition compact.
const (
	StageProxyRequest  = "proxy_request"           // whole request through the middleware
	StageBeacon        = "beacon"                  // HandleBeacon dispatch
	StagePrepare       = "prepare_instrumentation" // key issue + fragment compose
	StageKeystoreIssue = "keystore_issue"          // the key-issue slice of prepare
	StageClassify      = "classify_recompute"      // verdict table on a cache miss
	StageRewrite       = "rewrite_stream"          // StreamRewriter splice time (write + close)
)

// ServeMetrics bundles the hot-path instruments every serving component
// shares: per-stage latency histograms and the counters that cannot be
// derived from existing component stats at scrape time. One ServeMetrics can
// back a single engine or a whole fleet — when cdn nodes share it, their
// observations aggregate into fleet-level histograms while the per-engine
// scrape-time collectors stay distinguishable by node label.
type ServeMetrics struct {
	reg *Registry

	// Per-stage latency histograms (botdetect_stage_duration_seconds).
	ProxyRequest  *Histogram
	Beacon        *Histogram
	Prepare       *Histogram
	KeystoreIssue *Histogram
	Classify      *Histogram
	Rewrite       *Histogram

	// Verdict-cache effectiveness (botdetect_classify_total).
	ClassifyCacheHits  *Counter
	ClassifyRecomputes *Counter

	// Control-plane events.
	ScriptRotations *Counter // botdetect_script_rotations_total
	TrainerRetrains *Counter // botdetect_trainer_retrains_total{result="ok"}
	TrainerErrors   *Counter // botdetect_trainer_retrains_total{result="error"}

	// Request outcomes as the proxy middleware saw them
	// (botdetect_proxy_requests_total). Throttled requests are also counted
	// under origin — a throttle delays, it does not replace, the origin
	// response.
	RequestsOrigin     *Counter
	RequestsBeacon     *Counter
	RequestsBlocked    *Counter
	RequestsChallenged *Counter
	RequestsThrottled  *Counter
	RequestsCaptcha    *Counter
}

// NewServeMetrics creates the serve-path instruments and registers them with
// reg (a fresh registry when nil), beside the Go runtime's GC figures.
func NewServeMetrics(reg *Registry) *ServeMetrics {
	if reg == nil {
		reg = NewRegistry()
	}
	m := &ServeMetrics{
		reg:                reg,
		ProxyRequest:       NewHistogram(),
		Beacon:             NewHistogram(),
		Prepare:            NewHistogram(),
		KeystoreIssue:      NewHistogram(),
		Classify:           NewHistogram(),
		Rewrite:            NewHistogram(),
		ClassifyCacheHits:  NewCounter(),
		ClassifyRecomputes: NewCounter(),
		ScriptRotations:    NewCounter(),
		TrainerRetrains:    NewCounter(),
		TrainerErrors:      NewCounter(),
		RequestsOrigin:     NewCounter(),
		RequestsBeacon:     NewCounter(),
		RequestsBlocked:    NewCounter(),
		RequestsChallenged: NewCounter(),
		RequestsThrottled:  NewCounter(),
		RequestsCaptcha:    NewCounter(),
	}

	const stageHist = "botdetect_stage_duration_seconds"
	stageHelp := "Serve-path stage latency in seconds, log-spaced buckets."
	reg.Histogram(stageHist, Label("stage", StageProxyRequest), stageHelp, m.ProxyRequest)
	reg.Histogram(stageHist, Label("stage", StageBeacon), stageHelp, m.Beacon)
	reg.Histogram(stageHist, Label("stage", StagePrepare), stageHelp, m.Prepare)
	reg.Histogram(stageHist, Label("stage", StageKeystoreIssue), stageHelp, m.KeystoreIssue)
	reg.Histogram(stageHist, Label("stage", StageClassify), stageHelp, m.Classify)
	reg.Histogram(stageHist, Label("stage", StageRewrite), stageHelp, m.Rewrite)

	reg.Counter("botdetect_classify_total", Label("result", "cache_hit"),
		"Verdict reads by verdict-cache outcome.", m.ClassifyCacheHits)
	reg.Counter("botdetect_classify_total", Label("result", "recompute"),
		"Verdict reads by verdict-cache outcome.", m.ClassifyRecomputes)

	reg.Counter("botdetect_script_rotations_total", "",
		"Script-variant pool rotations (RotateScripts).", m.ScriptRotations)
	reg.Counter("botdetect_trainer_retrains_total", Label("result", "ok"),
		"Online retrain attempts by outcome.", m.TrainerRetrains)
	reg.Counter("botdetect_trainer_retrains_total", Label("result", "error"),
		"Online retrain attempts by outcome.", m.TrainerErrors)

	const reqTotal = "botdetect_proxy_requests_total"
	reqHelp := "Requests through the proxy middleware by outcome."
	reg.Counter(reqTotal, Label("outcome", "origin"), reqHelp, m.RequestsOrigin)
	reg.Counter(reqTotal, Label("outcome", "beacon"), reqHelp, m.RequestsBeacon)
	reg.Counter(reqTotal, Label("outcome", "blocked"), reqHelp, m.RequestsBlocked)
	reg.Counter(reqTotal, Label("outcome", "challenged"), reqHelp, m.RequestsChallenged)
	reg.Counter(reqTotal, Label("outcome", "throttled"), reqHelp, m.RequestsThrottled)
	reg.Counter(reqTotal, Label("outcome", "captcha"), reqHelp, m.RequestsCaptcha)
	registerRuntime(reg)
	return m
}

// Registry returns the registry the instruments are registered with;
// components add their scrape-time collectors (engine stats, shard gauges,
// policy counters) to it.
func (m *ServeMetrics) Registry() *Registry { return m.reg }
