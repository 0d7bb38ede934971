// Package core implements the paper's robot-detection system: dynamic page
// instrumentation (human activity detection plus standard-browser testing),
// per-session signal accumulation, and the on-line classification rule that
// separates human sessions from robot sessions
//
//	S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)
//
// The Engine is the concurrency facade over the detection pipeline: it owns
// the sharded session tracker, the sharded key store and atomic counters, and
// fans every request out to exactly one shard of each, so the hot path
// (ObserveRequestQuiet, HandleBeacon) scales with cores instead of serialising on
// global mutexes. Reads (Decide, Session) take the same one session
// shard briefly and see the session as of its last request, and idle-session
// expiry is amortised shard by shard — there is no stop-the-world sweep.
//
// The Engine is transport-agnostic: callers (the HTTP proxy middleware in
// internal/proxy, the CoDeeN-scale simulator in internal/cdn, and the
// offline log analyzer) feed it page bodies and request observations and
// receive rewritten pages, beacon responses and per-session verdicts.
//
// Classification itself lives in the internal/detect layer: every verdict is
// the first row that fires in detect's one verdict table (direct evidence →
// a fleet peer's verdict → learned model → behavioural browser test). The
// engine stores one verdict per session in the session's record — the row's
// ID, valid for the session's decision epoch and the model epoch it was
// derived under — and closes the online-training loop — labelled
// outcomes accumulate as ground truth reveals itself, RetrainFromOutcomes
// fits a fresh AdaBoost ensemble, and SetModel hot-swaps it onto the read
// path with a single atomic store.
package core

import (
	"math"
	"net/url"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/features"
	"botdetect/internal/htmlmod"
	"botdetect/internal/intern"
	"botdetect/internal/jsgen"
	"botdetect/internal/keystore"
	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/shard"
	"botdetect/internal/telemetry"
)

// Verdict and its classes are defined by the decision layer; the aliases
// are the names the engine's consumers use.
type Verdict = detect.Verdict

const (
	// ClassUndecided means the engine has not yet seen enough evidence.
	ClassUndecided = detect.ClassUndecided
	// ClassHuman means the traffic source is a human user.
	ClassHuman = detect.ClassHuman
	// ClassRobot means the traffic source is an automated agent.
	ClassRobot = detect.ClassRobot

	// Definite verdicts rest on direct evidence (input events, decoy hits,
	// hidden-link fetches, CAPTCHA).
	Definite = detect.Definite
)

// ClassifiedSession pairs a session with its verdict: the final one for a
// session that ended.
type ClassifiedSession struct {
	Snapshot session.Snapshot
	Verdict  Verdict
}

// Response is the body the caller should serve for an intercepted
// instrumentation request (beacon, generated stylesheet/script, hidden page).
type Response struct {
	// Status is the HTTP status code.
	Status int
	// ContentType is the response content type.
	ContentType string
	// Body is the response body.
	Body []byte
	// NoCache indicates the response must carry Cache-Control: no-cache,
	// no-store (always true for generated instrumentation objects).
	NoCache bool

	// script is the pooled buffer a script download's Body was rendered into;
	// Done returns it once the caller has written Body.
	script *scriptBuf
}

// Done releases the resources the response body pins — for script downloads,
// the pooled buffer the body was rendered into. Call it exactly once, after
// Body has been written (Body must not be read afterwards); it is a no-op on
// every other response (including the zero value), and skipping it is safe
// but forgoes buffer recycling: the garbage collector reclaims the buffer
// instead of the pool.
func (r *Response) Done() {
	if r.script != nil {
		if cap(r.script.b) <= maxPooledScriptBuf {
			scriptBufs.Put(r.script)
		}
		r.script = nil
	}
}

// Config controls the Engine.
type Config struct {
	// BeaconPrefix is the path prefix reserved for instrumentation objects
	// (default "/__bd"). It should not collide with origin content.
	BeaconPrefix string
	// BeaconBase is an optional absolute URL prefix for beacons (scheme and
	// host); empty means site-relative beacons.
	BeaconBase string
	// Decoys is the number of decoy beacon functions per page (paper: m).
	// Values above keystore.MaxDecoys (255, what a page view's header
	// records) are clamped: the store and the script templates must agree on
	// one count.
	Decoys int
	// KeyDigits is the length of generated keys in decimal digits (default
	// 10). A key is a uint64, so values above keystore.MaxKeyDigits (19) are
	// clamped, and the keystore's permutation needs a domain of at least
	// 10^keystore.MinKeyDigits, so values below 6 are raised: the store, the
	// script templates and the token parser must all agree on one width.
	KeyDigits int
	// ObfuscateJS enables lexical obfuscation of the generated script.
	ObfuscateJS bool
	// ScriptVariants is the number of precompiled obfuscated script templates
	// per rotation epoch (default jsgen.DefaultVariants). Per script download
	// the engine picks one variant from the page's script token and splices
	// the page's keys in, so generation is a pooled copy instead of a rebuild;
	// RotateScripts recompiles the whole set.
	ScriptVariants int
	// MinRequests is the number of requests a session must reach before the
	// behavioural (browser-test) rules classify it (paper: 10).
	MinRequests int64
	// SessionIdleTimeout ends a session after this inactivity (paper: 1 h).
	SessionIdleTimeout time.Duration
	// MaxSessions bounds concurrently tracked sessions.
	MaxSessions int
	// MemoryBudget, when > 0, bounds the engine's estimated live memory
	// (session tracker + keystore, the attacker-controlled structures) in
	// bytes. Estimated-memory occupancy feeds the load state exactly like
	// session-count occupancy, so a budget of 256 MiB starts degrading
	// service when the estimate passes ~192 MiB (75 %) and shedding at
	// ~230 MiB (90 %). 0 leaves memory unbudgeted.
	MemoryBudget int64
	// Shards is the shard count for the session table and the key store,
	// rounded up to a power of two. When zero the engine autotunes it from
	// GOMAXPROCS (shard.AutoShards: four shards per
	// logical CPU, clamped to [8, 512]), so deployments track the machine
	// they land on instead of a hardcoded default. Use 1 to recover the
	// strict global-LRU semantics of a single-lock engine at the cost of
	// concurrency.
	Shards int
	// OutcomeCapacity bounds the ring buffer of labelled outcomes collected
	// for online retraining (default 4096).
	OutcomeCapacity int
	// Telemetry supplies the serve-path instruments (per-stage latency
	// histograms, verdict-cache counters). Nil gives the engine a private
	// ServeMetrics with its own registry; fleet deployments (cdn.Network)
	// share one ServeMetrics across engines so stage histograms aggregate
	// fleet-wide. The instruments are allocation-free and always on — there
	// is no disabled mode to diverge from production behaviour.
	Telemetry *telemetry.ServeMetrics
	// TelemetryNode labels this engine's scrape-time collectors (stats
	// counters, shard gauges) in the telemetry registry, so engines sharing
	// a registry stay distinguishable. Empty means unlabelled.
	TelemetryNode string
	// Seed drives key and script generation.
	Seed uint64
	// Clock supplies time; defaults to the wall clock.
	Clock clock.Clock
	// OnSessionEnd, when non-nil, receives every session that ends together
	// with its final verdict. It can fire from any goroutine that triggers
	// an eviction — concurrently with itself — so it must be safe for
	// concurrent use.
	OnSessionEnd func(ClassifiedSession)
}

func (c Config) withDefaults() Config {
	if c.BeaconPrefix == "" {
		c.BeaconPrefix = jsgen.DefaultBeaconPrefix
	}
	if c.Decoys <= 0 {
		c.Decoys = 4
	}
	c.Decoys = min(c.Decoys, keystore.MaxDecoys)
	if c.KeyDigits <= 0 {
		c.KeyDigits = 10
	}
	c.KeyDigits = min(max(c.KeyDigits, keystore.MinKeyDigits), keystore.MaxKeyDigits)
	if c.MinRequests <= 0 {
		c.MinRequests = 10
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = time.Hour
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1 << 20
	}
	if c.ScriptVariants <= 0 {
		c.ScriptVariants = jsgen.DefaultVariants
	}
	if c.OutcomeCapacity <= 0 {
		c.OutcomeCapacity = 4096
	}
	if c.Shards <= 0 {
		c.Shards = shard.AutoShards(runtime.GOMAXPROCS(0))
	} else {
		c.Shards = shard.Normalize(c.Shards)
	}
	if c.Clock == nil {
		c.Clock = clock.System
	}
	return c
}

// Stats are the engine's cumulative counters.
type Stats struct {
	// PagesInstrumented counts HTML pages rewritten.
	PagesInstrumented int64
	// PagesLite counts the pages prepared for a definite human with the
	// hidden trap link alone (see Prepare); the rest of PagesInstrumented
	// carried the full instrumentation.
	PagesLite int64
	// OriginalBytes and AddedBytes track page sizes before rewriting and the
	// instrumentation bytes added (rewritten HTML growth plus the body of
	// every generated object actually served: scripts, stylesheets, beacon
	// images, hidden pages), for the overhead experiment.
	OriginalBytes int64
	AddedBytes    int64
	// BeaconRequests counts intercepted instrumentation requests by kind.
	MouseBeacons   int64
	DecoyBeacons   int64
	ReplayBeacons  int64
	UnknownBeacons int64
	ExecBeacons    int64
	CSSBeacons     int64
	ScriptServes   int64
	// ScriptExpired counts the script downloads (a subset of ScriptServes)
	// answered with the "// expired" fallback because the presenting client
	// holds no live key batch under the token: the page's keys expired or
	// were evicted, or the token is malformed, unknown or another client's.
	ScriptExpired int64
	HiddenHits    int64
	UAReports     int64
	UAMismatches  int64
	// ShedPassThrough and ShedDegraded count below-full admission decisions
	// (see AdmitPage): pages served uninstrumented while saturated, and
	// pages served with degraded instrumentation under pressure.
	ShedPassThrough int64
	ShedDegraded    int64
}

// engineStats is the internal atomic mirror of Stats: every counter is an
// independent atomic so beacon handling on different cores never contends.
// The four key-beacon verdicts are the keystore's validation counters.
type engineStats struct {
	pagesInstrumented atomic.Int64
	pagesLite         atomic.Int64
	originalBytes     atomic.Int64
	addedBytes        atomic.Int64
	execBeacons       atomic.Int64
	cssBeacons        atomic.Int64
	scriptServes      atomic.Int64
	scriptExpired     atomic.Int64
	hiddenHits        atomic.Int64
	uaReports         atomic.Int64
	uaMismatches      atomic.Int64
	shedPassThrough   atomic.Int64
	shedDegraded      atomic.Int64
}

// scriptBuf is the working set of one script download: the rendered body
// and the decoy scratch the keystore lookup fills. Buffers cycle through the
// package pool (HandleBeacon takes one, Response.Done returns it), so a
// steady-state download allocates nothing and no script outlives its response.
type scriptBuf struct {
	b      []byte
	decoys []uint64
}

var scriptBufs = sync.Pool{New: func() any { return new(scriptBuf) }}

// maxPooledScriptBuf bounds the capacity of buffers returned to the pool;
// pathologically large bodies are left to the garbage collector rather than
// pinned forever.
const maxPooledScriptBuf = 1 << 20

// pagePrecomp caches the per-deployment constant parts of the injection,
// derived from jsgen's path helpers so the URL formats live in one place:
// beacon path prefixes/suffixes and the inline reporter script split around
// its token. Composing these once in New keeps Prepare down
// to a few short concatenations per page view instead of rebuilding every
// URL and the whole inline script with fmt.
type pagePrecomp struct {
	cssPre, cssSuf       string // jsgen.CSSPathParts, behind BeaconBase
	scriptPre, scriptSuf string // jsgen.ScriptPathParts, behind BeaconBase
	hiddenPre, hiddenSuf string // jsgen.HiddenPathParts, behind BeaconBase
	transpImg            string // jsgen.TransparentImagePath
	inlinePre            string // inline reporter before the token
	inlinePost           string // inline reporter after the token
}

// Engine is the robot-detection engine. It is safe for concurrent use; see
// the package comment for the sharding design.
type Engine struct {
	cfg      Config
	keys     *keystore.Store
	interner *intern.Interner // the session tracker's UA/page string table
	gen      *jsgen.Generator
	pool     *jsgen.Pool // precompiled script variants; see RotateScripts
	pre      pagePrecomp

	sessions *session.Tracker

	det      detect.Detector  // the verdict table every verdict comes from
	learned  *detect.Learned  // hot-swappable learned stage (SetModel)
	outcomes *detect.Outcomes // labelled material for online retraining
	tel      *telemetry.ServeMetrics

	// fleet, when set, is the replication layer (SetFleet): the remote row
	// reads peers' verdicts from it and classify exports Definite verdicts
	// to it. Atomic so the classify path reads it lock-free.
	fleet atomic.Pointer[Fleet]

	// handlerName and transpImg are the injection's per-deployment constant
	// byte fields, precomputed so Prepare composes without conversions.
	handlerName []byte
	transpImg   []byte

	seedSeq atomic.Uint64
	stats   engineStats

	// Load-state machinery (see load.go): the computed state, the operator
	// override (loadForcedAuto = none), the occupancy captured at the last
	// recomputation (micro-units) and the serve-event counter amortising
	// recomputation.
	loadState  atomic.Int32
	loadForced atomic.Int32
	loadOcc    atomic.Uint64
	loadEvents atomic.Uint64

	// sweepSteps counts SweepStep calls; every full pass over the shards
	// triggers a per-shard cap rebalance from the occupancy gauges.
	sweepSteps atomic.Uint64
}

// New creates an Engine.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		gen:      jsgen.NewGenerator(),
		interner: intern.New(0),
		keys: keystore.New(keystore.Config{
			Decoys:    cfg.Decoys,
			KeyDigits: cfg.KeyDigits,
			TTL:       cfg.SessionIdleTimeout,
			Shards:    cfg.Shards,
			Seed:      cfg.Seed,
			Clock:     cfg.Clock,
		}),
	}
	e.tel = cfg.Telemetry
	if e.tel == nil {
		e.tel = telemetry.NewServeMetrics(nil)
		e.cfg.Telemetry = e.tel
	}
	e.learned = detect.NewLearned()
	// The whole table: locally observed hard evidence still wins, but a
	// peer's replicated verdict outranks the local statistical guess (which
	// never saw the session's cross-node request history).
	e.det = detect.New(detect.AllRows, cfg.MinRequests, e.learned, e.peerVerdict)
	e.outcomes = detect.NewOutcomes(cfg.OutcomeCapacity)
	base, prefix := cfg.BeaconBase, cfg.BeaconPrefix
	e.pool = jsgen.NewPool(e.gen, jsgen.TemplateConfig{
		BeaconBase:   base,
		BeaconPrefix: prefix,
		KeyDigits:    cfg.KeyDigits,
		Decoys:       cfg.Decoys,
		UAReport:     true,
		Obfuscate:    cfg.ObfuscateJS,
	}, cfg.ScriptVariants, rng.New(cfg.Seed).Fork("script-pool").Uint64())
	e.pre = pagePrecomp{transpImg: base + jsgen.TransparentImagePath(prefix)}
	cssPre, cssSuf := jsgen.CSSPathParts(prefix)
	e.pre.cssPre, e.pre.cssSuf = base+cssPre, cssSuf
	scriptPre, scriptSuf := jsgen.ScriptPathParts(prefix)
	e.pre.scriptPre, e.pre.scriptSuf = base+scriptPre, scriptSuf
	hiddenPre, hiddenSuf := jsgen.HiddenPathParts(prefix)
	e.pre.hiddenPre, e.pre.hiddenSuf = base+hiddenPre, hiddenSuf
	e.pre.inlinePre, e.pre.inlinePost = jsgen.InlineUAScriptParts(base, prefix)
	tcfg := session.Config{
		IdleTimeout: cfg.SessionIdleTimeout,
		MaxSessions: cfg.MaxSessions,
		Shards:      cfg.Shards,
		Clock:       cfg.Clock,
		Interner:    e.interner,
		// Bump the decision epoch when the classification threshold is
		// crossed: the behavioural rules (and the learned model) first become
		// decidable there, so stored verdicts must not outlive that point.
		DecisionMarks: []int64{cfg.MinRequests},
	}
	if cfg.OnSessionEnd != nil {
		// Without a listener the tracker builds no snapshot for a session
		// that ends: an expiry or eviction nobody hears allocates nothing.
		tcfg.Evicted = e.sessionEnded
	}
	e.sessions = session.NewTracker(tcfg)
	e.handlerName = []byte(e.gen.HandlerName)
	e.transpImg = []byte(e.pre.transpImg)
	e.loadForced.Store(loadForcedAuto)
	e.registerTelemetry()
	return e
}

// sessionEnded forwards finished sessions (with final verdicts) to the
// configured callback; New installs it only when there is one.
func (e *Engine) sessionEnded(snap session.Snapshot) {
	e.cfg.OnSessionEnd(ClassifiedSession{Snapshot: snap, Verdict: e.classify(&snap)})
}

// scriptSeed derives the next rotation epoch's compile seed without any lock:
// a SplitMix64 step over an atomic sequence keyed by the engine seed, so a
// fixed seed replays the same sequence of epochs.
func (e *Engine) scriptSeed() uint64 {
	return rng.Mix64((e.cfg.Seed ^ 0x9e3779b97f4a7c15) + e.seedSeq.Add(1)*0x9e3779b97f4a7c15)
}

// PageState is the caller-owned working set for one page view on the
// zero-copy serve path: the numeric page keys, the composed injection
// fragments, and the URL scratch buffers they are built in. A connection
// keeps one PageState across keep-alive requests; after the first few page
// views every buffer has grown to the working-set size and Prepare runs
// without allocating.
type PageState struct {
	pk   keystore.PageKeys
	prep htmlmod.Prepared

	// URL scratch, reused per page view: css/script/hidden beacon URLs and
	// the inline reporter script around the script token.
	css, script, inline, hidden []byte
}

// Keys returns the numeric keys issued for the most recent Prepare call.
func (ps *PageState) Keys() *keystore.PageKeys { return &ps.pk }

// fullPageEvery is how often a proven human still gets a fully instrumented
// page: one view in fullPageEvery, chosen by the view's hidden token (see
// Prepare).
const fullPageEvery = 8

// Prepare sets up the injection for one HTML page view served to clientIP.
// v is the session's verdict as the caller read it for this request
// (Decide); Prepare reads no session. It issues the page's keys into ps.pk —
// the keystore's degraded issue when adm is AdmitDegraded, its full issue
// otherwise — and composes the fragments in place in ps.prep. The caller
// applies them (an htmlmod.StreamRewriter, or Prepared.Rewrite) and calls
// RecordInstrumented once the rewrite completes, for the overhead
// accounting. The script is rendered only on download, from the keys the
// keystore remembers (see renderScript). The returned Prepared aliases ps
// until the next prepare on it; at steady state the call allocates nothing.
//
// A definite human gets a lite page — the hidden trap link alone — except
// on the views whose hidden token is a multiple of fullPageEvery. The token
// is a keyed permutation output, so a client cannot tell which view comes
// full, engines sharing a seed agree on it, and since 8 divides 10^d for
// every key width the choice is unbiased. Robot evidence, a model swap or a
// new session after an idle gap ends the verdict, and with it the lite
// pages. The page view is issued either way: its hidden token comes from it.
func (e *Engine) Prepare(v Verdict, adm Admission, clientIP string, ps *PageState) *htmlmod.Prepared {
	start := time.Now()
	if adm == AdmitDegraded {
		e.keys.IssuePageDegraded(clientIP, "", &ps.pk)
	} else {
		e.keys.IssuePage(clientIP, "", &ps.pk)
	}
	e.tel.KeystoreIssue.ObserveSince(start)

	ps.hidden = ps.pk.AppendKey(append(ps.hidden[:0], e.pre.hiddenPre...), ps.pk.HiddenToken)
	ps.hidden = append(ps.hidden, e.pre.hiddenSuf...)
	inj := htmlmod.InjectionBytes{HiddenHref: ps.hidden, HiddenImgSrc: e.transpImg}
	if ps.pk.HiddenToken%fullPageEvery != 0 && v.Class == ClassHuman && v.Confidence == Definite {
		e.stats.pagesLite.Add(1)
	} else {
		ps.css = ps.pk.AppendKey(append(ps.css[:0], e.pre.cssPre...), ps.pk.CSSToken)
		ps.css = append(ps.css, e.pre.cssSuf...)
		ps.script = ps.pk.AppendKey(append(ps.script[:0], e.pre.scriptPre...), ps.pk.ScriptToken)
		ps.script = append(ps.script, e.pre.scriptSuf...)
		ps.inline = ps.pk.AppendKey(append(ps.inline[:0], e.pre.inlinePre...), ps.pk.ScriptToken)
		ps.inline = append(ps.inline, e.pre.inlinePost...)
		inj.CSSHref, inj.ScriptSrc, inj.InlineScript, inj.HandlerName = ps.css, ps.script, ps.inline, e.handlerName
	}
	ps.prep.Compose(inj)
	e.tel.Prepare.ObserveSince(start)
	return &ps.prep
}

// RecordInstrumented accounts one completed page rewrite (original body
// size and instrumentation bytes added) for the overhead experiment.
func (e *Engine) RecordInstrumented(originalBytes, addedBytes int) {
	e.stats.pagesInstrumented.Add(1)
	e.stats.originalBytes.Add(int64(originalBytes))
	e.stats.addedBytes.Add(int64(addedBytes))
}

// RotateScripts compiles a fresh epoch of script variants and publishes it
// atomically under concurrent page serving. Deployments rotate periodically
// so no obfuscated body survives long enough to be signature-matched.
func (e *Engine) RotateScripts() {
	e.pool.Rotate(e.scriptSeed())
	e.tel.ScriptRotations.Inc()
}

// ScriptVariants returns the number of precompiled script variants per
// rotation epoch.
func (e *Engine) ScriptVariants() int { return e.pool.Variants() }

// StartRotator rotates the script pool automatically until the returned stop
// function is called: every interval (when interval > 0), and additionally
// once everyPages pages have been instrumented since the last rotation (when
// everyPages > 0; checked once per second). Both triggers zero the other's
// progress — a page-count rotation restarts the interval timer. With neither
// trigger configured the rotator is inert and stop is a no-op.
func (e *Engine) StartRotator(interval time.Duration, everyPages int64) (stop func()) {
	if interval <= 0 && everyPages <= 0 {
		return func() {}
	}
	poll := interval
	if everyPages > 0 && (interval <= 0 || interval > time.Second) {
		poll = time.Second
	}
	return every(poll, e.rotatorStep(poll, interval, everyPages))
}

// rotatorStep is the rotator as a function of its ticks, poll apart: the
// first tick dates the rotator's start one poll before itself, and every
// later decision compares tick times only.
func (e *Engine) rotatorStep(poll, interval time.Duration, everyPages int64) func(tick time.Time) {
	lastPages := e.stats.pagesInstrumented.Load()
	var lastRotate time.Time
	return func(tick time.Time) {
		if lastRotate.IsZero() {
			lastRotate = tick.Add(-poll)
		}
		rotate := interval > 0 && tick.Sub(lastRotate) >= interval
		if !rotate && everyPages > 0 {
			rotate = e.stats.pagesInstrumented.Load()-lastPages >= everyPages
		}
		if rotate {
			e.RotateScripts()
			lastPages = e.stats.pagesInstrumented.Load()
			lastRotate = tick
		}
	}
}

// every runs step on its own goroutine once per interval, handing it the
// tick's time, until the returned stop function is called; stop returns once
// the goroutine has exited (so no call of step is in flight afterwards) and
// may be called more than once. It is the loop behind the rotator, the
// trainer and the sweeper, and the only timer they have.
func every(interval time.Duration, step func(tick time.Time)) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case tick := <-ticker.C:
				step(tick)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// renderScript renders the beacon script of the page clientIP was issued
// under token, into a pooled buffer the caller hands back through
// Response.Done. The body is a pure function of the keystore's live batch
// (real key, decoys), the token, the engine seed and the rotation epoch: the
// variant is picked from rng.Mix64(token ^ seed), so repeated downloads within an
// epoch are byte-identical and nothing about a body depends on how requests
// interleave. It returns nil when the client holds no live batch under the
// token — script availability is exactly key liveness, and a token presented
// from another address never yields the issuing client's key.
func (e *Engine) renderScript(clientIP string, token uint64) *scriptBuf {
	sb := scriptBufs.Get().(*scriptBuf)
	key, decoys, ok := e.keys.PageKeysFor(clientIP, token, sb.decoys[:0])
	sb.decoys = decoys
	if !ok {
		scriptBufs.Put(sb)
		return nil
	}
	v := e.pool.Pick(rng.Mix64(token ^ e.cfg.Seed))
	if cap(sb.b) < v.Size() {
		// Size exactly (engine keys always have KeyDigits digits) so a fresh
		// buffer costs one allocation instead of append-growth churn.
		sb.b = make([]byte, 0, v.Size())
	}
	sb.b = v.RenderKeys(sb.b[:0], key, token, sb.decoys, e.cfg.KeyDigits)
	return sb
}

// ObserveRequestQuiet records one ordinary (non-instrumentation) request for
// session tracking; callers read the session back through Decide or
// Session. Only the session's shard is locked.
func (e *Engine) ObserveRequestQuiet(ent logfmt.Entry) {
	e.sessions.ObserveQuiet(ent)
}

var (
	emptyCSS   = []byte("/* */\n")
	tinyGIF    = []byte("GIF89a\x01\x00\x01\x00\x80\x00\x00\x00\x00\x00\xff\xff\xff!\xf9\x04\x01\x00\x00\x00\x00,\x00\x00\x00\x00\x01\x00\x01\x00\x00\x02\x02D\x01\x00;")
	tinyJPEG   = []byte("\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00\xff\xd9")
	hiddenPage = []byte("<html><head><title>ok</title></head><body></body></html>")
	fallbackJS = []byte("// expired\n")
)

// HandleBeacon processes a request under the instrumentation prefix for the
// given client, updating the session's detection signals, and returns the
// response to serve. ok is false when the path is not an instrumentation
// path (the caller should forward it to the origin instead). At most one
// session shard and one keystore shard are locked per call.
func (e *Engine) HandleBeacon(clientIP, userAgent, path string) (Response, bool) {
	obj, arg, query, ok := jsgen.ParsePath(e.cfg.BeaconPrefix, path)
	if !ok {
		return Response{}, false
	}
	start := time.Now()
	resp := e.handleBeacon(clientIP, userAgent, obj, arg, query)
	if resp.Status == 200 {
		// Every generated body is instrumentation payload: script, stylesheets,
		// beacon images, the hidden page.
		e.stats.addedBytes.Add(int64(len(resp.Body)))
	}
	e.tel.Beacon.ObserveSince(start)
	return resp, true
}

// handleBeacon serves one parsed instrumentation-prefix request (see
// jsgen.ParsePath for obj, arg and query); the exported wrapper owns the
// stage timing.
func (e *Engine) handleBeacon(clientIP, userAgent string, obj jsgen.Object, arg, query string) Response {
	key := session.Key{IP: clientIP, UserAgent: userAgent}
	switch obj {
	case jsgen.ObjectExecBeacon:
		// JavaScript-execution beacon with the reported user agent.
		e.sessions.Mark(key, session.SignalJS)
		e.stats.execBeacons.Add(1)
		if agent := queryParam(query, "ua"); agent != "" {
			e.checkUAMismatch(key, userAgent, agent, url.QueryUnescape)
		}
		return Response{Status: 200, ContentType: "image/gif", Body: tinyGIF, NoCache: true}

	case jsgen.ObjectUAReport:
		// document.write stylesheet report: arg is <token>/<agent>.
		e.sessions.Mark(key, session.SignalJS)
		e.stats.uaReports.Add(1)
		if i := strings.IndexByte(arg, '/'); i >= 0 {
			e.checkUAMismatch(key, userAgent, arg[i+1:], url.PathUnescape)
		}
		return Response{Status: 200, ContentType: "text/css", Body: emptyCSS, NoCache: true}

	case jsgen.ObjectHidden:
		e.markDefinite(key, session.SignalHidden, false)
		e.stats.hiddenHits.Add(1)
		return Response{Status: 200, ContentType: "text/html", Body: hiddenPage, NoCache: true}

	case jsgen.ObjectTransparentImage:
		return Response{Status: 200, ContentType: "image/gif", Body: tinyGIF, NoCache: true}

	case jsgen.ObjectScript:
		e.sessions.Mark(key, session.SignalJSFile)
		e.stats.scriptServes.Add(1)
		// Script tokens are fixed-width decimal; anything else can only be a
		// probe and gets the same expired-script fallback as a dead token.
		var sb *scriptBuf
		if token, okTok := rng.ParseFixedDigits(arg, e.cfg.KeyDigits); okTok {
			sb = e.renderScript(clientIP, token)
		}
		body := fallbackJS
		if sb != nil {
			body = sb.b
		} else {
			e.stats.scriptExpired.Add(1)
		}
		return Response{Status: 200, ContentType: "application/javascript", Body: body, NoCache: true, script: sb}

	case jsgen.ObjectCSS:
		e.sessions.Mark(key, session.SignalCSS)
		e.stats.cssBeacons.Add(1)
		return Response{Status: 200, ContentType: "text/css", Body: emptyCSS, NoCache: true}

	case jsgen.ObjectBeacon:
		// The keystore counts each verdict (Stats reads its counters).
		switch e.keys.Validate(clientIP, arg) {
		case keystore.Human:
			e.markDefinite(key, session.SignalMouse, true)
		case keystore.Replayed:
			e.markDefinite(key, session.SignalReplay, false)
		default:
			// A decoy, or a key the server never issued: a guess or a stale
			// replay.
			e.markDefinite(key, session.SignalDecoy, false)
		}
		return Response{Status: 200, ContentType: "image/jpeg", Body: tinyJPEG, NoCache: true}

	default:
		return Response{Status: 404, ContentType: "text/plain", Body: []byte("not found\n"), NoCache: true}
	}
}

// ObjectSignal is the signal a request for each kind of instrumentation
// object marks — handleBeacon's table, for replaying an access log offline
// (cmd/loganalyze). A logged key cannot be validated again, so a beacon is
// taken at face value as a mouse event; objects that mark nothing (the
// transparent image, ObjectNone) are absent.
var ObjectSignal = map[jsgen.Object]session.Signal{
	jsgen.ObjectBeacon:     session.SignalMouse,
	jsgen.ObjectExecBeacon: session.SignalJS,
	jsgen.ObjectUAReport:   session.SignalJS,
	jsgen.ObjectHidden:     session.SignalHidden,
	jsgen.ObjectScript:     session.SignalJSFile,
	jsgen.ObjectCSS:        session.SignalCSS,
}

// checkUAMismatch compares the JavaScript-reported agent string with the
// User-Agent header, both normalised the way the injected script normalises
// them (session.NormalizeUA), and marks the session on mismatch. The script
// reports encodeURIComponent(agent), so the raw report is decoded exactly
// once, by unescape — the decoding of where it sits in the URL: a query value
// or a path segment. A second decoding would turn a browser's own "+" or
// "%41" into something else and call it a forgery. The comparison normalises
// as it goes (session.SameNormalizedUA), so a beacon flood builds no
// lowercased copies and reads no session; an agent string that normalises to
// nothing on either side proves nothing.
func (e *Engine) checkUAMismatch(key session.Key, headerUA, reported string, unescape func(string) (string, error)) {
	if unescaped, err := unescape(reported); err == nil {
		reported = unescaped
	}
	if strings.TrimLeft(headerUA, " ") == "" || strings.TrimLeft(reported, " ") == "" {
		return
	}
	if !session.SameNormalizedUA(headerUA, reported) {
		e.markDefinite(key, session.SignalUAMismatch, false)
		e.stats.uaMismatches.Add(1)
	}
}

// queryParam extracts a single query parameter value without url.Values
// allocation overhead for the common single-parameter beacon case.
func queryParam(query, name string) string {
	for query != "" {
		var pair string
		if i := strings.IndexByte(query, '&'); i >= 0 {
			pair, query = query[:i], query[i+1:]
		} else {
			pair, query = query, ""
		}
		if eq := strings.IndexByte(pair, '='); eq >= 0 && pair[:eq] == name {
			return pair[eq+1:]
		}
	}
	return ""
}

// MarkCaptchaPassed records that the session solved a CAPTCHA challenge — a
// definite human confirmation that also feeds the online training loop.
func (e *Engine) MarkCaptchaPassed(key session.Key) {
	e.markDefinite(key, session.SignalCaptcha, true)
}

// MarkCaptchaFailed records a failed CAPTCHA attempt. A single failure is
// not definite evidence (humans mistype), so no detection signal is set;
// the outcome still feeds the training loop as a weak robot label, the way
// the paper uses CAPTCHA outcomes as ground truth for the learned model.
func (e *Engine) MarkCaptchaFailed(key session.Key) { e.RecordOutcome(key, false) }

// markDefinite marks a definite signal — direct evidence of a human (input
// events, CAPTCHA) or of a robot (decoy, replay, hidden-link and forged-UA
// hits) — and, when it is newly set, feeds the training loop from the
// serving path itself: the signal is ground truth for the session's request
// mix (RecordOutcome).
func (e *Engine) markDefinite(key session.Key, sig session.Signal, human bool) {
	if e.sessions.Mark(key, sig) {
		e.RecordOutcome(key, human)
	}
}

// Decide returns the session's current snapshot together with its (stored)
// verdict; enforcement layers (proxy, cdn) use it to evaluate policy on the
// session's exact counts without per-request allocation. The snapshot is a
// pooled buffer (session.Tracker.Peek): the caller should call
// snap.Release() when done reading it.
func (e *Engine) Decide(key session.Key) (*session.Snapshot, Verdict, bool) {
	snap, ok := e.sessions.Peek(key)
	if !ok {
		return nil, Verdict{}, false
	}
	return snap, e.classify(snap), true
}

// classify is the one verdict read path: Decide, Sessions, FlushSessions
// and the session-end callback all end here. The session record holds at most one
// verdict, and only for the session's current epoch — the tracker drops it
// whenever the epoch moves — so the snapshot already carries the answer
// unless a new signal, a new request class, a threshold crossing or a model
// hot-swap came since it was derived: a hit costs nothing beyond the Peek
// that filled the snapshot. On a miss the table runs outside any lock, and
// the result is written back through one tracker call that keeps it only if
// the session is still at the snapshot's epoch. A literal snapshot (tests,
// offline replay) never hits and its write-back finds no session.
func (e *Engine) classify(snap *session.Snapshot) Verdict {
	modelEpoch := e.learned.Epoch()
	if v, ok := e.loadVerdict(snap.StoredVerdict(), modelEpoch); ok {
		e.tel.ClassifyCacheHits.Inc()
		return v
	}
	v := e.timedDetect(snap)
	if sv, ok := e.storeVerdict(v, modelEpoch); ok {
		e.sessions.StoreVerdict(snap, sv)
	}
	// Recompute means the session's evidence (or the model) changed: this is
	// the one point where a fresh Definite verdict first exists, so the fleet
	// export hook fires here — never on cache hits, so replication costs the
	// steady-state serve path nothing. A verdict that arrived via replication
	// carries its origin node and is not exported: replication must not echo.
	if f := e.fleet.Load(); f != nil && *f != nil && v.Confidence == Definite && v.Origin == "" {
		(*f).ExportVerdict(snap.Key, v)
	}
	return v
}

// timedDetect runs the table uncached, recording the recompute under the
// classify stage histogram (cache hits are counted, not timed — they are a
// few compares on the snapshot). The whole table always decides: below the
// threshold its below-threshold row fires, at it the no-presentation row.
func (e *Engine) timedDetect(snap *session.Snapshot) Verdict {
	start := time.Now()
	v, _ := e.det.Detect(snap)
	e.tel.Classify.ObserveSince(start)
	e.tel.ClassifyRecomputes.Inc()
	return v
}

// storeVerdict encodes v, derived under modelEpoch, for the session record:
// its row, its AtRequest, and for a replicated verdict its origin's index in
// the fleet's membership (plus one; 0 is a local verdict). The class and
// confidence are the row's. It reports false for a verdict the record cannot
// hold: no row, an AtRequest out of its width, or an origin outside the
// membership (a replicated verdict's fields come from another node).
func (e *Engine) storeVerdict(v Verdict, modelEpoch uint64) (session.StoredVerdict, bool) {
	if !v.Rule.Known() || v.AtRequest < 0 || v.AtRequest > math.MaxUint32 {
		return session.StoredVerdict{}, false
	}
	// The model epoch is kept to 32 bits: a stored verdict would be served
	// again only after 2^32 model swaps.
	sv := session.StoredVerdict{ModelEpoch: uint32(modelEpoch), AtRequest: uint32(v.AtRequest), Rule: uint8(v.Rule)}
	if v.Origin != "" {
		i := slices.Index(e.members(), v.Origin)
		if i < 0 || i >= math.MaxUint8 {
			return session.StoredVerdict{}, false
		}
		sv.Origin = uint8(i + 1)
	}
	return sv, true
}

// loadVerdict decodes a stored verdict, if there is one and it was derived
// under modelEpoch.
func (e *Engine) loadVerdict(sv session.StoredVerdict, modelEpoch uint64) (Verdict, bool) {
	r := detect.Rule(sv.Rule)
	if !r.Known() || sv.ModelEpoch != uint32(modelEpoch) {
		return Verdict{}, false
	}
	v := Verdict{Class: r.Class(), Confidence: r.Confidence(), Rule: r, AtRequest: int64(sv.AtRequest)}
	if sv.Origin != 0 {
		members := e.members()
		if int(sv.Origin) > len(members) {
			return Verdict{}, false
		}
		v.Origin = members[sv.Origin-1]
	}
	return v, true
}

// Detector returns the engine's verdict table.
func (e *Engine) Detector() detect.Detector { return e.det }

// Learned returns the model holder the table's learned rows read.
func (e *Engine) Learned() *detect.Learned { return e.learned }

// SetModel atomically publishes a (re)trained AdaBoost model onto the
// serving path. Readers take no lock: in-flight verdict reads finish on
// whichever model they loaded, subsequent calls see the new one, and every
// stored verdict is implicitly invalidated by the model-epoch advance.
// Passing nil unpublishes the model, reverting to rules-only verdicts.
func (e *Engine) SetModel(m *adaboost.Model) { e.learned.SetModel(m) }

// Model returns the currently published AdaBoost model, or nil.
func (e *Engine) Model() *adaboost.Model { return e.learned.Model() }

// Fleet is the replication layer as the engine sees it (cdn wires a
// fleet.Replicator through it).
type Fleet interface {
	// ExportVerdict receives every locally derived Definite verdict exactly
	// when it is first computed (a classification that missed the stored
	// verdict). It runs on the serving path's classify recompute, so it must
	// be fast and non-blocking.
	ExportVerdict(key session.Key, v Verdict)
	// PeerVerdict returns the live verdict another node replicated for key,
	// its Origin set to that node, or false.
	PeerVerdict(key session.Key) (Verdict, bool)
	// Members is the fleet's fixed membership, every node including this
	// one: a stored replicated verdict keeps its origin as an index into it.
	Members() []string
}

// SetFleet attaches (or detaches, with nil) the replication layer: the
// table's remote row serves f.PeerVerdict after direct evidence, and every
// locally derived Definite verdict goes to f.ExportVerdict.
func (e *Engine) SetFleet(f Fleet) { e.fleet.Store(&f) }

// peerVerdict is the remote row's source; with no fleet attached no peer
// holds a verdict.
func (e *Engine) peerVerdict(key session.Key) (Verdict, bool) {
	if f := e.fleet.Load(); f != nil && *f != nil {
		return (*f).PeerVerdict(key)
	}
	return Verdict{}, false
}

// members returns the attached fleet's membership (nil with none).
func (e *Engine) members() []string {
	if f := e.fleet.Load(); f != nil && *f != nil {
		return (*f).Members()
	}
	return nil
}

// ApplyRemoteVerdict tells the engine the fleet's verdict for key changed:
// a locally tracked session's decision epoch is bumped, dropping its stored
// verdict, so the next classification reads the remote row afresh.
func (e *Engine) ApplyRemoteVerdict(key session.Key) { e.sessions.Bump(key) }

// AdoptSession replays another node's evidence for a session into the local
// tracker — the receiving half of a partition-failover or drain handoff.
// Signals are replayed through the tracker's normal Mark path (creating the
// session when unknown), so every downstream consumer (classification,
// policy, telemetry) sees them exactly as if observed locally. Request
// counters are not transferred — the partition owner keeps the authoritative
// counts — so adopted sessions cannot double-count.
func (e *Engine) AdoptSession(key session.Key, signals []session.Signal) {
	for _, sig := range signals {
		e.sessions.Mark(key, sig)
	}
}

// RecordOutcome stores a labelled outcome for a tracked session — external
// ground truth such as a workload label, an operator decision or an abuse
// report, or a newly set definite signal. It feeds the online retraining
// loop with the session's attribute vector; sessions below
// outcomeMinRequests are skipped — their attribute vectors are noise.
func (e *Engine) RecordOutcome(key session.Key, human bool) {
	snap, ok := e.sessions.Peek(key)
	if !ok {
		return
	}
	if int64(snap.Counts.Total) >= outcomeMinRequests {
		e.outcomes.Add(snap.Counts.Vector(), human)
	}
	snap.Release()
}

// RecordOutcomeVector stores a labelled attribute vector directly, for
// callers that computed features offline (log replay, finished sessions).
func (e *Engine) RecordOutcomeVector(x features.Vector, human bool) { e.outcomes.Add(x, human) }

// OutcomeCount returns the number of labelled outcomes currently retained.
func (e *Engine) OutcomeCount() int { return e.outcomes.Len() }

// Outcomes returns an independent copy of the retained labelled outcomes.
func (e *Engine) Outcomes() []features.Example { return e.outcomes.Snapshot() }

// RetrainFromOutcomes fits an AdaBoost ensemble to the accumulated labelled
// outcomes and hot-swaps it onto the serving path. It returns the published
// model, or an error when the outcome set cannot support training yet (no
// examples, or a single class); the previous model stays published then.
func (e *Engine) RetrainFromOutcomes() (*adaboost.Model, error) {
	m, err := adaboost.Train(e.Outcomes())
	if err != nil {
		e.tel.TrainerErrors.Inc()
		return nil, err
	}
	e.SetModel(m)
	e.tel.TrainerRetrains.Inc()
	return m, nil
}

// StartTrainer runs the online training loop until the returned stop
// function is called: every interval it checks whether at least minNew
// labelled outcomes arrived since the last (re)train and, if so, retrains
// and hot-swaps the model. Training runs on the trainer goroutine only; the
// serving path never blocks on it.
func (e *Engine) StartTrainer(interval time.Duration, minNew int) (stop func()) {
	if interval <= 0 {
		interval = time.Minute
	}
	return every(interval, e.trainerStep(minNew))
}

// trainerStep is one check of the online training loop; when it runs is the
// caller's business, so it ignores the tick's time.
func (e *Engine) trainerStep(minNew int) func(time.Time) {
	if minNew <= 0 {
		minNew = 64
	}
	var trainedAt int64
	return func(time.Time) {
		total := e.outcomes.Total()
		if total-trainedAt < int64(minNew) {
			return
		}
		if _, err := e.RetrainFromOutcomes(); err == nil {
			trainedAt = total
		}
	}
}

// Sessions returns every active session with its current verdict, gathered
// shard by shard (no global lock).
func (e *Engine) Sessions() []ClassifiedSession { return e.classified(e.sessions.Snapshots()) }

// Session returns a copy of one active session's snapshot, if it is
// tracked. Per-request readers use Decide, which reads the same Peek
// without copying it out.
func (e *Engine) Session(key session.Key) (session.Snapshot, bool) {
	p, ok := e.sessions.Peek(key)
	if !ok {
		return session.Snapshot{}, false
	}
	snap := *p
	p.Release()
	return snap, true
}

// SessionCount returns the number of active sessions.
func (e *Engine) SessionCount() int { return e.sessions.Active() }

// OneRequestSessions returns the number of tracked sessions that have made
// one request and nothing else, the sessions the tracker's 64-byte newcomer
// record is for. It walks one shard at a time under its lock: it is for
// scrapes and status pages.
func (e *Engine) OneRequestSessions() int { return e.sessions.OneRequest() }

// ShardCount returns the engine's shard count (a power of two).
func (e *Engine) ShardCount() int { return e.sessions.ShardCount() }

// SweepStep amortises idle expiry: each call sweeps the next shard in
// round-robin order (ShardCount calls make one full pass) and returns the
// number of sessions ended. Live deployments call it from a ticker so no
// single request ever pays for a full-table sweep. Each step also refreshes
// the load state, so recovery from overload is observed even when traffic
// (and with it the admission-path recomputation) has stopped entirely.
func (e *Engine) SweepStep(now time.Time) int {
	n := e.sessions.SweepStep(now)
	// Once per full pass over the shards, redistribute the per-shard session
	// caps from the occupancy the pass just observed (see
	// session.Tracker.RebalanceCaps) — the autotuning half of the occupancy
	// signal the load ladder publishes.
	if e.sweepSteps.Add(1)%uint64(e.sessions.ShardCount()) == 0 {
		e.sessions.RebalanceCaps()
	}
	e.RecomputeLoadState()
	return n
}

// StartSweeper runs SweepStep until the returned stop function is called. A
// full pass over the table takes ShardCount steps, so the step interval is
// SessionIdleTimeout / (4 * ShardCount) — four passes per idle timeout, so a
// session outlives its timeout by at most a quarter of it — and never under
// a second. Session times come from the configured Clock.
func (e *Engine) StartSweeper() (stop func()) {
	return every(e.sweepInterval(), func(time.Time) { e.SweepStep(e.cfg.Clock.Now()) })
}

func (e *Engine) sweepInterval() time.Duration {
	return max(e.cfg.SessionIdleTimeout/time.Duration(4*e.sessions.ShardCount()), time.Second)
}

// FlushSessions ends all sessions and returns them with their final
// verdicts, flushing one shard at a time. The result is sorted by
// first-seen time then key so simulation runs stay reproducible.
func (e *Engine) FlushSessions() []ClassifiedSession { return e.classified(e.sessions.FlushAll()) }

// classified pairs each snapshot with its verdict.
func (e *Engine) classified(snaps []session.Snapshot) []ClassifiedSession {
	out := make([]ClassifiedSession, len(snaps))
	for i, s := range snaps {
		out[i] = ClassifiedSession{Snapshot: s, Verdict: e.classify(&s)}
	}
	return out
}

// Stats returns a copy of the cumulative counters.
func (e *Engine) Stats() Stats {
	keys := e.keys.Stats()
	return Stats{
		PagesInstrumented: e.stats.pagesInstrumented.Load(),
		PagesLite:         e.stats.pagesLite.Load(),
		OriginalBytes:     e.stats.originalBytes.Load(),
		AddedBytes:        e.stats.addedBytes.Load(),
		MouseBeacons:      keys.HumanHits,
		DecoyBeacons:      keys.DecoyHits,
		ReplayBeacons:     keys.ReplayHits,
		UnknownBeacons:    keys.UnknownHits,
		ExecBeacons:       e.stats.execBeacons.Load(),
		CSSBeacons:        e.stats.cssBeacons.Load(),
		ScriptServes:      e.stats.scriptServes.Load(),
		ScriptExpired:     e.stats.scriptExpired.Load(),
		HiddenHits:        e.stats.hiddenHits.Load(),
		UAReports:         e.stats.uaReports.Load(),
		UAMismatches:      e.stats.uaMismatches.Load(),
		ShedPassThrough:   e.stats.shedPassThrough.Load(),
		ShedDegraded:      e.stats.shedDegraded.Load(),
	}
}

// Config returns the effective configuration (with defaults applied).
func (e *Engine) Config() Config { return e.cfg }
