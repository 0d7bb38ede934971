package main

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/core"
	"botdetect/internal/detect"
	"botdetect/internal/detect/rules"
	"botdetect/internal/htmlmod"
	"botdetect/internal/jsgen"
	"botdetect/internal/keystore"
	"botdetect/internal/logfmt"
	"botdetect/internal/policy"
	"botdetect/internal/rng"
	"botdetect/internal/session"
)

// This file is the per-layer ledger. For every request the traced replay
// serves through the real surface (proxy.Middleware or cdn.Network), the
// shadow makes the same calls, in the same order, into instances the
// benchmark built itself — an engine and policy ladder per node from
// core.New and policy.NewEngine, and beneath them a keystore, session
// tracker, script pool, injection composer, stream rewriter and detector
// chain of their own — with a span around each call. The shadow engines get
// the surface engines' exact configuration, seed included, and see the exact
// same call sequence, so they issue the same keys and the beacons the agents
// send validate on both; inSync checks that this held.

// spanNames are the interned names of every span the replay records.
type spanNames struct {
	// roots: what the real surface served
	servePage, serveBeacon, serveObject, serveRefused uint16
	// the shadow's copy of the serve pipeline
	ledger                                                       uint16
	beaconMiss, beaconCSS, beaconScript, beaconExec, beaconMouse uint16
	beaconOther                                                  uint16
	decide, evaluate, origin, admit, prepare, rewrite            uint16
	observe, observeNew                                          uint16
	// standalone layer instances
	layers                                      uint16
	ksIssue, ksIssueNew, ksValidate             uint16
	sessObserve, sessCreate, sessPeek           uint16
	jsRender, compose, rewriteSmall, rewriteBig uint16
	classify, polEvaluate, polBlocked           uint16
}

func newSpanNames(t *tracer, surface string) spanNames {
	page, beacon, object := "proxy.serve", "proxy.beacon", "proxy.passthrough"
	if surface == "cdn" {
		page, beacon, object = "cdn.do_page", "cdn.do_beacon", "cdn.do_object"
	}
	return spanNames{
		servePage: t.name(page), serveBeacon: t.name(beacon), serveObject: t.name(object), serveRefused: t.name(surface + ".refused"),
		ledger:     t.name("ledger.request"),
		beaconMiss: t.name("core.beacon_miss"), beaconCSS: t.name("core.beacon_css"), beaconScript: t.name("core.beacon_script"),
		beaconExec: t.name("core.beacon_exec"), beaconMouse: t.name("core.beacon_mouse"), beaconOther: t.name("core.beacon_other"),
		decide: t.name("core.decide"), evaluate: t.name("policy.evaluate_inline"), origin: t.name("origin.lookup"),
		admit: t.name("core.admit"), prepare: t.name("core.prepare_page"), rewrite: t.name("htmlmod.rewrite_inline"),
		observe: t.name("core.observe"), observeNew: t.name("core.observe_new"),
		layers:  t.name("layers.request"),
		ksIssue: t.name("keystore.issue"), ksIssueNew: t.name("keystore.issue_new"), ksValidate: t.name("keystore.validate"),
		sessObserve: t.name("session.observe"), sessCreate: t.name("session.create"), sessPeek: t.name("session.peek"),
		jsRender: t.name("jsgen.render"), compose: t.name("htmlmod.compose"),
		rewriteSmall: t.name("htmlmod.rewrite_small"), rewriteBig: t.name("htmlmod.rewrite_big"),
		classify: t.name("detect.classify"), polEvaluate: t.name("policy.evaluate"), polBlocked: t.name("policy.blocked"),
	}
}

// originFunc resolves what the origin serves for a path.
type originFunc func(path string) (status int, contentType string, body []byte)

// shadowNode is the shadow of one serving node: an engine with the node's
// configuration, its policy ladder, and per-connection page state.
type shadowNode struct {
	eng *core.Engine
	pol *policy.Engine // nil when the surface runs without enforcement
	ps  core.PageState
	rw  htmlmod.StreamRewriter
}

// shadow replays requests into benchmark-built layer instances under spans.
type shadow struct {
	tr     *tracer
	n      spanNames
	nodes  []*shadowNode
	route  func(ip string) int
	origin originFunc
	// cdnStyle mirrors cdn.Node.Do where it differs from proxy.Middleware:
	// refused requests are observed into the tracker, entries carry the
	// request's virtual time, and the CAPTCHA pseudo-path exists.
	cdnStyle bool
	prefix   string
	seen     map[session.Key]struct{}

	// Standalone layer instances.
	ks       *keystore.Store
	pk       keystore.PageKeys
	lastKey  map[string]uint64
	tracker  *session.Tracker
	pool     *jsgen.Pool
	script   []byte
	picks    *rng.Source
	prep     htmlmod.Prepared
	urls     [4][]byte // css, script, inline, hidden scratch
	srw      htmlmod.StreamRewriter
	chain    detect.Detector
	pol      *policy.Engine
	blocked  session.Snapshot
	requests int

	// Exact counts gathered along the way.
	addedBytes  []float64
	scriptBytes []float64
}

// newShadow builds the shadow for surface engines configured as cfgs (one
// per node) and the standalone layer instances beside them.
func newShadow(tr *tracer, n spanNames, cfgs []core.Config, withPolicy bool, route func(string) int, origin originFunc, cdnStyle bool) *shadow {
	s := &shadow{
		tr: tr, n: n, route: route, origin: origin, cdnStyle: cdnStyle,
		prefix:  cfgs[0].BeaconPrefix,
		seen:    make(map[session.Key]struct{}),
		lastKey: make(map[string]uint64),
		picks:   rng.New(cfgs[0].Seed).Fork("shadow-picks"),
	}
	for _, cfg := range cfgs {
		cfg.Telemetry = nil // a private registry: the surface keeps its own
		cfg.TelemetryNode = ""
		cfg.OnSessionEnd = nil
		node := &shadowNode{eng: core.New(cfg)}
		if withPolicy {
			node.pol = policy.NewEngine(policy.Config{Clock: cfg.Clock})
		}
		s.nodes = append(s.nodes, node)
	}
	cfg := s.nodes[0].eng.Config() // defaults filled in
	s.ks = keystore.New(keystore.Config{Decoys: cfg.Decoys, KeyDigits: cfg.KeyDigits, TTL: cfg.SessionIdleTimeout, Shards: cfg.Shards, Seed: cfg.Seed, Clock: cfg.Clock})
	s.tracker = session.NewTracker(session.Config{IdleTimeout: cfg.SessionIdleTimeout, MaxSessions: cfg.MaxSessions, Shards: cfg.Shards, Clock: cfg.Clock, DecisionMarks: []int64{cfg.MinRequests}})
	s.pool = jsgen.NewPool(jsgen.NewGenerator(), jsgen.TemplateConfig{
		BeaconBase: cfg.BeaconBase, BeaconPrefix: cfg.BeaconPrefix, KeyDigits: cfg.KeyDigits,
		Decoys: cfg.Decoys, UAReport: true, Obfuscate: cfg.ObfuscateJS,
	}, cfg.ScriptVariants, cfg.Seed)
	s.chain = rules.Serving(cfg.MinRequests, nil)
	s.pol = policy.NewEngine(policy.Config{Clock: cfg.Clock})
	blockedKey := session.Key{IP: "192.0.2.1", UserAgent: "blocked-probe"}
	s.pol.BlockNow(blockedKey)
	s.blocked = session.Snapshot{Key: blockedKey}
	return s
}

// beaconKind names an instrumentation path's span by what the engine will do
// with it.
func (s *shadow) beaconKind(path string) uint16 {
	rest := strings.TrimPrefix(path, s.prefix+"/")
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		rest = rest[:i]
	}
	switch {
	case strings.HasPrefix(rest, "js/"):
		return s.n.beaconExec
	case strings.HasPrefix(rest, "index_"):
		return s.n.beaconScript
	case strings.HasPrefix(rest, "hidden/"), strings.HasPrefix(rest, "ua/"), strings.HasSuffix(rest, ".gif"):
		return s.n.beaconOther
	case strings.HasSuffix(rest, ".css"):
		return s.n.beaconCSS
	case strings.HasSuffix(rest, ".jpg"):
		return s.n.beaconMouse
	}
	return s.n.beaconOther
}

func stripQuery(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		return path[:i]
	}
	return path
}

// replay makes, for one request the surface just served, the calls the
// surface made — first into the shadow engine under a ledger.request span,
// then into the standalone layers under a layers.request span.
func (s *shadow) replay(req agents.Request) {
	node := s.nodes[s.route(req.IP)]
	key := session.Key{IP: req.IP, UserAgent: req.UserAgent}
	s.requests++
	root := s.tr.begin(s.n.ledger)
	p := s.pipeline(node, req, key)
	s.tr.end(root)
	switch {
	case p.isBeacon:
		s.layerBeacon(req, key, p.beacon)
	case p.served:
		s.layerOrigin(req, key, p)
	}
}

// piped is what the shadow's serve pipeline did with a request.
type piped struct {
	isBeacon    bool   // the engine intercepted it as instrumentation traffic
	beacon      uint16 // ... and this is the span name of its kind
	served      bool   // an origin response was produced (not refused, not CAPTCHA)
	page        bool   // ... and it was an instrumented page
	now         time.Time
	status      int
	contentType string
	body        []byte
}

// pipeline is the serve path of proxy.Middleware.ServeHTTP and cdn.Node.Do,
// call for call, on the shadow node.
func (s *shadow) pipeline(node *shadowNode, req agents.Request, key session.Key) piped {
	tr, n := s.tr, s.n
	if s.cdnStyle && req.Path == agents.CaptchaSolvePath {
		node.eng.MarkCaptchaPassed(key)
		s.tracker.Mark(key, session.SignalCaptcha)
		return piped{}
	}

	id := tr.begin(n.beaconMiss)
	if resp, ok := node.eng.HandleBeacon(req.IP, req.UserAgent, req.Path); ok {
		resp.Done()
		kind := s.beaconKind(req.Path)
		tr.endAs(id, kind)
		return piped{isBeacon: true, beacon: kind}
	}
	tr.end(id)

	p := piped{now: req.Time}
	if !s.cdnStyle {
		p.now = time.Now()
	}
	_, known := s.seen[key]
	if node.pol != nil {
		id = tr.begin(n.decide)
		snap, verdict, tracked := node.eng.Decide(key)
		tr.end(id)
		if tracked {
			id = tr.begin(n.evaluate)
			decision := node.pol.Evaluate(*snap, verdict)
			tr.end(id)
			snap.Release()
			refused := 0
			switch decision.Action {
			case policy.Block:
				refused, p.contentType = 403, "text/html"
			case policy.Challenge:
				refused, p.contentType = 429, "text/plain"
			}
			if refused != 0 {
				if s.cdnStyle {
					s.observe(node, req, p.now, known, refused, p.contentType, 0)
				}
				return piped{}
			}
		}
	}

	id = tr.begin(n.origin)
	p.status, p.contentType, p.body = s.origin(req.Path)
	tr.end(id)
	id = tr.begin(n.admit)
	adm := node.eng.AdmitPage(req.IP, req.UserAgent)
	tr.end(id)
	p.served = true
	p.page = adm != core.AdmitPassThrough && p.status == http.StatusOK && req.Method == "GET" && strings.Contains(p.contentType, "text/html")
	if p.page {
		id = tr.begin(n.prepare)
		var prep *htmlmod.Prepared
		if adm == core.AdmitDegraded {
			prep = node.eng.PreparePageDegraded(req.IP, req.UserAgent, stripQuery(req.Path), &node.ps)
		} else {
			prep = node.eng.PreparePage(req.IP, req.UserAgent, stripQuery(req.Path), &node.ps)
		}
		tr.end(id)
		id = tr.begin(n.rewrite)
		node.rw.Reset(io.Discard, prep)
		node.rw.SetHoldLimit(2 << 20)
		_, _ = node.rw.Write(p.body) // io.Discard cannot fail
		_ = node.rw.Close()
		tr.end(id)
		res := node.rw.Result()
		node.eng.RecordInstrumented(len(p.body), res.AddedBytes)
		s.addedBytes = append(s.addedBytes, float64(res.AddedBytes))
	}
	if adm != core.AdmitPassThrough {
		s.observe(node, req, p.now, known, p.status, p.contentType, int64(len(p.body)))
	}
	return p
}

func (s *shadow) observe(node *shadowNode, req agents.Request, now time.Time, known bool, status int, contentType string, bytes int64) {
	name := s.n.observe
	if !known {
		name = s.n.observeNew
		s.seen[session.Key{IP: req.IP, UserAgent: req.UserAgent}] = struct{}{}
	}
	id := s.tr.begin(name)
	node.eng.ObserveRequestQuiet(logfmt.Entry{
		Time: now, ClientIP: req.IP, UserAgent: req.UserAgent, Method: req.Method, Path: req.Path,
		Protocol: "HTTP/1.1", Status: status, Bytes: bytes, Referer: req.Referer, ContentType: contentType,
	})
	s.tr.end(id)
}

// layerBeacon gives the standalone layers their share of a beacon request:
// the tracker learns the signal, and a mouse beacon validates a key.
func (s *shadow) layerBeacon(req agents.Request, key session.Key, kind uint16) {
	tr, n := s.tr, s.n
	root := tr.begin(n.layers)
	switch kind {
	case n.beaconCSS:
		s.tracker.Mark(key, session.SignalCSS)
	case n.beaconScript:
		s.tracker.Mark(key, session.SignalJSFile)
	case n.beaconExec:
		s.tracker.Mark(key, session.SignalJS)
	case n.beaconMouse:
		// The standalone keystore issued its own keys; present the real one
		// it last gave this client, as a human's handler would.
		id := tr.begin(n.ksValidate)
		verdict := s.ks.ValidateValue(req.IP, s.lastKey[req.IP])
		tr.end(id)
		if verdict == keystore.Human {
			s.tracker.Mark(key, session.SignalMouse)
		}
	}
	tr.end(root)
}

// layerOrigin gives the standalone layers their share of an origin request.
func (s *shadow) layerOrigin(req agents.Request, key session.Key, p piped) {
	tr, n := s.tr, s.n
	now, status, contentType, body, page := p.now, p.status, p.contentType, p.body, p.page
	root := tr.begin(n.layers)
	defer tr.end(root)

	id := tr.begin(n.sessPeek)
	snap, tracked := s.tracker.Peek(key)
	tr.end(id)
	if tracked {
		id = tr.begin(n.classify)
		verdict, _ := s.chain.Detect(snap)
		tr.end(id)
		id = tr.begin(n.polEvaluate)
		s.pol.Evaluate(*snap, verdict)
		tr.end(id)
		snap.Release()
	}
	if s.requests%16 == 0 {
		id = tr.begin(n.polBlocked)
		s.pol.Evaluate(s.blocked, detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite})
		tr.end(id)
	}
	name := n.sessObserve
	if !tracked {
		name = n.sessCreate
	}
	id = tr.begin(name)
	s.tracker.ObserveQuiet(logfmt.Entry{
		Time: now, ClientIP: req.IP, UserAgent: req.UserAgent, Method: req.Method, Path: req.Path,
		Protocol: "HTTP/1.1", Status: status, Bytes: int64(len(body)), Referer: req.Referer, ContentType: contentType,
	})
	tr.end(id)
	if !page {
		return
	}

	name = n.ksIssue
	if _, ok := s.lastKey[req.IP]; !ok {
		name = n.ksIssueNew
	}
	id = tr.begin(name)
	s.ks.IssuePage(req.IP, stripQuery(req.Path), &s.pk)
	tr.end(id)
	s.lastKey[req.IP] = s.pk.Key

	id = tr.begin(n.jsRender)
	s.script = s.pool.Pick(s.picks.Uint64()).RenderKeys(s.script[:0], s.pk.Key, s.pk.ScriptToken, s.pk.Decoys, s.pk.Digits)
	tr.end(id)
	s.scriptBytes = append(s.scriptBytes, float64(len(s.script)))

	s.composeURLs()
	id = tr.begin(n.compose)
	s.prep.Compose(htmlmod.InjectionBytes{
		CSSHref: s.urls[0], ScriptSrc: s.urls[1], InlineScript: s.urls[2],
		HandlerName: []byte("__bd_f"), HiddenHref: s.urls[3], HiddenImgSrc: []byte(jsgen.TransparentImagePath(s.prefix)),
	})
	tr.end(id)

	name = n.rewriteSmall
	if len(body) > 64<<10 {
		name = n.rewriteBig
	}
	id = tr.begin(name)
	s.srw.Reset(io.Discard, &s.prep)
	_, _ = s.srw.Write(body) // io.Discard cannot fail
	_ = s.srw.Close()
	tr.end(id)
}

// composeURLs builds the page's injected URLs from the keys just issued, the
// way the engine does before composing the fragments.
func (s *shadow) composeURLs() {
	pk := &s.pk
	pre, suf := jsgen.CSSPathParts(s.prefix)
	s.urls[0] = append(pk.AppendKey(append(s.urls[0][:0], pre...), pk.CSSToken), suf...)
	pre, suf = jsgen.ScriptPathParts(s.prefix)
	s.urls[1] = append(pk.AppendKey(append(s.urls[1][:0], pre...), pk.ScriptToken), suf...)
	pre, suf = jsgen.InlineUAScriptParts("", s.prefix)
	s.urls[2] = append(pk.AppendKey(append(s.urls[2][:0], pre...), pk.ScriptToken), suf...)
	pre, suf = jsgen.HiddenPathParts(s.prefix)
	s.urls[3] = append(pk.AppendKey(append(s.urls[3][:0], pre...), pk.HiddenToken), suf...)
}

// inSync compares the shadow engines' counters with the surface engines':
// equal counters mean both saw the same requests, issued the same keys and
// reached the same beacon verdicts.
func (s *shadow) inSync(surface []core.Stats) bool {
	for i, node := range s.nodes {
		a, b := node.eng.Stats(), surface[i]
		if a.PagesInstrumented != b.PagesInstrumented || a.MouseBeacons != b.MouseBeacons ||
			a.DecoyBeacons != b.DecoyBeacons || a.UnknownBeacons != b.UnknownBeacons ||
			a.ReplayBeacons != b.ReplayBeacons || a.ExecBeacons != b.ExecBeacons ||
			a.HiddenHits != b.HiddenHits || a.UAMismatches != b.UAMismatches {
			fmt.Printf("shadow node %d out of step:\n  shadow  %+v\n  surface %+v\n", i, a, b)
			return false
		}
	}
	return true
}
