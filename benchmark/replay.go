package main

import (
	"context"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/captcha"
	"botdetect/internal/core"
	"botdetect/internal/policy"
	"botdetect/internal/proxy"
	"botdetect/internal/webmodel"
)

// This file replays a workload's request stream in-process, on one
// goroutine: every request is served by the real surface under a root span,
// and — in the ledgered pass — handed to the shadow, which repeats the
// surface's calls on its own layer instances under child spans. A first,
// bare pass serves the identical stream without the shadow; the difference
// between the two passes' root spans is what the ledger costs.

// mwSurface serves requests through a proxy.Middleware the way one keep-alive
// connection would: one connection state, one reused request and response
// writer, no sockets.
type mwSurface struct {
	mw  *proxy.Middleware
	req *http.Request
	url url.URL
	w   captureWriter
}

func newMWSurface(mw *proxy.Middleware) *mwSurface {
	m := &mwSurface{mw: mw}
	ctx := proxy.ConnContext(context.Background(), nil)
	m.req = (&http.Request{
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Host: siteHost, RemoteAddr: "127.0.0.1:40000",
	}).WithContext(ctx)
	m.w.header = make(http.Header)
	return m
}

func (m *mwSurface) Do(req agents.Request) agents.Response {
	r := m.req
	r.Method = req.Method
	r.RequestURI = req.Path
	m.url = url.URL{Path: req.Path}
	if i := strings.IndexByte(req.Path, '?'); i >= 0 {
		m.url.Path, m.url.RawQuery = req.Path[:i], req.Path[i+1:]
	}
	r.URL = &m.url
	setHeader(r.Header, "User-Agent", req.UserAgent)
	setHeader(r.Header, "X-Forwarded-For", req.IP)
	if req.Referer != "" {
		setHeader(r.Header, "Referer", req.Referer)
	} else {
		delete(r.Header, "Referer")
	}
	m.w.reset()
	m.mw.ServeHTTP(&m.w, r)
	return agents.Response{
		Status: m.w.status, ContentType: m.w.header.Get("Content-Type"),
		Body: m.w.body, RedirectTo: m.w.header.Get("Location"),
	}
}

// setHeader stores a single-valued header, reusing the value slice.
func setHeader(h http.Header, key, value string) {
	if vs := h[key]; len(vs) == 1 {
		vs[0] = value
		return
	}
	h[key] = []string{value}
}

// captureWriter is the replay's http.ResponseWriter: it keeps the status,
// headers and body in reused buffers.
type captureWriter struct {
	header http.Header
	status int
	body   []byte
}

func (w *captureWriter) reset() {
	clear(w.header)
	w.status = 0
	w.body = w.body[:0]
}

func (w *captureWriter) Header() http.Header { return w.header }

func (w *captureWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *captureWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *captureWriter) Flush() {}

// newProxyEngine builds the engine botproxy builds under builtinFlags.
func newProxyEngine() *core.Engine {
	return core.New(core.Config{Decoys: 4, ObfuscateJS: true, Seed: siteSeed})
}

// newBuiltinMiddleware builds, in-process, what botproxy serves under
// builtinFlags: the seeded site behind the middleware with enforcement and
// CAPTCHA endpoints on.
func newBuiltinMiddleware(site *webmodel.Site) (*proxy.Middleware, *core.Engine) {
	eng := newProxyEngine()
	mw := proxy.New(site.Handler(), proxy.Config{
		Engine:            eng,
		TrustForwardedFor: true,
		Policy:            policy.NewEngine(policy.Config{}),
		Captcha:           captcha.NewService(captcha.Config{Seed: siteSeed}),
	})
	return mw, eng
}

// tracedClient is the agents.Client the replay hands to the agents: it times
// the surface under a root span, then lets the shadow repeat the request.
type tracedClient struct {
	tr      *tracer
	n       spanNames
	surface agents.Client
	sh      *shadow // nil in the bare pass
	hash    uint64  // FNV-1a over every request's client, agent and path
	count   int
	// onResponse, when set, sees every exchange after it has been timed.
	onResponse func(req agents.Request, resp agents.Response)
}

// fnvOffset is the FNV-1a 64-bit offset basis the stream hash starts from.
const fnvOffset = 14695981039346656037

func (c *tracedClient) Do(req agents.Request) agents.Response {
	c.count++
	c.mix(req.IP)
	c.mix(req.UserAgent)
	c.mix(req.Path)
	c.tr.nextRequest()
	id := c.tr.begin(c.n.serveObject)
	resp := c.surface.Do(req)
	c.tr.endAs(id, c.kind(req, resp))
	if c.sh != nil {
		c.sh.replay(req)
	}
	if c.onResponse != nil {
		c.onResponse(req, resp)
	}
	return resp
}

func (c *tracedClient) mix(s string) {
	h := c.hash
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	c.hash = (h ^ 0xff) * 1099511628211 // a separator, so "ab","c" ≠ "a","bc"
}

// kind names the root span by what the surface answered.
func (c *tracedClient) kind(req agents.Request, resp agents.Response) uint16 {
	switch {
	case resp.Status == 403 || resp.Status == 429:
		return c.n.serveRefused
	case strings.HasPrefix(req.Path, beaconPrefix+"/"):
		return c.n.serveBeacon
	case resp.Status == 200 && strings.Contains(resp.ContentType, "text/html"):
		return c.n.servePage
	}
	return c.n.serveObject
}

// replayWorld is a freshly built surface with everything the replay needs to
// know about it.
type replayWorld struct {
	surface    agents.Client
	engines    []*core.Engine      // the surface's engines, one per node
	withPolicy bool                // the surface enforces policy
	route      func(ip string) int // which engine serves a client
	origin     originFunc          // what the surface's origin serves
	drive      func(c *tracedClient)
	cleanup    func()       // stops what the build started; may be nil
	codeen     *codeenWorld // the population behind a cdn surface; nil otherwise
}

// replaySpec describes how to replay one workload in-process.
type replaySpec struct {
	surface string // "proxy" or "cdn": names the root spans
	build   func() replayWorld
}

// pass is one replay of a workload's stream.
type pass struct {
	replayWorld
	tr      *tracer
	n       spanNames
	sh      *shadow
	client  *tracedClient
	seconds float64 // wall time of the drive
	cpuS    float64 // process CPU consumed by the drive
	synced  bool    // the shadow engines ended in the surface engines' state
}

func (p *pass) close() {
	if p.cleanup != nil {
		p.cleanup()
	}
}

// run replays the stream once, with or without the shadow.
func (spec replaySpec) run(ledgered bool) *pass {
	p := &pass{replayWorld: spec.build(), tr: newTracer(), synced: true}
	p.n = newSpanNames(p.tr, spec.surface)
	if ledgered {
		cfgs := make([]core.Config, len(p.engines))
		for i, e := range p.engines {
			cfgs[i] = e.Config()
		}
		p.sh = newShadow(p.tr, p.n, cfgs, p.withPolicy, p.route, p.origin, spec.surface == "cdn")
	}
	p.client = &tracedClient{tr: p.tr, n: p.n, surface: p.surface, sh: p.sh, hash: fnvOffset}

	runtime.GC() // start every pass from a collected heap
	cpu0 := selfCPUSeconds()
	t0 := time.Now()
	p.drive(p.client)
	p.seconds = time.Since(t0).Seconds()
	p.cpuS = selfCPUSeconds() - cpu0
	if p.sh != nil {
		// Compared now, before any probe touches either side.
		stats := make([]core.Stats, len(p.engines))
		for i, e := range p.engines {
			stats[i] = e.Stats()
		}
		p.synced = p.sh.inSync(stats)
	}
	return p
}

// mallocsPer runs fn n times and returns heap allocations per call.
func mallocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	fn() // once outside the window, so lazily grown buffers are in place
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
