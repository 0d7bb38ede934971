// Package proxy adapts the detection core to net/http: it is the deployment
// vehicle corresponding to the instrumented CoDeeN proxies in the paper. The
// middleware intercepts instrumentation requests (beacons, generated
// stylesheets and scripts, hidden links, CAPTCHA endpoints), observes
// ordinary requests for session tracking, rewrites HTML responses on the way
// to the client, and enforces the policy engine's decisions on
// robot-classified sessions.
//
// Responses are streamed, not buffered: HTML bodies flow through a zero-copy
// streaming injector (htmlmod.StreamRewriter) that splices the
// instrumentation in at the head/body anchors as the origin produces bytes,
// so time-to-first-byte is proportional to the distance to the first anchor
// rather than to the document length, and non-HTML bodies are forwarded
// verbatim with no size cap. Only documents whose anchors arrive in a
// pathological order (no <head> before the first <body>) are held back, up
// to maxRewriteBytes (2 MiB), for a whole-document rewrite.
package proxy

import (
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"botdetect/internal/captcha"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/htmlmod"
	"botdetect/internal/logfmt"
	"botdetect/internal/policy"
	"botdetect/internal/session"
)

// Config controls the middleware.
type Config struct {
	// Engine is the detection engine; required.
	Engine *core.Engine
	// Policy optionally enforces throttling/blocking on robot sessions.
	Policy *policy.Engine
	// Captcha optionally serves challenge/verify endpoints under the
	// instrumentation prefix.
	Captcha *captcha.Service
	// TrustForwardedFor names the client by the rightmost X-Forwarded-For
	// entry when the request comes from a loopback or private peer (for
	// deployments behind another proxy); a public peer's header is ignored.
	TrustForwardedFor bool
	// Upstream configures the origin transport, retries, per-request deadline
	// and circuit breaker for middleware built with NewReverseProxy. Ignored
	// for in-process origin handlers.
	Upstream UpstreamConfig
}

// maxRewriteBytes caps the bytes the streaming rewriter may retain while a
// decision is pending: a document with no <head> before its first <body> is
// buffered whole for the fallback rewrite, and raw-text content (an inline
// script or style body) is held until its end tag. Documents that exceed the
// cap are forwarded verbatim from that point on. Well-anchored HTML whose
// raw-text spans fit the cap streams regardless of total document size.
const maxRewriteBytes = 2 << 20

// throttleDelay is the constant service delay a throttled session pays per
// request: the cheapest fair approximation without per-session queues.
const throttleDelay = 10 * time.Millisecond

// Middleware wraps an origin handler with detection and enforcement.
type Middleware struct {
	cfg    Config
	origin http.Handler
	clk    clock.Clock // the engine's: the throttle delay, the retry backoff and the breaker are on it

	// breaker/upstream are set by NewReverseProxy; nil for in-process origins.
	breaker  *Breaker
	upstream *upstreamTripper
}

// New creates the middleware around the given origin handler. It panics if
// cfg.Engine is nil, since the middleware is useless without it.
func New(origin http.Handler, cfg Config) *Middleware {
	if cfg.Engine == nil {
		panic("proxy: Config.Engine is required")
	}
	return &Middleware{cfg: cfg, origin: origin, clk: cfg.Engine.Config().Clock}
}

// ServeHTTP implements http.Handler.
func (m *Middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	clientIP := m.clientIP(r)
	ua := r.UserAgent()
	key := session.Key{IP: clientIP, UserAgent: ua}
	d := m.cfg.Engine
	tel := d.Telemetry()

	// CAPTCHA endpoints live under the instrumentation prefix but are
	// handled before generic beacon dispatch.
	if m.cfg.Captcha != nil && m.handleCaptcha(w, r, key) {
		tel.RequestsCaptcha.Inc()
		tel.ProxyRequest.ObserveSince(start)
		return
	}

	// Instrumentation traffic: beacons, generated objects, hidden links.
	if resp, ok := d.HandleBeacon(clientIP, ua, requestURI(r)); ok {
		writeDetectorResponse(w, resp)
		tel.RequestsBeacon.Inc()
		tel.ProxyRequest.ObserveSince(start)
		return
	}

	// Policy enforcement: the escalation ladder is driven by the detection
	// chain's (cached) verdict and the session's current snapshot.
	if m.cfg.Policy != nil {
		if snap, verdict, tracked := d.Decide(key); tracked {
			decision := m.cfg.Policy.Evaluate(*snap, verdict)
			snap.Release()
			// A refused request still counts against its session, and counts
			// the way the simulated edge (cdn.Node.Do) counts it — the status,
			// the edge's content type, no origin bytes — so the ladder's grace
			// and error-share arithmetic is the same on every surface.
			switch decision.Action {
			case policy.Block:
				http.Error(w, "blocked: "+decision.Reason, http.StatusForbidden)
				m.observe(r, clientIP, ua, http.StatusForbidden, 0, "text/html")
				tel.RequestsBlocked.Inc()
				tel.ProxyRequest.ObserveSince(start)
				return
			case policy.Challenge:
				m.writeChallenge(w, decision)
				m.observe(r, clientIP, ua, http.StatusTooManyRequests, 0, "text/plain")
				tel.RequestsChallenged.Inc()
				tel.ProxyRequest.ObserveSince(start)
				return
			case policy.Throttle:
				// A client that hangs up mid-delay skips the rest of it: the
				// serve below fails fast on the dead context and still counts
				// against the session.
				tel.RequestsThrottled.Inc()
				_ = m.clk.Sleep(r.Context(), throttleDelay)
			}
		}
	}

	// Serve from origin, streaming the response through: HTML bodies pass
	// through the streaming injector as they are produced, everything else
	// is forwarded verbatim. Status and size are observed for session
	// tracking once the response completes. A connection accepted through
	// proxy.ConnContext carries its own streamer/rewriter/page state, reused
	// across keep-alive requests; a request that cannot claim it (no
	// ConnContext, or HTTP/2 streams racing for it) serves on a fresh one.
	cs := claimConn(r)
	st := &cs.st
	st.reset(m, w, r, clientIP, ua)
	st.conn = cs
	// Admission control: under load the engine degrades instrumentation for
	// anonymous arrivals and, when saturated, serves brand-new clients as
	// uninstrumented pass-through (no session created) so a flash crowd
	// cannot wash evidence-bearing sessions out of the tracker. At normal
	// load this is a single atomic load — the zero-alloc serve path keeps
	// its budget.
	st.admission = d.AdmitPage(clientIP, ua)
	m.serveOrigin(st, r)
	st.finish()
	tel.RequestsOrigin.Inc()
	tel.ProxyRequest.ObserveSince(start)

	// Pass-through requests are deliberately not observed: admitting them to
	// the tracker is exactly the load being shed.
	if st.admission != core.AdmitPassThrough {
		m.observe(r, clientIP, ua, st.status, st.originBytes, st.contentType)
	}
	st.unclaim()
}

// observe counts a completed request into its session. The snapshot a plain
// Observe returns would be discarded — the policy check reads its own — so
// it records quietly. Entry.Time stays zero: the tracker stamps the request
// with the engine's clock, the one its sweeper expires sessions by.
func (m *Middleware) observe(r *http.Request, clientIP, ua string, status int, bytes int64, contentType string) {
	m.cfg.Engine.ObserveRequestQuiet(logfmt.Entry{
		ClientIP:    clientIP,
		Method:      r.Method,
		Path:        requestURI(r),
		Protocol:    r.Proto,
		Status:      status,
		Bytes:       bytes,
		Referer:     r.Referer(),
		UserAgent:   ua,
		ContentType: contentType,
	})
}

// serveOrigin runs the origin handler with abort hygiene: when the handler
// panics mid-response — httputil.ReverseProxy raises http.ErrAbortHandler
// after the upstream dies with the headers already sent — the connection
// claim is released, without writing the rewrite tail (flushing held bytes
// or injection fragments would only race the close), before the panic
// continues to net/http, which tears the client connection down. The panic
// must NOT be swallowed: recovering and returning normally would end the
// response with a clean terminal chunk, presenting a truncated document as a
// complete one.
func (m *Middleware) serveOrigin(st *responseStreamer, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			st.unclaim()
			panic(p)
		}
	}()
	m.origin.ServeHTTP(st, r)
}

// requestURI returns the request-line URI without reassembling it: the raw
// string net/http captured, falling back to reconstruction for synthetic
// requests (tests, client-side values) that lack it.
func requestURI(r *http.Request) string {
	if r.RequestURI != "" {
		return r.RequestURI
	}
	return r.URL.RequestURI()
}

// handleCaptcha serves GET <prefix>/captcha/new and POST <prefix>/captcha/verify.
// It returns true when the request was a CAPTCHA endpoint.
func (m *Middleware) handleCaptcha(w http.ResponseWriter, r *http.Request, key session.Key) bool {
	prefix := m.cfg.Engine.Config().BeaconPrefix + "/captcha/"
	if !strings.HasPrefix(r.URL.Path, prefix) {
		return false
	}
	switch strings.TrimPrefix(r.URL.Path, prefix) {
	case "new":
		ch := m.cfg.Captcha.Issue(key)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Cache-Control", "no-cache, no-store")
		fmt.Fprintf(w, "id=%s\nquestion=%s\n", ch.ID, ch.Question)
	case "verify":
		if err := r.ParseForm(); err != nil {
			http.Error(w, "bad form", http.StatusBadRequest)
			return true
		}
		id := r.Form.Get("id")
		answer := r.Form.Get("answer")
		if m.cfg.Captcha.Verify(id, answer) {
			m.cfg.Engine.MarkCaptchaPassed(key)
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
		} else {
			// A failed attempt is a weak robot label for the online training
			// loop (the paper's CAPTCHA ground truth), but not a detection
			// signal: humans mistype.
			m.cfg.Engine.MarkCaptchaFailed(key)
			http.Error(w, "wrong answer", http.StatusForbidden)
		}
	default:
		http.NotFound(w, r)
	}
	return true
}

// writeChallenge serves the CAPTCHA interstitial for the policy engine's
// monitor→challenge transition: a 429 pointing the client at the challenge
// endpoints. A human proves itself (de-escalating the ladder); a robot that
// keeps going faces the behavioural thresholds on every further request.
func (m *Middleware) writeChallenge(w http.ResponseWriter, d policy.Decision) {
	prefix := m.cfg.Engine.Config().BeaconPrefix
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-cache, no-store")
	w.WriteHeader(http.StatusTooManyRequests)
	fmt.Fprintf(w, "challenge: %s\n", d.Reason)
	if m.cfg.Captcha != nil {
		fmt.Fprintf(w, "solve: GET %s/captcha/new then POST %s/captcha/verify (id, answer)\n", prefix, prefix)
	}
}

// clientIP extracts the client address: the TCP peer's host, or, with
// TrustForwardedFor and a loopback or private peer, the rightmost
// X-Forwarded-For entry (the one that hop appended) when it parses as an IP
// address. A public peer's header is never read: anyone can send one.
func (m *Middleware) clientIP(r *http.Request) string {
	peer, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		peer = r.RemoteAddr
	}
	if !m.cfg.TrustForwardedFor {
		return peer
	}
	addr, err := netip.ParseAddr(peer)
	if addr = addr.Unmap(); err != nil || !addr.IsLoopback() && !addr.IsPrivate() {
		return peer
	}
	lines := r.Header["X-Forwarded-For"]
	if len(lines) == 0 {
		return peer
	}
	last := lines[len(lines)-1]
	last = strings.TrimSpace(last[strings.LastIndexByte(last, ',')+1:])
	if _, err := netip.ParseAddr(last); err != nil {
		return peer
	}
	return last
}

// noStoreHeader is the preallocated Cache-Control value for instrumented
// responses; assigning the shared slice avoids the per-request []string
// header.Set allocates. Nothing downstream appends to Cache-Control.
var noStoreHeader = []string{"no-cache, no-store"}

// writeDetectorResponse writes a core.Response to the client and releases
// the resources its body pins (the pooled script buffer for downloads).
func writeDetectorResponse(w http.ResponseWriter, resp core.Response) {
	w.Header().Set("Content-Type", resp.ContentType)
	if resp.NoCache {
		w.Header()["Cache-Control"] = noStoreHeader
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)))
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
	resp.Done()
}

// responseStreamer forwards the origin's response to the client as it is
// produced, routing 200 GET text/html bodies through the streaming
// instrumentation injector. It records status, content type and origin body
// size for session tracking.
type responseStreamer struct {
	m        *Middleware
	w        http.ResponseWriter
	req      *http.Request
	clientIP string
	ua       string

	started     bool
	status      int
	contentType string
	originBytes int64
	admission   core.Admission // how much instrumentation this view gets

	rewriter     *htmlmod.StreamRewriter // &conn.rw while a page is being rewritten
	discard      bool                    // HEAD responses carry no body
	rewriteNanos int64                   // time spent inside the stream rewriter
	conn         *connState              // the working set this streamer is embedded in
}

// reset rearms a connection-owned streamer for its next request.
func (s *responseStreamer) reset(m *Middleware, w http.ResponseWriter, r *http.Request, clientIP, ua string) {
	s.m, s.w, s.req, s.clientIP, s.ua = m, w, r, clientIP, ua
	s.started, s.status, s.contentType, s.originBytes = false, 0, "", 0
	s.admission = core.AdmitFull
	s.rewriter, s.discard, s.rewriteNanos = nil, false, 0
}

// unclaim ends the request's hold on its connection state, dropping the
// references that would otherwise pin the finished request.
func (s *responseStreamer) unclaim() {
	s.w, s.req = nil, nil
	s.conn.inUse.Store(false)
}

func (s *responseStreamer) Header() http.Header { return s.w.Header() }

func (s *responseStreamer) WriteHeader(code int) {
	if s.started {
		return
	}
	s.started = true
	s.status = code
	h := s.w.Header()
	s.contentType = h.Get("Content-Type")
	s.discard = s.req.Method == http.MethodHead
	isHTML := containsFold(s.contentType, "text/html")
	if isHTML {
		// Instrumented pages carry per-view keys and must not be cached.
		h["Cache-Control"] = noStoreHeader
	}
	if isHTML && code == http.StatusOK && s.req.Method == http.MethodGet &&
		s.admission != core.AdmitPassThrough {
		// Zero-copy path: keys issued numerically into the connection's
		// PageState, fragments composed in place, and the connection's
		// rewriter armed for vectored writes — injection fragments and
		// origin chunks splice into the socket via one writev per chunk.
		eng := s.m.cfg.Engine
		var prep *htmlmod.Prepared
		if s.admission == core.AdmitDegraded {
			prep = eng.PreparePageDegraded(s.clientIP, s.ua, s.req.URL.Path, &s.conn.ps)
		} else {
			prep = eng.PreparePage(s.clientIP, s.ua, s.req.URL.Path, &s.conn.ps)
		}
		s.rewriter = &s.conn.rw
		s.rewriter.Reset(s.w, prep)
		s.rewriter.SetVectored(true)
		// The rewritten length is unknown until the document ends; drop the
		// origin's Content-Length and let net/http pick the framing.
		h.Del("Content-Length")
		s.rewriter.SetHoldLimit(maxRewriteBytes)
	}
	s.w.WriteHeader(code)
}

// containsFold reports whether s contains t case-insensitively; t must be
// lowercase ASCII. It replaces strings.Contains(strings.ToLower(s), t) on
// the per-request path, which allocates for any uppercase content type.
func containsFold(s, t string) bool {
	for i := 0; i+len(t) <= len(s); i++ {
		j := 0
		for j < len(t) {
			c := s[i+j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != t[j] {
				break
			}
			j++
		}
		if j == len(t) {
			return true
		}
	}
	return false
}

func (s *responseStreamer) Write(p []byte) (int, error) {
	if !s.started {
		s.WriteHeader(http.StatusOK)
	}
	s.originBytes += int64(len(p))
	if s.discard {
		return len(p), nil
	}
	if s.rewriter != nil {
		t0 := time.Now()
		n, err := s.rewriter.Write(p)
		s.rewriteNanos += int64(time.Since(t0))
		return n, err
	}
	return s.w.Write(p)
}

// Flush exposes downstream flushing so incremental origins (and the reverse
// proxy) keep their streaming behaviour through the middleware. Like Write,
// it commits headers through WriteHeader first so an early flush cannot
// publish the origin's Content-Length before the rewriter drops it.
func (s *responseStreamer) Flush() {
	if !s.started {
		s.WriteHeader(http.StatusOK)
	}
	if f, ok := s.w.(http.Flusher); ok {
		f.Flush()
	}
}

// finish completes the response once the origin handler returns: headers for
// empty responses, the tail of a streamed rewrite, and instrumentation
// accounting.
func (s *responseStreamer) finish() {
	if !s.started {
		s.WriteHeader(http.StatusOK)
	}
	if s.rewriter != nil {
		t0 := time.Now()
		err := s.rewriter.Close()
		s.rewriteNanos += int64(time.Since(t0))
		s.m.cfg.Engine.Telemetry().Rewrite.Observe(time.Duration(s.rewriteNanos))
		res := s.rewriter.Result()
		if err == nil && !res.Truncated {
			// Skip pages that blew the hold cap (forwarded largely verbatim)
			// and streams the client abandoned mid-write: both would skew
			// the per-page overhead accounting, matching the old path which
			// only recorded fully rewritten, fully delivered pages.
			s.m.cfg.Engine.RecordInstrumented(int(s.originBytes), res.AddedBytes)
		}
		s.rewriter = nil
	}
}
