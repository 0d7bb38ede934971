// Origin fault tolerance for the reverse-proxy deployment: a configurable
// upstream transport, bounded retries for idempotent requests, a per-request
// deadline, and a lock-free circuit breaker. The detector must keep running
// while the origin is dark — an outage is precisely when a flash crowd or an
// attack is most likely — so every failure mode short of a healthy origin
// still produces a fast, branded response and the detection machinery keeps
// observing, classifying and serving beacons throughout.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/telemetry"
)

// UpstreamConfig controls the reverse proxy's connection to the origin. The
// zero value gets production defaults from withDefaults; the previous
// behaviour — http.DefaultTransport with no dial bound, no response-header
// bound and no retry — meant a blackholed origin pinned every in-flight
// request until the kernel gave up.
type UpstreamConfig struct {
	// DialTimeout bounds establishing a TCP connection to the origin
	// (default 5s).
	DialTimeout time.Duration
	// ResponseHeaderTimeout bounds the wait for the origin's response headers
	// after the request is written (default 15s).
	ResponseHeaderTimeout time.Duration
	// RequestTimeout is the end-to-end deadline for one origin request,
	// including retries (default 60s; <0 disables).
	RequestTimeout time.Duration
	// Retries is the number of re-attempts after a failed idempotent (GET or
	// HEAD, bodyless) request; non-idempotent requests are never retried
	// (default 2; <0 disables).
	Retries int
	// RetryBackoff is the delay before the first retry, doubling per attempt
	// (default 50ms).
	RetryBackoff time.Duration
	// BreakerFailures opens the circuit breaker after this many consecutive
	// upstream failures (default 5).
	BreakerFailures int
	// BreakerCooldown is how long the breaker stays open before admitting a
	// half-open probe (default 10s).
	BreakerCooldown time.Duration
}

// The origin keep-alive pool: idle connections are closed after
// upstreamIdleConnTimeout, and at most upstreamIdleConnsPerHost are kept.
const (
	upstreamIdleConnTimeout  = 90 * time.Second
	upstreamIdleConnsPerHost = 32
)

func (c UpstreamConfig) withDefaults() UpstreamConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.ResponseHeaderTimeout <= 0 {
		c.ResponseHeaderTimeout = 15 * time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// BreakerState is the circuit breaker's coarse position.
type BreakerState int32

const (
	// BreakerClosed: requests flow to the origin.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests short-circuit to a branded 503 until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: exactly one probe request is in flight; everyone else
	// still short-circuits.
	BreakerHalfOpen
)

// String returns the state's metric/status name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// breakerSnap is one immutable breaker state; transitions publish a fresh
// snapshot with a CAS, so the per-request Allow check is a single atomic load
// with no lock to convoy on when the origin melts down and every request
// fails at once.
type breakerSnap struct {
	state    BreakerState
	fails    int
	openedAt time.Time
}

var breakerClosedSnap = &breakerSnap{state: BreakerClosed}

// Breaker is a lock-free consecutive-failure circuit breaker.
type Breaker struct {
	cur       atomic.Pointer[breakerSnap]
	threshold int
	cooldown  time.Duration
	clk       clock.Clock

	opens         atomic.Int64 // transitions into Open
	shortCircuits atomic.Int64 // requests refused while Open/HalfOpen
	probes        atomic.Int64 // half-open probes admitted
	recoveries    atomic.Int64 // successful probes closing the breaker
}

// NewBreaker creates a breaker that opens after threshold consecutive
// failures and admits a probe after cooldown. A nil clk uses the wall clock.
func NewBreaker(threshold int, cooldown time.Duration, clk clock.Clock) *Breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	if clk == nil {
		clk = clock.System
	}
	b := &Breaker{threshold: threshold, cooldown: cooldown, clk: clk}
	b.cur.Store(breakerClosedSnap)
	return b
}

// State returns the breaker's current position. Lock-free.
func (b *Breaker) State() BreakerState { return b.cur.Load().state }

// Allow reports whether a request may proceed to the origin. While open it
// admits exactly one winner as the half-open probe once the cooldown has
// elapsed; every other caller short-circuits.
func (b *Breaker) Allow() bool {
	snap := b.cur.Load()
	switch snap.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clk.Now().Sub(snap.openedAt) >= b.cooldown {
			probe := &breakerSnap{state: BreakerHalfOpen, fails: snap.fails, openedAt: snap.openedAt}
			if b.cur.CompareAndSwap(snap, probe) {
				b.probes.Add(1)
				return true
			}
		}
		b.shortCircuits.Add(1)
		return false
	default: // BreakerHalfOpen: a probe is already in flight.
		b.shortCircuits.Add(1)
		return false
	}
}

// Success records a healthy origin exchange: it clears the failure streak
// while closed and closes the breaker when it is the half-open probe's. A
// success reported while open is a straggler — a retry or an exchange
// admitted before the trip — and is dropped, as Failure drops them: the only
// way from Open to Closed is the cooldown and the probe.
func (b *Breaker) Success() {
	for {
		snap := b.cur.Load()
		if snap.state == BreakerOpen || (snap.state == BreakerClosed && snap.fails == 0) {
			return // a straggler, or the steady-state fast path: no store, no contention
		}
		if b.cur.CompareAndSwap(snap, breakerClosedSnap) {
			if snap.state == BreakerHalfOpen {
				b.recoveries.Add(1)
			}
			return
		}
	}
}

// Failure records a failed origin exchange: it advances the consecutive
// failure count while closed (opening at the threshold) and re-opens
// immediately on a failed half-open probe. Failures reported while already
// open (stragglers that were in flight when the breaker tripped) are
// dropped so they cannot extend the cooldown.
func (b *Breaker) Failure() { b.fail(true) }

// abandoned records an exchange that ended with no verdict on the origin: the
// client hung up. While closed that is neither a success nor a failure — or
// any visitor could open the breaker for everyone by disconnecting from a
// slow origin — but an abandoned half-open probe re-opens the breaker, so the
// probe slot is never leaked.
func (b *Breaker) abandoned() { b.fail(false) }

func (b *Breaker) fail(originFault bool) {
	for {
		snap := b.cur.Load()
		var next *breakerSnap
		switch {
		case snap.state == BreakerHalfOpen:
			next = &breakerSnap{state: BreakerOpen, openedAt: b.clk.Now()}
		case snap.state == BreakerClosed && originFault:
			if snap.fails+1 >= b.threshold {
				next = &breakerSnap{state: BreakerOpen, openedAt: b.clk.Now()}
			} else {
				next = &breakerSnap{state: BreakerClosed, fails: snap.fails + 1}
			}
		default: // already open, or nothing to hold against the origin
			return
		}
		if b.cur.CompareAndSwap(snap, next) {
			if next.state == BreakerOpen {
				b.opens.Add(1)
			}
			return
		}
	}
}

// BreakerStats are the breaker's cumulative transition counters.
type BreakerStats struct {
	Opens         int64 // transitions into Open
	Probes        int64 // half-open probes admitted
	Recoveries    int64 // successful probes closing the breaker
	ShortCircuits int64 // requests refused while Open/HalfOpen
}

// Stats returns a copy of the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	return BreakerStats{
		Opens:         b.opens.Load(),
		Probes:        b.probes.Load(),
		Recoveries:    b.recoveries.Load(),
		ShortCircuits: b.shortCircuits.Load(),
	}
}

// RetryAfter returns how long a short-circuited client should wait before
// retrying: the remaining cooldown, floored at one second so the header never
// advertises an instant retry into a dead origin.
func (b *Breaker) RetryAfter() time.Duration {
	snap := b.cur.Load()
	d := b.cooldown
	if snap.state == BreakerOpen {
		d = b.cooldown - b.clk.Now().Sub(snap.openedAt)
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// breakerOpenError is the sentinel the transport returns for a
// short-circuited request; the error handler maps it to a branded 503.
type breakerOpenError struct{ retryAfter time.Duration }

func (e *breakerOpenError) Error() string {
	return "origin circuit breaker open (retry in " + e.retryAfter.Truncate(time.Second).String() + ")"
}

// upstreamTripper wraps the origin transport with the breaker gate and
// bounded retry-with-backoff for idempotent requests.
type upstreamTripper struct {
	base http.RoundTripper
	br   *Breaker
	cfg  UpstreamConfig
	clk  clock.Clock // what the retry backoff waits on

	retries   atomic.Int64 // re-attempts after a failed idempotent exchange
	failures  atomic.Int64 // exchanges the origin failed on every attempt
	midstream atomic.Int64 // response bodies that died after headers
}

// RoundTrip implements http.RoundTripper.
func (t *upstreamTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.br.Allow() {
		return nil, &breakerOpenError{retryAfter: t.br.RetryAfter()}
	}
	// Only bodyless GET/HEAD requests are retried: re-sending a request with
	// a consumed body needs GetBody plumbing, and non-idempotent methods must
	// never be replayed into an origin that may have half-applied them.
	attempts := 1
	if (r.Method == http.MethodGet || r.Method == http.MethodHead) && r.Body == nil {
		attempts += t.cfg.Retries
	}
	backoff := t.cfg.RetryBackoff
	var resp *http.Response
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err = t.clk.Sleep(r.Context(), backoff); err != nil {
				break // the request ended during the backoff: no retry is made
			}
			t.retries.Add(1)
			backoff *= 2
		}
		resp, err = t.base.RoundTrip(r)
		if err == nil && resp.StatusCode < http.StatusInternalServerError {
			t.br.Success()
			resp.Body = &trackedBody{rc: resp.Body, t: t}
			return resp, nil
		}
		if err == nil && attempt < attempts-1 {
			// A 5xx we are about to retry: drain a little so the keep-alive
			// connection can be reused, then close.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			resp = nil
		}
	}
	// The request's context ends Canceled only when the client hangs up (a
	// slow origin ends it DeadlineExceeded): that says nothing about the
	// origin, whatever error the torn-down exchange came back with.
	if errors.Is(r.Context().Err(), context.Canceled) {
		t.br.abandoned()
	} else {
		t.failures.Add(1)
		t.br.Failure()
	}
	if err != nil {
		return nil, fmt.Errorf("upstream round trip failed after %d attempt(s): %w", attempts, err)
	}
	// Out of retries with a 5xx in hand: forward the origin's own error page
	// (it may carry a maintenance notice) rather than masking it.
	return resp, nil
}

// trackedBody wraps an origin response body so a mid-stream death — the
// upstream resetting the connection after the proxy has already committed a
// 200 — is counted, feeds the breaker, and reaches the log with context
// instead of surfacing as a bare read error. The truncation itself is made
// visible by the middleware's abort path: the client connection is torn down
// rather than closed with a clean terminal chunk.
type trackedBody struct {
	rc     io.ReadCloser
	t      *upstreamTripper
	read   int64
	failed bool
}

func (b *trackedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.read += int64(n)
	if err != nil && err != io.EOF && !b.failed {
		b.failed = true
		b.t.midstream.Add(1)
		b.t.br.Failure()
		return n, fmt.Errorf("upstream died mid-stream after %d body bytes: %w", b.read, err)
	}
	return n, err
}

func (b *trackedBody) Close() error { return b.rc.Close() }

// upstreamErrorHandler turns transport failures into deliberate responses:
// breaker short-circuits become a branded 503 with Retry-After, deadline
// expiries a 504, everything else a 502 carrying the error context the
// default handler used to drop. It runs before any body byte is written
// (mid-stream deaths take the abort path instead), so the status is honest.
func (m *Middleware) upstreamErrorHandler(w http.ResponseWriter, r *http.Request, err error) {
	h := w.Header()
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h["Cache-Control"] = noStoreHeader
	var open *breakerOpenError
	switch {
	case errors.As(err, &open):
		h.Set("Retry-After", strconv.Itoa(int((open.retryAfter+time.Second-1)/time.Second)))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "botdetect: the origin is temporarily unavailable; please retry shortly.\n")
	case errors.Is(err, context.DeadlineExceeded):
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprintf(w, "botdetect: the origin did not respond in time.\n")
	default:
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprintf(w, "botdetect: error reaching the origin: %v\n", err)
	}
}

// deadlineHandler applies the per-request origin deadline.
type deadlineHandler struct {
	h http.Handler
	d time.Duration
}

func (dh deadlineHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), dh.d)
	defer cancel()
	dh.h.ServeHTTP(w, r.WithContext(ctx))
}

// NewReverseProxy builds a middleware that forwards to the given upstream
// origin URL, protecting an existing site without modifying it (the
// "protect an origin you do not control" deployment). Unlike a bare
// httputil.NewSingleHostReverseProxy it bounds every stage of the origin
// exchange (cfg.Upstream), retries failed idempotent requests, and trips a
// circuit breaker when the origin is down so a dead backend costs one atomic
// load per request instead of a dial timeout — detection keeps running
// against the branded 503s.
func NewReverseProxy(upstream *url.URL, cfg Config) *Middleware {
	m := New(nil, cfg) // the origin handler is the reverse proxy built below
	ucfg := cfg.Upstream.withDefaults()
	m.breaker = NewBreaker(ucfg.BreakerFailures, ucfg.BreakerCooldown, m.clk)
	transport := &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   ucfg.DialTimeout,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ResponseHeaderTimeout: ucfg.ResponseHeaderTimeout,
		IdleConnTimeout:       upstreamIdleConnTimeout,
		MaxIdleConnsPerHost:   upstreamIdleConnsPerHost,
	}
	m.upstream = &upstreamTripper{base: transport, br: m.breaker, cfg: ucfg, clk: m.clk}
	rp := httputil.NewSingleHostReverseProxy(upstream)
	rp.Transport = m.upstream
	rp.ErrorHandler = m.upstreamErrorHandler
	rp.BufferPool = copyBuffers{}
	m.origin = rp
	if ucfg.RequestTimeout > 0 {
		m.origin = deadlineHandler{h: rp, d: ucfg.RequestTimeout}
	}
	m.registerUpstreamTelemetry()
	return m
}

// copyBufferBytes is the size of the buffer httputil.ReverseProxy copies a
// response body through, the size it allocates itself without a pool.
const copyBufferBytes = 32 << 10

// copyBufferPool holds the reverse proxy's idle copy buffers.
var copyBufferPool sync.Pool

// copyBuffers lends httputil.ReverseProxy its copy buffers from
// copyBufferPool: without a BufferPool it allocates one for every response
// it streams, most of what a large proxied body costs the heap. The pool
// keeps the array pointer, so a Put allocates nothing.
type copyBuffers struct{}

func (copyBuffers) Get() []byte {
	if buf, ok := copyBufferPool.Get().(*[copyBufferBytes]byte); ok {
		return buf[:]
	}
	return make([]byte, copyBufferBytes)
}

func (copyBuffers) Put(buf []byte) {
	if cap(buf) >= copyBufferBytes {
		copyBufferPool.Put((*[copyBufferBytes]byte)(buf[:copyBufferBytes]))
	}
}

// Breaker returns the reverse proxy's circuit breaker (nil for middleware
// built around an in-process origin handler).
func (m *Middleware) Breaker() *Breaker { return m.breaker }

// registerUpstreamTelemetry adds the breaker and transport collectors to the
// engine's registry, node-labelled like every other engine family.
func (m *Middleware) registerUpstreamTelemetry() {
	reg := m.cfg.Engine.Telemetry().Registry()
	nl := ""
	if n := m.cfg.Engine.Config().TelemetryNode; n != "" {
		nl = telemetry.Label("node", n)
	}
	counter := func(name, labels, help string, v func() int64) {
		reg.CounterFunc(name, telemetry.Join(labels, nl), help, func() float64 { return float64(v()) })
	}
	const events = "botdetect_upstream_events_total"
	eventsHelp := "Origin fault-tolerance events: breaker opens, half-open probes, " +
		"recoveries, short-circuited requests, retries, exhausted exchanges, and " +
		"responses that died mid-stream."
	counter(events, telemetry.Label("event", "breaker_open"), eventsHelp, m.breaker.opens.Load)
	counter(events, telemetry.Label("event", "probe"), eventsHelp, m.breaker.probes.Load)
	counter(events, telemetry.Label("event", "recovery"), eventsHelp, m.breaker.recoveries.Load)
	counter(events, telemetry.Label("event", "short_circuit"), eventsHelp, m.breaker.shortCircuits.Load)
	counter(events, telemetry.Label("event", "retry"), eventsHelp, m.upstream.retries.Load)
	counter(events, telemetry.Label("event", "failure"), eventsHelp, m.upstream.failures.Load)
	counter(events, telemetry.Label("event", "midstream_abort"), eventsHelp, m.upstream.midstream.Load)
	reg.GaugeFunc("botdetect_upstream_breaker_state",
		"Origin circuit breaker state: 0 closed, 1 open, 2 half-open.",
		func(emit func(labels string, v float64)) { emit(nl, float64(m.breaker.State())) })
}
