package proxy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"botdetect/internal/chaos"
	"botdetect/internal/clock"
	"botdetect/internal/core"
)

// TestBreakerLifecycle walks the full state machine on a virtual clock:
// consecutive failures trip it, the cooldown short-circuits, exactly one
// probe is admitted half-open, and a successful probe closes it again.
func TestBreakerLifecycle(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	br := NewBreaker(3, 10*time.Second, vc)

	if br.State() != BreakerClosed || !br.Allow() {
		t.Fatal("new breaker not closed/allowing")
	}
	br.Failure()
	br.Failure()
	if br.State() != BreakerClosed || !br.Allow() {
		t.Fatal("breaker opened below the threshold")
	}
	br.Failure() // third consecutive failure: trip
	if br.State() != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", br.State())
	}
	if br.Allow() {
		t.Fatal("open breaker admitted a request before the cooldown")
	}
	// A straggler failure while open must not extend the cooldown.
	br.Failure()
	vc.Advance(9 * time.Second)
	if br.Allow() {
		t.Fatal("breaker admitted a probe before the cooldown elapsed")
	}
	vc.Advance(2 * time.Second)
	if !br.Allow() {
		t.Fatal("breaker refused the half-open probe after the cooldown")
	}
	if br.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %v, want half-open", br.State())
	}
	if br.Allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	br.Success()
	if br.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", br.State())
	}
	st := br.Stats()
	if st.Opens != 1 || st.Probes != 1 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v, want opens/probes/recoveries = 1", st)
	}
	if st.ShortCircuits < 3 {
		t.Fatalf("ShortCircuits = %d, want >= 3", st.ShortCircuits)
	}
}

// TestBreakerSuccessResetsStreak: the trip condition is *consecutive*
// failures — an intervening success restarts the count.
func TestBreakerSuccessResetsStreak(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	br := NewBreaker(3, time.Second, vc)
	br.Failure()
	br.Failure()
	br.Success()
	br.Failure()
	br.Failure()
	if br.State() != BreakerClosed {
		t.Fatal("breaker opened on a non-consecutive failure streak")
	}
	br.Failure()
	if br.State() != BreakerOpen {
		t.Fatal("breaker did not open at three consecutive failures")
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe slams the breaker shut
// for a fresh cooldown; the next probe can still recover it.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	br := NewBreaker(2, 5*time.Second, vc)
	br.Failure()
	br.Failure()
	vc.Advance(5 * time.Second)
	if !br.Allow() {
		t.Fatal("probe refused")
	}
	br.Failure() // probe failed: re-open
	if br.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", br.State())
	}
	if br.Allow() {
		t.Fatal("re-opened breaker admitted a request immediately")
	}
	vc.Advance(5 * time.Second)
	if !br.Allow() {
		t.Fatal("second probe refused")
	}
	br.Success()
	if br.State() != BreakerClosed {
		t.Fatal("breaker did not recover on the second probe")
	}
	if st := br.Stats(); st.Opens != 2 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v, want 2 opens / 1 recovery", st)
	}
}

// TestRetryAfterFloor: the advertised retry delay is the remaining
// cooldown, never less than a second.
func TestRetryAfterFloor(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	br := NewBreaker(1, 10*time.Second, vc)
	br.Failure()
	if got := br.RetryAfter(); got != 10*time.Second {
		t.Fatalf("RetryAfter just after trip = %v, want 10s", got)
	}
	vc.Advance(9500 * time.Millisecond)
	if got := br.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter near cooldown end = %v, want the 1s floor", got)
	}
}

// newTestTripper builds a tripper and its breaker on one fresh virtual clock
// (tr.clk), so a retry's backoff costs the test no wall time.
func newTestTripper(retries int, failures int) *upstreamTripper {
	cfg := UpstreamConfig{Retries: retries, RetryBackoff: time.Millisecond,
		BreakerFailures: failures, BreakerCooldown: time.Second}.withDefaults()
	vc := clock.NewVirtual(time.Time{})
	return &upstreamTripper{
		base: http.DefaultTransport,
		br:   NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, vc),
		cfg:  cfg,
		clk:  vc,
	}
}

// TestTripperRetriesIdempotentOnly: a GET hit by a transient 5xx is retried
// and succeeds; a POST never is — replaying a request the origin may have
// half-applied is worse than failing it.
func TestTripperRetriesIdempotentOnly(t *testing.T) {
	var gets, posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			posts.Add(1)
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		if gets.Add(1) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "recovered")
	}))
	defer srv.Close()

	tr := newTestTripper(2, 10)
	c := &http.Client{Transport: tr}

	resp, err := c.Get(srv.URL + "/")
	if err != nil {
		t.Fatalf("GET through tripper: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "recovered" {
		t.Fatalf("GET = %d %q, want 200 recovered", resp.StatusCode, body)
	}
	if gets.Load() != 2 {
		t.Fatalf("origin saw %d GETs, want 2 (one retry)", gets.Load())
	}
	if tr.retries.Load() != 1 {
		t.Fatalf("tripper retries = %d, want 1", tr.retries.Load())
	}

	resp, err = c.Post(srv.URL+"/", "text/plain", strings.NewReader("payload"))
	if err != nil {
		t.Fatalf("POST through tripper: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("POST = %d, want the origin's own 500 forwarded", resp.StatusCode)
	}
	if posts.Load() != 1 {
		t.Fatalf("origin saw %d POSTs, want exactly 1 (no replay)", posts.Load())
	}
}

// TestTripperExhaustedRetriesWrapsError: when every attempt fails at the
// transport level the caller gets one error carrying the attempt count and
// the underlying cause, and the failure feeds the breaker.
func TestTripperExhaustedRetriesWrapsError(t *testing.T) {
	// A listener we immediately close: connection refused, deterministically.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	tr := newTestTripper(1, 2)
	c := &http.Client{Transport: tr}
	_, err = c.Get(dead + "/")
	if err == nil {
		t.Fatal("GET against a dead origin succeeded")
	}
	if !strings.Contains(err.Error(), "after 2 attempt(s)") {
		t.Fatalf("error lacks attempt context: %v", err)
	}
	if tr.failures.Load() != 1 {
		t.Fatalf("failures = %d, want 1", tr.failures.Load())
	}
	// One more exhausted exchange reaches the 2-failure threshold.
	if _, err := c.Get(dead + "/"); err == nil {
		t.Fatal("second GET succeeded")
	}
	if tr.br.State() != BreakerOpen {
		t.Fatalf("breaker after repeated exhaustion = %v, want open", tr.br.State())
	}
	// Short-circuited request: the client never touches the network.
	_, err = c.Get(dead + "/")
	var open *breakerOpenError
	if err == nil || !errors.As(err, &open) {
		t.Fatalf("short-circuit error = %v, want breakerOpenError", err)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestTripperRequestEndsBeforeRetry: a client that leaves between a 5xx and
// its retry gets an error — the drained response is gone, and returning
// neither a response nor an error breaks the RoundTripper contract — and no
// retry is made or counted.
func TestTripperRequestEndsBeforeRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := newTestTripper(1, 10)
	tr.base = roundTripFunc(func(*http.Request) (*http.Response, error) {
		cancel()
		return &http.Response{StatusCode: http.StatusServiceUnavailable, Body: io.NopCloser(strings.NewReader("dark"))}, nil
	})
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://origin.invalid/", nil)
	resp, err := tr.RoundTrip(req)
	if resp != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("RoundTrip = %v, %v; want no response and context.Canceled", resp, err)
	}
	if tr.retries.Load() != 0 {
		t.Fatalf("retries = %d for a retry that was never made", tr.retries.Load())
	}
}

type resetReader struct{}

func (resetReader) Read([]byte) (int, error) {
	return 0, errors.New("read tcp: connection reset by peer")
}

// TestTrackedBodyMidStreamContext: an origin dying after headers must reach
// the log with byte-count context, count once, and feed the breaker.
func TestTrackedBodyMidStreamContext(t *testing.T) {
	tr := newTestTripper(0, 10)
	tb := &trackedBody{
		rc: io.NopCloser(io.MultiReader(strings.NewReader("abc"), resetReader{})),
		t:  tr,
	}
	_, err := io.ReadAll(tb)
	if err == nil {
		t.Fatal("mid-stream death not surfaced")
	}
	if !strings.Contains(err.Error(), "upstream died mid-stream after 3 body bytes") {
		t.Fatalf("error lacks mid-stream context: %v", err)
	}
	if !strings.Contains(err.Error(), "connection reset") {
		t.Fatalf("error dropped the underlying cause: %v", err)
	}
	if tr.midstream.Load() != 1 {
		t.Fatalf("midstream counter = %d, want 1", tr.midstream.Load())
	}
	// A second read on the same corpse must not double-count.
	if _, err := tb.Read(make([]byte, 8)); err == nil {
		t.Fatal("second read after death succeeded")
	}
	if tr.midstream.Load() != 1 {
		t.Fatalf("midstream counter after re-read = %d, want still 1", tr.midstream.Load())
	}
}

// TestUpstreamErrorHandlerMapping: breaker-open becomes a branded 503 with
// Retry-After, a deadline becomes 504, anything else a 502 that keeps the
// error text.
func TestUpstreamErrorHandlerMapping(t *testing.T) {
	m := &Middleware{}
	req := httptest.NewRequest(http.MethodGet, "/x", nil)

	rec := httptest.NewRecorder()
	m.upstreamErrorHandler(rec, req, &breakerOpenError{retryAfter: 4500 * time.Millisecond})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("breaker-open status = %d, want 503", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After = %q, want ceil(4.5s) = 5", got)
	}
	if !strings.Contains(rec.Body.String(), "temporarily unavailable") {
		t.Fatalf("branded body missing: %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	m.upstreamErrorHandler(rec, req, fmt.Errorf("awaiting headers: %w", context.DeadlineExceeded))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want 504", rec.Code)
	}

	rec = httptest.NewRecorder()
	m.upstreamErrorHandler(rec, req, errors.New("dial tcp 10.0.0.9:80: connection refused"))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("generic status = %d, want 502", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "connection refused") {
		t.Fatalf("502 body dropped the cause: %q", rec.Body.String())
	}
}

// TestClientHangUpIsNotAnOriginFailure: an exchange that ends because the
// client disconnected says nothing about the origin. A threshold's worth of
// hang-ups against a healthy, slow origin leaves the breaker closed with its
// streak and the failure counter unmoved — or any visitor could black the
// site out for a cooldown — while a slow origin (deadline) and origin 503s
// still count, and an abandoned half-open probe gives its slot back by
// re-opening.
func TestClientHangUpIsNotAnOriginFailure(t *testing.T) {
	const threshold = 3
	var dark atomic.Bool
	entered := make(chan struct{})
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dark.Load() {
			http.Error(w, "dark", http.StatusServiceUnavailable)
			return
		}
		entered <- struct{}{}
		<-r.Context().Done() // healthy but slow: it answers nobody before they leave
	}))
	defer origin.Close()

	tr := newTestTripper(-1, threshold)
	// get runs one exchange on ctx; hangUp makes the client leave once the
	// origin has the request.
	get := func(ctx context.Context, hangUp context.CancelFunc) (int, error) {
		if hangUp != nil {
			go func() { <-entered; hangUp() }()
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, origin.URL+"/", nil)
		resp, err := tr.RoundTrip(req)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	hungUpGet := func() {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := get(ctx, cancel); !errors.Is(err, context.Canceled) {
			t.Fatalf("hung-up GET = %v, want context.Canceled", err)
		}
	}

	for i := 0; i < threshold; i++ {
		hungUpGet()
	}
	if st := tr.br.State(); st != BreakerClosed || tr.br.cur.Load().fails != 0 || tr.failures.Load() != 0 {
		t.Fatalf("after %d client hang-ups: breaker %v, streak %d, failures %d; want closed, 0, 0",
			threshold, st, tr.br.cur.Load().fails, tr.failures.Load())
	}

	// The origin being too slow for the request's deadline is the origin's fault.
	late, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := get(late, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GET past its deadline = %v, want context.DeadlineExceeded", err)
	}
	if got := tr.br.cur.Load().fails; got != 1 {
		t.Fatalf("failure streak after a deadline expiry = %d, want 1", got)
	}

	// So are its 503s: the rest of the threshold opens the breaker.
	dark.Store(true)
	for i := 1; i < threshold; i++ {
		if st := tr.br.State(); st != BreakerClosed {
			t.Fatalf("breaker %v after %d origin failures, threshold %d", st, i, threshold)
		}
		if code, err := get(context.Background(), nil); err != nil || code != http.StatusServiceUnavailable {
			t.Fatalf("dark-origin GET = %d, %v", code, err)
		}
	}
	if st := tr.br.State(); st != BreakerOpen {
		t.Fatalf("breaker %v after %d origin failures, want open", st, threshold)
	}

	// A probe whose client hangs up must not leave the breaker half-open forever.
	dark.Store(false)
	tr.clk.(*clock.Virtual).Advance(tr.cfg.BreakerCooldown)
	hungUpGet()
	if st, stats := tr.br.State(), tr.br.Stats(); st != BreakerOpen || stats.Probes != 1 || stats.Opens != 2 {
		t.Fatalf("after an abandoned probe: breaker %v, %+v; want re-opened", st, stats)
	}
}

func chaosOriginPage(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<html><head><title>t</title></head><body><h1>ok %s</h1>"+
		"<a href=\"/other.html\">other</a></body></html>", r.URL.Path)
}

// TestReverseProxyBreakerEndToEnd drives the full middleware against a
// chaos origin: origin 5xx responses are forwarded while the breaker
// counts, the trip short-circuits to the branded 503 with Retry-After, and
// after the origin heals the half-open probe closes the breaker again.
// Detection keeps running throughout — the dark-origin 503s still come from
// the instrumenting middleware, not a dead socket.
func TestReverseProxyBreakerEndToEnd(t *testing.T) {
	origin := chaos.NewOrigin(http.HandlerFunc(chaosOriginPage), nil)
	backend := httptest.NewServer(origin)
	defer backend.Close()
	u, _ := url.Parse(backend.URL)

	vc := clock.NewVirtual(time.Time{})
	det := core.New(core.Config{Seed: 41, Clock: vc})
	mw := NewReverseProxy(u, Config{Engine: det, TrustForwardedFor: true, Upstream: UpstreamConfig{
		Retries:         -1, // no retries: each request is one breaker sample
		BreakerFailures: 2,
		BreakerCooldown: 10 * time.Second,
		RequestTimeout:  5 * time.Second,
	}})
	front := httptest.NewServer(mw)
	defer front.Close()

	get := func() (int, string) {
		resp, err := front.Client().Get(front.URL + "/page.html")
		if err != nil {
			t.Fatalf("GET through proxy: %v", err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "/__bd/") {
		t.Fatalf("healthy GET = %d (instrumented=%v), want instrumented 200",
			code, strings.Contains(body, "/__bd/"))
	}

	origin.FailWith(http.StatusServiceUnavailable, -1)
	for i := 0; i < 2; i++ {
		if code, body := get(); code != http.StatusServiceUnavailable || strings.Contains(body, "botdetect:") {
			t.Fatalf("dark-origin GET %d = %d (branded=%v), want the origin's own 503 forwarded",
				i, code, strings.Contains(body, "botdetect:"))
		}
	}
	if mw.Breaker().State() != BreakerOpen {
		t.Fatalf("breaker = %v after %d origin failures, want open", mw.Breaker().State(), 2)
	}
	code, body := get()
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "temporarily unavailable") {
		t.Fatalf("short-circuited GET = %d %q, want the branded 503", code, body)
	}
	served := origin.Served()

	origin.Heal()
	if code, _ := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("GET inside the cooldown = %d, want it short-circuited however healthy the origin", code)
	}
	vc.Advance(10 * time.Second) // the breaker reads the engine's clock
	if code, body := get(); code != http.StatusOK || !strings.Contains(body, "/__bd/") {
		t.Fatalf("post-heal GET = %d, want instrumented 200 via the half-open probe", code)
	}
	if mw.Breaker().State() != BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", mw.Breaker().State())
	}
	st := mw.Breaker().Stats()
	if st.Opens != 1 || st.Recoveries != 1 || st.ShortCircuits == 0 {
		t.Fatalf("breaker stats = %+v", st)
	}
	if origin.Served() <= served {
		t.Fatal("recovery probe never reached the origin")
	}
}

// TestChaosHammerConcurrentFaults is the -race stress: a flash crowd of new
// clients floods the proxy while the origin flaps dark/healthy, injects
// mid-stream connection resets and latency, scripts rotate, and an operator
// drill forces and clears degraded mode — all concurrently. It is bounded by
// work, not by wall time: each worker issues a fixed number of requests and
// moves the shared virtual clock a step per request, and the faults flip on
// request ordinals. The assertions are deliberately coarse (the point is the
// race detector and "nothing deadlocks or panics"); the final section proves
// the system came back: breaker closed, instrumented 200s flowing.
func TestChaosHammerConcurrentFaults(t *testing.T) {
	const (
		workers    = 4
		perWorker  = 150
		cooldown   = 5 * time.Millisecond
		faultCycle = 48 // request ordinals per dark / reset / slow round
	)
	vc := clock.NewVirtual(time.Time{})
	origin := chaos.NewOrigin(http.HandlerFunc(chaosOriginPage), vc)
	backend := httptest.NewServer(origin)
	defer backend.Close()
	u, _ := url.Parse(backend.URL)

	det := core.New(core.Config{Seed: 43, Clock: vc, MaxSessions: 128, ObfuscateJS: true})
	mw := NewReverseProxy(u, Config{Engine: det, TrustForwardedFor: true, Upstream: UpstreamConfig{
		Retries:         1,
		RetryBackoff:    time.Millisecond,
		BreakerFailures: 3,
		BreakerCooldown: cooldown,
		RequestTimeout:  5 * time.Second,
	}})
	front := httptest.NewUnstartedServer(mw)
	front.Config.ConnContext = ConnContext
	front.Start()
	defer front.Close()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	defer client.CloseIdleConnections()
	get := func(ip string) (int, string) {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/page.html", nil)
		req.Header.Set("X-Forwarded-For", ip)
		req.Header.Set("User-Agent", "hammer")
		resp, err := client.Do(req)
		if err != nil {
			return 0, "" // resets and dark phases are expected
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Flash crowd: every request a brand-new client, far past MaxSessions.
	// Whoever draws a fault's ordinal flips it: dark bursts, mid-stream
	// resets and latency spikes, each healed a third of a cycle later.
	var ordinal, working atomic.Int64
	var wg sync.WaitGroup
	working.Store(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer working.Add(-1)
			for i := 0; i < perWorker; i++ {
				switch n := ordinal.Add(1); n % faultCycle {
				case 0:
					origin.FailWith(http.StatusServiceUnavailable, 8)
				case 16:
					origin.ResetNext(4)
				case 32:
					origin.SetLatency(2 * time.Millisecond)
				case 8, 24, 40:
					origin.Heal()
				}
				vc.Advance(time.Millisecond)
				get(fmt.Sprintf("10.%d.0.%d", w, i+1))
			}
		}(w)
	}
	// Script rotation and the operator drill, racing the serve path for as
	// long as the workers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; working.Load() > 0; i++ {
			det.RotateScripts()
			if i%2 == 0 {
				det.ForceLoadState(core.LoadSaturated)
			} else {
				det.ClearForcedLoadState()
			}
			det.RecomputeLoadState()
			runtime.Gosched()
		}
	}()
	wg.Wait()

	// Recovery: heal the origin, clear the drill, and drain the flood's
	// sessions — the table is legitimately full (that is the ladder working),
	// so without the drain a fresh client would correctly keep getting
	// pass-through. Once the cooldown has passed, one request is the probe if
	// the hammer left the breaker open, and the next must be an instrumented
	// 200 through a closed breaker.
	origin.Heal()
	det.ClearForcedLoadState()
	det.FlushSessions()
	det.RecomputeLoadState()
	vc.Advance(cooldown)
	get("10.9.9.1")
	if st := mw.Breaker().State(); st != BreakerClosed {
		t.Fatalf("breaker %v after the cooldown and one request against a healed origin, want closed", st)
	}
	if code, body := get("10.9.9.2"); code != http.StatusOK || !strings.Contains(body, "/__bd/") {
		t.Fatalf("GET after recovery = %d (instrumented=%v), want an instrumented 200", code, strings.Contains(body, "/__bd/"))
	}
	if st := mw.Breaker().Stats(); st.Opens == 0 {
		t.Errorf("breaker never tripped during the hammer: %+v", st)
	}
}

// TestProxiedBodyReusesCopyBuffer holds what a proxied response the proxy
// does not rewrite allocates: a 200 KB image through the reverse proxy must
// allocate at most half the 32 KiB copy buffer a request, because the
// buffer comes from a pool. It measured 9.9 KB, the transport's and the
// request's own allocations; without the pool httputil.ReverseProxy made a
// buffer for every response, and it measured 42.7 KB.
func TestProxiedBodyReusesCopyBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool entries at random")
	}
	body := strings.Repeat("x", 200_000)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "image/png")
		io.WriteString(w, body)
	}))
	defer backend.Close()
	u, _ := url.Parse(backend.URL)
	mw := NewReverseProxy(u, Config{Engine: core.New(core.Config{Seed: 45, Shards: 1})})
	req := httptest.NewRequest(http.MethodGet, "/img/big.png", nil)
	req.RemoteAddr = "10.45.0.1:2000"
	req.Header.Set("User-Agent", "Firefox/1.5")
	w := &nopResponseWriter{h: make(http.Header)}
	serve := func() {
		clear(w.h)
		mw.ServeHTTP(w, req)
	}
	for range 20 {
		serve()
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		serve()
	}
	runtime.ReadMemStats(&after)
	per := int64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("a proxied 200 KB image allocates %d B a request", per)
	if per > copyBufferBytes/2 {
		t.Fatalf("a proxied 200 KB image allocates %d B a request, over 16 KiB: the copy buffer is not reused", per)
	}
}
