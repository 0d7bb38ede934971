package proxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"botdetect/internal/captcha"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/htmlmod"
	"botdetect/internal/policy"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

func newTestStack(t *testing.T, pol *policy.Engine, cap *captcha.Service) (*Middleware, *core.Engine, *webmodel.Site) {
	t.Helper()
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 3, NumPages: 20})
	det := core.New(core.Config{Seed: 9, ObfuscateJS: false})
	mw := New(site.Handler(), Config{Engine: det, Policy: pol, Captcha: cap, TrustForwardedFor: true})
	return mw, det, site
}

func doReq(t *testing.T, mw http.Handler, method, target, ip, ua string, form url.Values) *httptest.ResponseRecorder {
	t.Helper()
	var body io.Reader
	if form != nil {
		body = strings.NewReader(form.Encode())
	}
	req := httptest.NewRequest(method, target, body)
	req.RemoteAddr = ip + ":54321"
	req.Header.Set("User-Agent", ua)
	if form != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	rec := httptest.NewRecorder()
	mw.ServeHTTP(rec, req)
	return rec
}

func TestHTMLRewrittenOnTheWayOut(t *testing.T) {
	mw, det, _ := newTestStack(t, nil, nil)
	rec := doReq(t, mw, http.MethodGet, "/", "10.0.0.1", "Firefox/1.5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "/__bd/") {
		t.Fatal("instrumentation not injected into HTML response")
	}
	if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "no-store") {
		t.Fatalf("Cache-Control = %q", cc)
	}
	sum := htmlmod.Extract(rec.Body.Bytes())
	if !sum.BodyMouseHandler || len(sum.HiddenLinks) != 1 {
		t.Fatal("rewritten page structure incomplete")
	}
	if det.Stats().PagesInstrumented != 1 {
		t.Fatalf("PagesInstrumented = %d", det.Stats().PagesInstrumented)
	}
	// The session observed exactly one request (the page itself).
	snap, ok := det.Session(session.Key{IP: "10.0.0.1", UserAgent: "Firefox/1.5"})
	if !ok || snap.Counts.Total != 1 {
		t.Fatalf("session = %+v, %v", snap, ok)
	}
}

func TestNonHTMLPassThrough(t *testing.T) {
	mw, _, site := newTestStack(t, nil, nil)
	cssPath := site.Pages()[1].CSS
	rec := doReq(t, mw, http.MethodGet, cssPath, "10.0.0.2", "Firefox/1.5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "/__bd/") {
		t.Fatal("non-HTML response was rewritten")
	}
	if got := rec.Header().Get("Content-Type"); got != "text/css" {
		t.Fatalf("content type = %q", got)
	}
}

func TestBeaconRoundTripThroughMiddleware(t *testing.T) {
	mw, det, _ := newTestStack(t, nil, nil)
	ip, ua := "10.0.0.3", "Firefox/1.5"
	rec := doReq(t, mw, http.MethodGet, "/", ip, ua, nil)
	sum := htmlmod.Extract(rec.Body.Bytes())

	// Fetch the injected stylesheet and script like a browser would.
	var cssPath, scriptPath string
	for _, s := range sum.Stylesheets {
		if strings.Contains(s, "/__bd/") {
			cssPath = s
		}
	}
	for _, s := range sum.Scripts {
		if strings.Contains(s, "/__bd/") {
			scriptPath = s
		}
	}
	if cssPath == "" || scriptPath == "" {
		t.Fatal("instrumentation paths not found in page")
	}
	if rec := doReq(t, mw, http.MethodGet, cssPath, ip, ua, nil); rec.Code != http.StatusOK {
		t.Fatalf("css beacon status = %d", rec.Code)
	}
	scriptRec := doReq(t, mw, http.MethodGet, scriptPath, ip, ua, nil)
	if scriptRec.Code != http.StatusOK || !strings.Contains(scriptRec.Body.String(), "function __bd_f()") {
		t.Fatal("script beacon not served")
	}
	// Extract the real beacon key from the unobfuscated script and fire it.
	script := scriptRec.Body.String()
	idx := strings.Index(script, "/__bd/")
	end := strings.Index(script[idx:], ".jpg")
	beacon := script[idx : idx+end+len(".jpg")]
	if rec := doReq(t, mw, http.MethodGet, beacon, ip, ua, nil); rec.Code != http.StatusOK {
		t.Fatalf("mouse beacon status = %d", rec.Code)
	}

	v := det.Classify(session.Key{IP: ip, UserAgent: ua})
	if v.Class != core.ClassHuman || v.Confidence != core.Definite {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestPolicyBlocksAbusiveRobot(t *testing.T) {
	pol := policy.NewEngine(policy.Config{})
	mw, det, _ := newTestStack(t, pol, nil)
	ip, ua := "10.0.0.4", "Firefox/1.5" // forged agent; behaviour gives it away
	key := session.Key{IP: ip, UserAgent: ua}

	// A CGI-hammering robot that never fetches instrumentation.
	blocked := false
	for i := 0; i < 60 && !blocked; i++ {
		rec := doReq(t, mw, http.MethodGet, "/cgi-bin/app0.cgi?run="+strings.Repeat("x", i%5), ip, ua, nil)
		if rec.Code == http.StatusForbidden {
			blocked = true
		}
	}
	if !blocked {
		t.Fatalf("abusive robot was never blocked; verdict=%+v stats=%+v", det.Classify(key), pol.Stats())
	}
	if !pol.IsBlocked(key) {
		t.Fatal("policy engine does not list the session as blocked")
	}
}

func TestCaptchaEndpoints(t *testing.T) {
	cap := captcha.NewService(captcha.Config{Seed: 5})
	mw, det, _ := newTestStack(t, nil, cap)
	ip, ua := "10.0.0.5", "NoJS-Browser"

	rec := doReq(t, mw, http.MethodGet, "/__bd/captcha/new", ip, ua, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("captcha new status = %d", rec.Code)
	}
	var id string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "id=") {
			id = strings.TrimPrefix(line, "id=")
		}
	}
	if id == "" {
		t.Fatalf("no challenge id in response %q", rec.Body.String())
	}
	answer, ok := cap.Answer(id)
	if !ok {
		t.Fatal("challenge not stored")
	}
	form := url.Values{"id": {id}, "answer": {answer}}
	rec = doReq(t, mw, http.MethodPost, "/__bd/captcha/verify", ip, ua, form)
	if rec.Code != http.StatusOK {
		t.Fatalf("captcha verify status = %d: %s", rec.Code, rec.Body.String())
	}
	v := det.Classify(session.Key{IP: ip, UserAgent: ua})
	if v.Class != core.ClassHuman {
		t.Fatalf("verdict after captcha = %+v", v)
	}

	// Wrong answer is rejected.
	rec = doReq(t, mw, http.MethodGet, "/__bd/captcha/new", ip, ua, nil)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "id=") {
			id = strings.TrimPrefix(line, "id=")
		}
	}
	form = url.Values{"id": {id}, "answer": {"wrong"}}
	if rec := doReq(t, mw, http.MethodPost, "/__bd/captcha/verify", ip, ua, form); rec.Code != http.StatusForbidden {
		t.Fatalf("wrong answer status = %d", rec.Code)
	}
	// Unknown captcha path 404s.
	if rec := doReq(t, mw, http.MethodGet, "/__bd/captcha/bogus", ip, ua, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("bogus captcha path status = %d", rec.Code)
	}
}

func TestXForwardedForTrusted(t *testing.T) {
	mw, det, _ := newTestStack(t, nil, nil)
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.RemoteAddr = "10.0.0.2:9999"
	req.Header.Set("User-Agent", "Firefox/1.5")
	req.Header.Set("X-Forwarded-For", "198.51.100.4, 203.0.113.7")
	rec := httptest.NewRecorder()
	mw.ServeHTTP(rec, req)
	if _, ok := det.Session(session.Key{IP: "203.0.113.7", UserAgent: "Firefox/1.5"}); !ok {
		t.Fatal("the rightmost X-Forwarded-For entry from a private peer does not name the client")
	}
	if det.SessionCount() != 1 {
		t.Fatalf("%d sessions, want only the rightmost entry's", det.SessionCount())
	}
}

// TestForwardedForFromPublicPeerIgnored: a robot blocked from a public
// address stays blocked whatever X-Forwarded-For it sends, and a header from
// a trusted peer counts only when its rightmost entry is an IP address.
func TestForwardedForFromPublicPeerIgnored(t *testing.T) {
	pol := policy.NewEngine(policy.Config{})
	mw, det, _ := newTestStack(t, pol, nil)
	const ua = "Firefox/1.5"
	get := func(peer string, fwd ...string) int {
		req := httptest.NewRequest(http.MethodGet, "/cgi-bin/app0.cgi?run=x", nil)
		req.RemoteAddr = peer + ":40000"
		req.Header.Set("User-Agent", ua)
		for _, f := range fwd {
			req.Header.Add("X-Forwarded-For", f)
		}
		rec := httptest.NewRecorder()
		mw.ServeHTTP(rec, req)
		return rec.Code
	}
	const robot = "198.51.100.9"
	for i := 0; i < 60 && !pol.IsBlocked(session.Key{IP: robot, UserAgent: ua}); i++ {
		get(robot)
	}
	if !pol.IsBlocked(session.Key{IP: robot, UserAgent: ua}) {
		t.Fatal("the robot was never blocked")
	}
	sessions := det.SessionCount()
	for _, fwd := range [][]string{{"203.0.113.77"}, {"10.0.0.8"}, {"127.0.0.1"}, {"203.0.113.77, 203.0.113.78"}, {"a", "203.0.113.79"}} {
		if code := get(robot, fwd...); code != http.StatusForbidden {
			t.Fatalf("blocked robot sending X-Forwarded-For %q got %d, want 403", fwd, code)
		}
	}
	if det.SessionCount() != sessions {
		t.Fatalf("a public peer's X-Forwarded-For opened %d new sessions", det.SessionCount()-sessions)
	}

	// From a trusted hop, an entry that is not an address leaves the peer.
	for _, fwd := range []string{"203.0.113.80, junk", "203.0.113.80,", ""} {
		get("127.0.0.1", fwd)
	}
	if _, ok := det.Session(session.Key{IP: "127.0.0.1", UserAgent: ua}); !ok || det.SessionCount() != sessions+1 {
		t.Fatalf("unparseable rightmost entries: %d new sessions, want the loopback peer's only", det.SessionCount()-sessions)
	}
}

// TestForwardedForPaddingPinsNoHeap: behind a trusted hop a client is named
// by the rightmost X-Forwarded-For entry, a substring of a header line the
// client writes. Clients each send a 64 KB header line and their own
// User-Agent and fetch a page; what the process then retains per client must
// stay within what the engine's estimate charges for it plus one policy
// entry (at most policyEntryBytes). A canonical address padded in front
// must pin nothing of the line: a session or key table that stored the
// substring would pin all of it. An address the tables intern instead — an
// IPv6 address spelled otherwise, or one whose zone is the 64 KB — must be
// charged for its copies.
func TestForwardedForPaddingPinsNoHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting differs under -race")
	}
	// One P while the heap is measured: a thread the runtime starts meanwhile
	// puts its own 5.5 KB on the heap (runtime.allocm).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const policyEntryBytes = 256
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	pad := strings.Repeat("198.51.100.1, ", 64<<10/len("198.51.100.1, "))
	zone := strings.Repeat("z", 64<<10)
	// netip keeps a parsed zone in package unique's map until the
	// collector's cleanup drops it: the last zone the proxy parsed can still
	// be there, once, in 9 pages.
	const zoneCacheBytes = 9 << 13
	for _, tc := range []struct {
		name    string
		clients int
		fwd     func(i int) string
		fixed   int64 // heap allowed once, outside the tables
	}{
		{"padded canonical", 200, func(i int) string { return pad + fmt.Sprintf("10.1.%d.%d", i/256, i%256) }, 0},
		{"padded upper-case v6", 200, func(i int) string { return pad + fmt.Sprintf("::FFFF:10.1.%d.%d", i/256, i%256) }, 0},
		{"zone of 64 KB", 40, func(i int) string { return fmt.Sprintf("fe80::%x%%", i+1) + zone }, zoneCacheBytes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mw, det, _ := newTestStack(t, policy.NewEngine(policy.Config{}), nil)
			before, est0 := heap(), det.MemoryEstimate()
			for i := range tc.clients {
				req := httptest.NewRequest(http.MethodGet, "/", nil)
				req.RemoteAddr = "127.0.0.1:40000"
				req.Header.Set("User-Agent", fmt.Sprintf("Padder/%d", i))
				req.Header.Set("X-Forwarded-For", tc.fwd(i))
				rec := httptest.NewRecorder()
				if mw.ServeHTTP(rec, req); rec.Code != http.StatusOK {
					t.Fatalf("client %d: status %d", i, rec.Code)
				}
			}
			got, est := heap()-before, det.MemoryEstimate()-est0
			runtime.KeepAlive(mw)
			if det.SessionCount() != tc.clients {
				t.Fatalf("%d sessions, want one per forwarded address", det.SessionCount())
			}
			t.Logf("per client: heap %d B, estimate %d B", got/int64(tc.clients), est/int64(tc.clients))
			if got > est+int64(tc.clients)*policyEntryBytes+tc.fixed {
				t.Fatalf("heap grew %d B a client, the estimate %d B: a stored address pins heap the estimate does not charge",
					got/int64(tc.clients), est/int64(tc.clients))
			}
		})
	}
	runtime.KeepAlive(pad)
	runtime.KeepAlive(zone)
}

// FuzzClientIP: any peer address and any X-Forwarded-For lines (split on
// newlines) never panic, always name the client by the peer's host or by a
// parsed IP address, and from a peer that is not loopback or private always
// by the peer's host.
func FuzzClientIP(f *testing.F) {
	f.Add("127.0.0.1:4000", "203.0.113.7")
	f.Add("10.0.0.2:4000", "198.51.100.4, 203.0.113.7")
	f.Add("198.51.100.9:4000", "203.0.113.77")
	f.Add("[::1]:4000", "2001:db8::1\n203.0.113.5, ")
	f.Add("[::ffff:192.168.0.1]:80", " 192.0.2.4 ,junk")
	f.Add("192.168.1.1", "fe80::1%eth0")
	f.Add("not an address", "")
	m := &Middleware{cfg: Config{TrustForwardedFor: true}}
	f.Fuzz(func(t *testing.T, remoteAddr, fwd string) {
		r := &http.Request{RemoteAddr: remoteAddr, Header: http.Header{}}
		if fwd != "" {
			r.Header["X-Forwarded-For"] = strings.Split(fwd, "\n")
		}
		got := m.clientIP(r)
		peer, _, err := net.SplitHostPort(remoteAddr)
		if err != nil {
			peer = remoteAddr
		}
		if got == peer {
			return
		}
		if _, err := netip.ParseAddr(got); err != nil {
			t.Fatalf("peer %q, X-Forwarded-For %q: client %q is neither the peer nor an IP address", remoteAddr, fwd, got)
		}
		if addr, err := netip.ParseAddr(peer); err != nil || !addr.Unmap().IsLoopback() && !addr.Unmap().IsPrivate() {
			t.Fatalf("untrusted peer %q: X-Forwarded-For %q named the client %q", remoteAddr, fwd, got)
		}
	})
}

func TestHeadRequestNoBody(t *testing.T) {
	mw, _, _ := newTestStack(t, nil, nil)
	rec := doReq(t, mw, http.MethodHead, "/", "10.0.0.6", "Firefox/1.5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("HEAD response has %d body bytes", rec.Body.Len())
	}
}

func TestNotFoundPassthrough(t *testing.T) {
	mw, det, _ := newTestStack(t, nil, nil)
	rec := doReq(t, mw, http.MethodGet, "/definitely-missing.html", "10.0.0.7", "Firefox/1.5", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	snap, _ := det.Session(session.Key{IP: "10.0.0.7", UserAgent: "Firefox/1.5"})
	if snap.Counts.Status4xx != 1 {
		t.Fatalf("404 not observed: %+v", snap.Counts)
	}
}

func TestChunkedOriginStreamsInstrumented(t *testing.T) {
	// An origin that writes the page in many small chunks (with flushes)
	// must still come out correctly instrumented: the streaming rewriter
	// reassembles tags split across chunk boundaries.
	page := []byte("<html><head><title>chunky</title></head><body class=\"m\"><p>" +
		strings.Repeat("content ", 500) + "</p></body></html>")
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		for off := 0; off < len(page); off += 7 {
			end := off + 7
			if end > len(page) {
				end = len(page)
			}
			_, _ = w.Write(page[off:end])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
		}
	})
	det := core.New(core.Config{Seed: 21})
	mw := New(origin, Config{Engine: det})
	rec := doReq(t, mw, http.MethodGet, "/chunky.html", "10.0.0.8", "Firefox/1.5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	sum := htmlmod.Extract(rec.Body.Bytes())
	if !sum.BodyMouseHandler || len(sum.HiddenLinks) != 1 {
		t.Fatal("chunked response not fully instrumented")
	}
	if !strings.Contains(rec.Body.String(), strings.Repeat("content ", 500)) {
		t.Fatal("origin content damaged")
	}
	if st := det.Stats(); st.PagesInstrumented != 1 || st.OriginalBytes != int64(len(page)) {
		t.Fatalf("accounting off: %+v (page %d bytes)", st, len(page))
	}
}

func TestLargePageStreamsWithoutSizeCap(t *testing.T) {
	// The old store-and-forward path skipped pages above the 2 MiB hold cap;
	// the streaming path instruments well-anchored HTML of any size while
	// retaining only a bounded hold buffer.
	var b strings.Builder
	b.WriteString("<html><head></head><body>")
	for i := 0; i < 40000; i++ {
		b.WriteString("<p>a paragraph of filler text that pushes the page well past the cap</p>")
	}
	b.WriteString("</body></html>")
	page := b.String()
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		_, _ = io.WriteString(w, page)
	})
	det := core.New(core.Config{Seed: 22})
	mw := New(origin, Config{Engine: det})
	rec := doReq(t, mw, http.MethodGet, "/big.html", "10.0.0.9", "Firefox/1.5", nil)
	if len(page) <= maxRewriteBytes {
		t.Fatalf("test page too small: %d", len(page))
	}
	sum := htmlmod.Extract(rec.Body.Bytes())
	if !sum.BodyMouseHandler || len(sum.HiddenLinks) != 1 {
		t.Fatalf("large page not instrumented (len=%d)", len(page))
	}
}

func TestNewPanicsWithoutEngine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(http.NotFoundHandler(), Config{})
}

func TestReverseProxyConstruction(t *testing.T) {
	origin := httptest.NewServer(webmodel.Generate(webmodel.SiteConfig{Seed: 7, NumPages: 5}).Handler())
	defer origin.Close()
	u, err := url.Parse(origin.URL)
	if err != nil {
		t.Fatal(err)
	}
	det := core.New(core.Config{Seed: 11})
	mw := NewReverseProxy(u, Config{Engine: det})
	front := httptest.NewServer(mw)
	defer front.Close()

	resp, err := http.Get(front.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "/__bd/") {
		t.Fatal("reverse proxy did not instrument the upstream page")
	}
}

func TestChallengeInterstitialAndDeEscalation(t *testing.T) {
	cap := captcha.NewService(captcha.Config{Seed: 11})
	pol := policy.NewEngine(policy.Config{})
	mw, det, _ := newTestStack(t, pol, cap)
	ip, ua := "10.0.0.9", "SilentFetcher"
	key := session.Key{IP: ip, UserAgent: ua}

	// A slow robot that ignores all presentation objects: after the
	// classification threshold the chain says robot (probable) and the
	// ladder issues exactly one challenge interstitial.
	challenged := 0
	for i := 0; i < 15; i++ {
		rec := doReq(t, mw, http.MethodGet, "/page1.html", ip, ua, nil)
		if rec.Code == http.StatusTooManyRequests {
			challenged++
			if !strings.Contains(rec.Body.String(), "/__bd/captcha/new") {
				t.Fatalf("challenge page lacks captcha pointer: %q", rec.Body.String())
			}
		}
	}
	if challenged != 1 {
		t.Fatalf("challenged %d times, want exactly 1 (stats=%+v)", challenged, pol.Stats())
	}
	if pol.StageOf(key) != policy.StageChallenge {
		t.Fatalf("stage = %v", pol.StageOf(key))
	}

	// Solving the CAPTCHA flips the verdict to definite human and the next
	// request de-escalates the ladder back to monitor.
	rec := doReq(t, mw, http.MethodGet, "/__bd/captcha/new", ip, ua, nil)
	var id string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "id=") {
			id = strings.TrimPrefix(line, "id=")
		}
	}
	answer, ok := cap.Answer(id)
	if !ok {
		t.Fatal("challenge not stored")
	}
	form := url.Values{"id": {id}, "answer": {answer}}
	if rec := doReq(t, mw, http.MethodPost, "/__bd/captcha/verify", ip, ua, form); rec.Code != http.StatusOK {
		t.Fatalf("verify status = %d", rec.Code)
	}
	if rec := doReq(t, mw, http.MethodGet, "/page1.html", ip, ua, nil); rec.Code != http.StatusOK {
		t.Fatalf("post-captcha request status = %d", rec.Code)
	}
	if pol.StageOf(key) != policy.StageMonitor {
		t.Fatalf("stage after captcha = %v", pol.StageOf(key))
	}
	if v := det.Classify(key); v.Class != core.ClassHuman {
		t.Fatalf("verdict = %+v", v)
	}
}

// TestProxySessionsExpireOnEngineClock: the middleware stamps a request with
// the engine's clock, so the session idles out on that clock — here a virtual
// 2005, where a wall-clock stamp would sit two decades in the future and
// never expire.
func TestProxySessionsExpireOnEngineClock(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 3, NumPages: 20})
	det := core.New(core.Config{Seed: 9, Clock: vc})
	mw := New(site.Handler(), Config{Engine: det})

	if rec := doReq(t, mw, http.MethodGet, "/", "10.0.0.7", "Firefox/1.5", nil); rec.Code != http.StatusOK {
		t.Fatalf("page view = %d", rec.Code)
	}
	sweep := func() (n int) {
		for range det.ShardCount() {
			n += det.SweepStep(vc.Now())
		}
		return n
	}
	if n := sweep(); n != 0 {
		t.Fatalf("%d sessions expired with no time passed", n)
	}
	vc.Advance(det.Config().SessionIdleTimeout + time.Nanosecond)
	if n := sweep(); n != 1 {
		t.Fatalf("a sweep ended %d sessions an idle timeout after the one page view, want 1", n)
	}
}
