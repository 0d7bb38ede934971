package proxy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/cdn"
	"botdetect/internal/core"
	"botdetect/internal/htmlmod"
	"botdetect/internal/policy"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

const connTestPage = "<html><head><title>t</title></head><body><p>content</p></body></html>"

// connTestPageBytes and htmlCT keep the test origin itself allocation-free
// (shared header value slice, no string→[]byte copy per request), so the
// zero-alloc gate below measures the middleware alone.
var (
	connTestPageBytes = []byte(connTestPage)
	htmlCT            = []string{"text/html; charset=utf-8"}
)

func htmlOrigin() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["Content-Type"] = htmlCT
		_, _ = w.Write(connTestPageBytes)
	})
}

// TestKeepAliveConnectionReuse serves many pages over one real keep-alive
// connection with ConnContext installed and checks every response is a
// correctly instrumented page with fresh per-view keys, and that the script
// each page references is downloadable over the same connection.
func TestKeepAliveConnectionReuse(t *testing.T) {
	det := core.New(core.Config{Seed: 31, ObfuscateJS: true})
	mw := New(htmlOrigin(), Config{Engine: det})
	srv := httptest.NewUnstartedServer(mw)
	srv.Config.ConnContext = ConnContext
	srv.Start()
	defer srv.Close()

	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	seen := map[string]bool{}
	for i := 0; i < 12; i++ {
		resp, err := client.Get(srv.URL + "/page.html")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d: status=%d err=%v", i, resp.StatusCode, err)
		}
		sum := htmlmod.Extract(body)
		if len(sum.Scripts) != 1 || !sum.BodyMouseHandler || len(sum.HiddenLinks) != 1 {
			t.Fatalf("page %d: incomplete instrumentation:\n%s", i, body)
		}
		scriptSrc := sum.Scripts[0]
		if seen[scriptSrc] {
			t.Fatalf("page %d: script token %q reused across page views", i, scriptSrc)
		}
		seen[scriptSrc] = true

		sresp, err := client.Get(srv.URL + scriptSrc)
		if err != nil {
			t.Fatal(err)
		}
		script, _ := io.ReadAll(sresp.Body)
		sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK || !bytes.Contains(script, []byte("function __bd_f()")) {
			t.Fatalf("page %d: script download broken (status=%d)", i, sresp.StatusCode)
		}
	}
	if got := det.Stats().PagesInstrumented; got != 12 {
		t.Fatalf("PagesInstrumented = %d, want 12", got)
	}
}

// TestConnPathMatchesPerRequestPath proves the per-connection vectored
// serve path produces byte-identical pages to the per-request pooled path:
// two engines with the same seed, one middleware driven with a connState in
// the request context and one without.
func TestConnPathMatchesPerRequestPath(t *testing.T) {
	detA := core.New(core.Config{Seed: 37, ObfuscateJS: true})
	detB := core.New(core.Config{Seed: 37, ObfuscateJS: true})
	mwA := New(htmlOrigin(), Config{Engine: detA})
	mwB := New(htmlOrigin(), Config{Engine: detB})

	ctx := ConnContext(context.Background(), nil)
	for i := 0; i < 8; i++ {
		reqA := httptest.NewRequest(http.MethodGet, "/p.html", nil).WithContext(ctx)
		reqA.RemoteAddr = "10.12.0.1:1000"
		reqA.Header.Set("User-Agent", "Firefox/1.5")
		recA := httptest.NewRecorder()
		mwA.ServeHTTP(recA, reqA)

		reqB := httptest.NewRequest(http.MethodGet, "/p.html", nil)
		reqB.RemoteAddr = "10.12.0.1:1000"
		reqB.Header.Set("User-Agent", "Firefox/1.5")
		recB := httptest.NewRecorder()
		mwB.ServeHTTP(recB, reqB)

		if !bytes.Equal(recA.Body.Bytes(), recB.Body.Bytes()) {
			t.Fatalf("page %d: conn path diverged from per-request path:\n%q\nvs\n%q",
				i, recA.Body.Bytes(), recB.Body.Bytes())
		}
		if cc := recA.Header().Get("Cache-Control"); !strings.Contains(cc, "no-store") {
			t.Fatalf("page %d: Cache-Control = %q", i, cc)
		}
	}
}

// TestSurfacesServeIdenticalBytes drives the same requests at the same origin
// through every surface that serves — the middleware on a claimed connection,
// the middleware on a request that has no connection state to claim, and the
// simulated edge node — on three engines with one seed.
//
// pages: all three prepare through core.Engine.Prepare, so the bodies must
// match byte for byte.
//
// refused robot: one scripted robot — a page, its hidden link, then a probe
// that is half bogus paths — walks the ladder on each surface: challenged on
// the first request after the trap, blocked once the error share counts, and
// refused from then on. A refused request is answered differently on the wire
// but counted identically, so every surface ends with the same status
// sequence, session counts, signals and ladder stage.
func TestSurfacesServeIdenticalBytes(t *testing.T) {
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 5, NumPages: 10})
	key := session.Key{IP: surfaceIP, UserAgent: surfaceUA}
	surfaces := func(withPolicy bool) []surface { return newSurfaces(site, withPolicy) }

	t.Run("pages", func(t *testing.T) {
		ss := surfaces(false)
		for i, path := range []string{"/", "/page1.html", "/", "/page2.html"} {
			_, a := ss[0].get(path)
			_, b := ss[1].get(path)
			_, c := ss[2].get(path)
			if sum := htmlmod.Extract(a); !sum.BodyMouseHandler || len(sum.HiddenLinks) != 1 {
				t.Fatalf("view %d (%s): page not instrumented:\n%s", i, path, a)
			}
			if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
				t.Fatalf("view %d (%s): surfaces diverged:\nclaimed   %q\nunclaimed %q\nnode      %q", i, path, a, b, c)
			}
		}
	})

	// A definite human: every surface serves the same lite pages (the hidden
	// trap link alone) on the same views, and the same full page on the
	// views the hidden token picks.
	t.Run("definite human", func(t *testing.T) {
		ss := surfaces(false)
		for _, s := range ss {
			proveHuman(t, s.get)
		}
		lite := 0
		for i := 0; i < 16; i++ {
			path := fmt.Sprintf("/page%d.html", 1+i%4)
			_, a := ss[0].get(path)
			_, b := ss[1].get(path)
			_, c := ss[2].get(path)
			if !bytes.Equal(a, b) || !bytes.Equal(a, c) {
				t.Fatalf("view %d (%s): surfaces diverged:\nclaimed   %q\nunclaimed %q\nnode      %q", i, path, a, b, c)
			}
			if sum := htmlmod.Extract(a); len(sum.HiddenLinks) != 1 {
				t.Fatalf("view %d (%s): no hidden trap link:\n%s", i, path, a)
			} else if !sum.BodyMouseHandler {
				lite++
			}
		}
		for _, s := range ss {
			if got := s.eng.Stats().PagesLite; got != int64(lite) || lite == 0 {
				t.Errorf("%s: PagesLite = %d, %d lite pages served", s.name, got, lite)
			}
		}
	})

	t.Run("refused robot", func(t *testing.T) {
		type outcome struct {
			statuses string
			counts   session.Counts
			signals  session.Signals
			stage    policy.Stage
		}
		var first outcome
		for i, s := range surfaces(true) {
			var got outcome
			get := func(path string) []byte {
				status, body := s.get(path)
				got.statuses += fmt.Sprint(status, " ")
				return body
			}
			get(htmlmod.Extract(get("/")).HiddenLinks[0]) // the trap: a definite robot from here on
			for r := 0; r < 28; r++ {
				if r%2 == 0 {
					get(fmt.Sprintf("/no-such-page-%d.html", r))
				} else {
					get("/page1.html")
				}
			}
			snap, ok := s.eng.Session(key)
			if !ok {
				t.Fatalf("%s: session not tracked", s.name)
			}
			got.counts, got.signals, got.stage = snap.Counts, snap.Signals, s.pol.StageOf(key)
			if i == 0 {
				first = got
				if !strings.HasPrefix(got.statuses, "200 200 429 200 404 ") || !strings.HasSuffix(got.statuses, "403 403 403 ") ||
					got.stage != policy.StageBlock || got.counts.Total != 29 || !got.signals.Has(session.SignalHidden) {
					t.Fatalf("the robot did not walk the ladder: %+v", got)
				}
				continue
			}
			if got != first {
				t.Errorf("%s diverged from %s:\n got  %+v\n want %+v", s.name, "claimed", got, first)
			}
		}
	})
}

// surface is one way the repository serves a request — the middleware on a
// claimed connection, the middleware with no connection state, the simulated
// edge node — answering one GET from surfaceIP/surfaceUA with its status and
// body.
type surface struct {
	name string
	eng  *core.Engine
	pol  *policy.Engine
	get  func(path string) (int, []byte)
}

const surfaceIP, surfaceUA = "10.14.0.1", "Firefox/1.5"

// newSurfaces builds the three surfaces over site, each on its own engine
// (one seed for all three) and, withPolicy, its own policy engine.
func newSurfaces(site *webmodel.Site, withPolicy bool) []surface {
	out := make([]surface, 3)
	for i := range out {
		out[i].eng = core.New(core.Config{Seed: 43, ObfuscateJS: true})
		if withPolicy {
			out[i].pol = policy.NewEngine(policy.Config{})
		}
	}
	viaMiddleware := func(s *surface, ctx context.Context) {
		mw := New(site.Handler(), Config{Engine: s.eng, Policy: s.pol})
		s.get = func(path string) (int, []byte) {
			req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
			req.RemoteAddr = surfaceIP + ":1000"
			req.Header.Set("User-Agent", surfaceUA)
			rec := httptest.NewRecorder()
			mw.ServeHTTP(rec, req)
			return rec.Code, rec.Body.Bytes()
		}
	}
	out[0].name = "claimed"
	viaMiddleware(&out[0], ConnContext(context.Background(), nil))
	out[1].name = "unclaimed"
	viaMiddleware(&out[1], context.Background())
	out[2].name = "node"
	node := cdn.NewNode(cdn.NodeConfig{Name: "edge", Site: site, Engine: out[2].eng, Policy: out[2].pol})
	out[2].get = func(path string) (int, []byte) {
		resp := node.Do(agents.Request{Time: time.Now(), IP: surfaceIP, UserAgent: surfaceUA, Method: http.MethodGet, Path: path})
		return resp.Status, resp.Body
	}
	return out
}

// TestOneVerdictReadPerPage counts the verdict reads (stored-verdict hits
// plus recomputes) a definite human's pages make on every surface. With a
// policy the policy step's Decide is the request's one read and the page is
// prepared from it; without one the page makes the one read itself. Either
// way a page costs exactly one read, and an object request on a surface with
// no policy costs none.
func TestOneVerdictReadPerPage(t *testing.T) {
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 5, NumPages: 10})
	const pages = 16
	reads := func(e *core.Engine) int64 {
		tel := e.Telemetry()
		return tel.ClassifyCacheHits.Value() + tel.ClassifyRecomputes.Value()
	}
	for _, withPolicy := range []bool{true, false} {
		for _, s := range newSurfaces(site, withPolicy) {
			name := fmt.Sprintf("%s, policy %v", s.name, withPolicy)
			proveHuman(t, s.get)
			before := reads(s.eng)
			for i := 0; i < pages; i++ {
				if status, _ := s.get(fmt.Sprintf("/page%d.html", 1+i%4)); status != http.StatusOK {
					t.Fatalf("%s: page %d: status %d", name, i, status)
				}
			}
			if got := reads(s.eng) - before; got != pages {
				t.Errorf("%s: %d pages made %d verdict reads, want one each", name, pages, got)
			}
			if s.eng.Stats().PagesLite == 0 {
				t.Errorf("%s: no lite page: the pages did not see the definite human verdict", name)
			}
			before = reads(s.eng)
			if status, _ := s.get(site.Pages()[1].CSS); status != http.StatusOK {
				t.Fatalf("%s: stylesheet: status %d", name, status)
			}
			want := int64(0)
			if withPolicy {
				want = 1 // the policy step's
			}
			if got := reads(s.eng) - before; got != want {
				t.Errorf("%s: an object request made %d verdict reads, want %d", name, got, want)
			}
		}
	}
}

// proveHuman makes the client behind get a definite human the way a browser
// does: a page, its script, and the real key the script's input handler
// carries.
func proveHuman(t *testing.T, get func(path string) (int, []byte)) {
	t.Helper()
	_, page := get("/")
	var script []byte
	for _, src := range htmlmod.Extract(page).Scripts {
		if strings.HasPrefix(src, "/__bd/") {
			_, script = get(src)
		}
	}
	key := agents.HandlerBeaconURL(string(script), "__bd_f")
	if key == "" {
		t.Fatalf("no input-event beacon in the page's script:\n%s", script)
	}
	if status, _ := get(key); status != http.StatusOK {
		t.Fatalf("input-event beacon: status %d", status)
	}
}

// nopResponseWriter is a header-reusing discard writer for the alloc gate:
// a real keep-alive connection reuses its header map the same way.
type nopResponseWriter struct {
	h http.Header
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) WriteHeader(int)             {}
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestServePageZeroAlloc gates the full middleware page serve — claim the
// connection state, observe, prepare, rewrite with vectored output, finish —
// at zero allocations per request once the connection is warm.
func TestServePageZeroAlloc(t *testing.T) {
	det := core.New(core.Config{Seed: 41, ObfuscateJS: true, Shards: 1})
	mw := New(htmlOrigin(), Config{Engine: det})

	ctx := ConnContext(context.Background(), nil)
	req := httptest.NewRequest(http.MethodGet, "/hot.html", nil).WithContext(ctx)
	req.RemoteAddr = "10.13.0.1:2000"
	req.Header.Set("User-Agent", "Firefox/1.5")
	w := &nopResponseWriter{h: make(http.Header)}

	serve := func() {
		mw.ServeHTTP(w, req)
	}
	// Warm: keystore client state to its per-client eviction steady state,
	// fragment/scratch buffers, session snapshot republication.
	for i := 0; i < 600; i++ {
		serve()
	}
	allocs := testing.AllocsPerRun(400, serve)
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("keep-alive page serve allocated %.2f/op, want 0", allocs)
	}
}

// TestServeLitePageZeroAlloc is TestServePageZeroAlloc for a definite human,
// whose pages are lite seven views in eight: reading the verdict for the
// choice costs the keep-alive serve no allocation.
func TestServeLitePageZeroAlloc(t *testing.T) {
	det := core.New(core.Config{Seed: 42, ObfuscateJS: true, Shards: 1})
	mw := New(htmlOrigin(), Config{Engine: det})
	ctx := ConnContext(context.Background(), nil)
	get := func(path string) (int, []byte) {
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
		req.RemoteAddr = "10.13.0.2:2000"
		req.Header.Set("User-Agent", "Firefox/1.5")
		rec := httptest.NewRecorder()
		mw.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	proveHuman(t, get)

	req := httptest.NewRequest(http.MethodGet, "/hot.html", nil).WithContext(ctx)
	req.RemoteAddr = "10.13.0.2:2000"
	req.Header.Set("User-Agent", "Firefox/1.5")
	w := &nopResponseWriter{h: make(http.Header)}
	serve := func() { mw.ServeHTTP(w, req) }
	for i := 0; i < 600; i++ {
		serve()
	}
	before := det.Stats().PagesLite
	allocs := testing.AllocsPerRun(400, serve)
	if lite := det.Stats().PagesLite - before; lite < 300 {
		t.Fatalf("%d of 401 views lite, want about seven in eight", lite)
	}
	if cc := w.h.Get("Cache-Control"); !strings.Contains(cc, "no-store") {
		t.Fatalf("lite page Cache-Control = %q, want no-store", cc)
	}
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("keep-alive lite page serve allocated %.2f/op, want 0", allocs)
	}
}

// TestServeSitePageRotatingClientsZeroAlloc gates the serve the benchmark's
// browse workloads make most: the generated site's front page through the
// middleware, with a policy engine, to 40 clients in turn, each on its own
// keep-alive connection. A round serves each client once, and the rounds
// that make their fourth to sixth page views allocate nothing, counted per
// round: the site's handler sets prebuilt header values (Header.Set made a
// []string a response), and a client's window holds up to eight page views
// in its record (four while a header took four bytes, so the window spilled
// to the heap at the fifth and moved to a larger size class at the sixth).
func TestServeSitePageRotatingClientsZeroAlloc(t *testing.T) {
	const clients = 40
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 5, NumPages: 10})
	det := core.New(core.Config{Seed: 44, ObfuscateJS: true})
	mw := New(site.Handler(), Config{Engine: det, Policy: policy.NewEngine(policy.Config{})})
	reqs := make([]*http.Request, clients)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ConnContext(context.Background(), nil))
		reqs[i].RemoteAddr = fmt.Sprintf("10.16.0.%d:5000", i)
		reqs[i].Header.Set("User-Agent", "Firefox/1.5")
	}
	w := &nopResponseWriter{h: make(http.Header)}
	n := 0
	serve := func() {
		mw.ServeHTTP(w, reqs[n%clients])
		n++
	}
	for range 2 * clients { // every client, its session and its window exist
		serve()
	}
	// AllocsPerRun's warm-up round makes the third page views.
	allocs := testing.AllocsPerRun(3, func() {
		for range clients {
			serve()
		}
	})
	if pages := det.Stats().PagesInstrumented; pages != int64(n) || pages > 8*clients {
		t.Fatalf("%d pages instrumented in %d serves, want one a serve and at most eight a client", pages, n)
	}
	if ct := w.h.Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("a round of %d site page serves to rotating clients allocated %.0f times, want 0", clients, allocs)
	}
}

// TestConcurrentStreamsFallBack drives concurrent requests through one
// connState (the HTTP/2 stream scenario): exactly one claims the state, the
// rest fall back to per-request streamers, and every response is correct.
func TestConcurrentStreamsFallBack(t *testing.T) {
	det := core.New(core.Config{Seed: 43, ObfuscateJS: true})
	mw := New(htmlOrigin(), Config{Engine: det})
	ctx := ConnContext(context.Background(), nil)

	const streams = 8
	errs := make(chan error, streams)
	for g := 0; g < streams; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				req := httptest.NewRequest(http.MethodGet, "/s.html", nil).WithContext(ctx)
				req.RemoteAddr = fmt.Sprintf("10.14.0.%d:3000", g)
				req.Header.Set("User-Agent", "Firefox/1.5")
				rec := httptest.NewRecorder()
				mw.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "/__bd/") {
					errs <- fmt.Errorf("stream %d page %d: status=%d", g, i, rec.Code)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < streams; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
