package proxy

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"botdetect/internal/core"
	"botdetect/internal/detect"
	"botdetect/internal/policy"
	"botdetect/internal/session"
	"botdetect/internal/telemetry"
)

const adminTestUA = "Firefox/1.5 (admin test)"

// newAdminStack builds origin → middleware → mux with the admin surface
// registered, the way cmd/botproxy wires it.
func newAdminStack(t *testing.T, enablePprof bool) (*http.ServeMux, *core.Engine, *policy.Engine) {
	t.Helper()
	return newAdminStackToken(t, enablePprof, "")
}

func newAdminStackToken(t *testing.T, enablePprof bool, token string) (*http.ServeMux, *core.Engine, *policy.Engine) {
	t.Helper()
	origin := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		_, _ = w.Write([]byte("<html><head><title>t</title></head><body>hello</body></html>"))
	})
	eng := core.New(core.Config{Seed: 31})
	pol := policy.NewEngine(policy.Config{})
	pol.RegisterMetrics(eng.Telemetry().Registry(), "")
	mw := New(origin, Config{Engine: eng, Policy: pol})
	admin := NewAdmin(AdminConfig{Engine: eng, Policy: pol, EnablePprof: enablePprof, AuthToken: token})
	mux := http.NewServeMux()
	mux.Handle("/", mw)
	admin.Register(mux)
	return mux, eng, pol
}

func adminGet(mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.RemoteAddr = "10.1.2.3:5555"
	req.Header.Set("User-Agent", adminTestUA)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func adminPost(mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.RemoteAddr = "10.1.2.3:5555"
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

func TestAdminMetricsEndpoint(t *testing.T) {
	mux, _, _ := newAdminStack(t, false)

	// One instrumented page fetch must move the proxy and page counters.
	if rec := adminGet(mux, "/page.html"); rec.Code != http.StatusOK {
		t.Fatalf("page fetch status %d", rec.Code)
	}
	rec := adminGet(mux, "/__bd/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Fatalf("metrics content-type %q, want %q", ct, telemetry.ContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"botdetect_pages_instrumented_total 1",
		`botdetect_proxy_requests_total{outcome="origin"} 1`,
		`botdetect_stage_duration_seconds_count{stage="rewrite_stream"} 1`,
		`botdetect_policy_sessions{stage="block"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestAdminMetricsGCCounters: /__bd/metrics carries the Go runtime's GC
// cycles, GC CPU seconds and heap goal, read at scrape time; across a forced
// collection the cycle count rises, the CPU seconds do not fall, and the heap
// goal stays positive.
func TestAdminMetricsGCCounters(t *testing.T) {
	mux, _, _ := newAdminStack(t, false)
	names := []string{"botdetect_go_gc_cycles_total", "botdetect_go_gc_cpu_seconds_total", "botdetect_go_heap_goal_bytes"}
	scrape := func() []float64 {
		t.Helper()
		body := adminGet(mux, "/__bd/metrics").Body.String()
		vals := make([]float64, len(names))
		for i, name := range names {
			_, rest, ok := strings.Cut(body, "\n"+name+" ")
			if !ok {
				t.Fatalf("exposition missing %s", name)
			}
			line, _, _ := strings.Cut(rest, "\n")
			if _, err := fmt.Sscan(line, &vals[i]); err != nil {
				t.Fatalf("%s %q: %v", name, line, err)
			}
		}
		return vals
	}
	before := scrape()
	runtime.GC()
	after := scrape()
	t.Logf("before %v, after a forced GC %v", before, after)
	if after[0] <= before[0] || after[1] < before[1] {
		t.Errorf("across a forced GC: cycles %v -> %v, GC CPU seconds %v -> %v", before[0], after[0], before[1], after[1])
	}
	if before[2] <= 0 || after[2] <= 0 {
		t.Errorf("heap goal %v, then %v bytes", before[2], after[2])
	}
}

func TestAdminStatusEndpoint(t *testing.T) {
	mux, _, _ := newAdminStack(t, false)
	adminGet(mux, "/page.html")
	rec := adminGet(mux, "/__bd/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status endpoint status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("status content-type %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "verdict table") || !strings.Contains(body, "active sessions: 1") {
		t.Fatalf("status body incomplete:\n%s", body)
	}
	// The table, one line per row in order: ID, name, class/confidence.
	for _, want := range []string{
		"\n   1 decoy            robot/definite\n   2 replay ",
		"\n   5 mouse            human/definite\n",
		"\n   7 remote           the origin's row\n",
		"\n  10 below-threshold  undecided/tentative\n",
		"\n  13 no-presentation  robot/probable\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("status missing the table line %q:\n%s", want, body)
		}
	}
}

// TestAdminCountsLitePages: the lite pages served to a definite human show
// on /__bd/metrics and /__bd/status beside the pages instrumented.
func TestAdminCountsLitePages(t *testing.T) {
	mux, eng, _ := newAdminStack(t, false)
	proveHuman(t, func(path string) (int, []byte) {
		rec := adminGet(mux, path)
		return rec.Code, rec.Body.Bytes()
	})
	for i := 0; i < 16; i++ {
		adminGet(mux, "/page.html")
	}
	lite := eng.Stats().PagesLite
	if lite == 0 {
		t.Fatal("no lite page in 16 views of a definite human")
	}
	metrics := adminGet(mux, "/__bd/metrics").Body.String()
	if want := fmt.Sprint("botdetect_pages_lite_total ", lite, "\n"); !strings.Contains(metrics, want) {
		t.Errorf("exposition missing %q", want)
	}
	status := adminGet(mux, "/__bd/status").Body.String()
	if want := fmt.Sprint("pages lite (definite humans, hidden link only): ", lite, "\n"); !strings.Contains(status, want) {
		t.Errorf("status missing %q:\n%s", want, status)
	}
}

func TestAdminSessionInspect(t *testing.T) {
	mux, eng, _ := newAdminStack(t, false)
	if rec := adminGet(mux, "/__bd/admin/session?ip=10.1.2.3&ua=nobody"); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown session status %d, want 404", rec.Code)
	}
	if rec := adminGet(mux, "/__bd/admin/session"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing ip status %d, want 400", rec.Code)
	}

	adminGet(mux, "/page.html")
	rec := adminGet(mux, "/__bd/admin/session?ip=10.1.2.3&ua="+strings.ReplaceAll(adminTestUA, " ", "+"))
	if rec.Code != http.StatusOK {
		t.Fatalf("session inspect status %d: %s", rec.Code, rec.Body.String())
	}
	var view struct {
		IP       string `json:"ip"`
		Requests int64  `json:"requests"`
		Verdict  struct {
			Class  string  `json:"class"`
			Rule   string  `json:"rule"`
			Reason string  `json:"reason"`
			Origin *string `json:"origin"`
		} `json:"verdict"`
		Features []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"features"`
		Policy *struct {
			Stage string `json:"stage"`
		} `json:"policy"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("session inspect is not JSON: %v", err)
	}
	if view.IP != "10.1.2.3" || view.Requests != 1 || view.Verdict.Class == "" {
		t.Fatalf("unexpected view: %+v", view)
	}
	if len(view.Features) == 0 {
		t.Fatal("feature vector missing")
	}
	if view.Policy == nil || view.Policy.Stage == "" {
		t.Fatal("policy stage missing")
	}
	if view.Verdict.Rule != "below-threshold" || view.Verdict.Origin != nil {
		t.Fatalf("a local verdict reads as rule %q from %v", view.Verdict.Rule, view.Verdict.Origin)
	}

	// A verdict replicated from node n1: the row that fired there, and n1.
	key := session.Key{IP: "10.1.2.3", UserAgent: adminTestUA}
	eng.SetFleet(peerFleet{key: key, v: detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite,
		Rule: detect.RuleHidden, AtRequest: 3, Origin: "n1"}})
	eng.ApplyRemoteVerdict(key)
	rec = adminGet(mux, "/__bd/admin/session?ip=10.1.2.3&ua="+strings.ReplaceAll(adminTestUA, " ", "+"))
	view.Verdict.Origin = nil
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("session inspect is not JSON: %v", err)
	}
	if v := view.Verdict; v.Class != "robot" || v.Rule != "hidden" || v.Reason != "followed a link invisible to human users" ||
		v.Origin == nil || *v.Origin != "n1" {
		t.Fatalf("replicated verdict reads as %+v (origin %v)", v, v.Origin)
	}
}

// peerFleet is a two-node fleet in which node n1 judged one session.
type peerFleet struct {
	key session.Key
	v   detect.Verdict
}

func (peerFleet) ExportVerdict(session.Key, detect.Verdict) {}
func (peerFleet) Members() []string                         { return []string{"n0", "n1"} }
func (f peerFleet) PeerVerdict(k session.Key) (detect.Verdict, bool) {
	return f.v, k == f.key
}

func TestAdminRotateAndRetrain(t *testing.T) {
	mux, eng, _ := newAdminStack(t, false)
	if rec := adminGet(mux, "/__bd/admin/rotate"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET rotate status %d, want 405", rec.Code)
	}
	rec := adminPost(mux, "/__bd/admin/rotate")
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate status %d", rec.Code)
	}
	if got := eng.Telemetry().ScriptRotations.Value(); got != 1 {
		t.Fatalf("rotations counter %d, want 1", got)
	}
	// No labelled outcomes buffered: retrain must report the conflict.
	if rec := adminPost(mux, "/__bd/admin/retrain"); rec.Code != http.StatusConflict {
		t.Fatalf("retrain status %d, want 409: %s", rec.Code, rec.Body.String())
	}
}

func TestAdminOverrideBlocksRobot(t *testing.T) {
	mux, _, pol := newAdminStack(t, false)
	adminGet(mux, "/page.html")

	ua := strings.ReplaceAll(adminTestUA, " ", "+")
	if rec := adminPost(mux, "/__bd/admin/override?ip=10.1.2.3&ua="+ua+"&verdict=maybe"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad verdict status %d, want 400", rec.Code)
	}
	if rec := adminPost(mux, "/__bd/admin/override?ip=10.1.2.3&ua="+ua+"&verdict=robot"); rec.Code != http.StatusOK {
		t.Fatalf("override status %d: %s", rec.Code, rec.Body.String())
	}
	key := session.Key{IP: "10.1.2.3", UserAgent: adminTestUA}
	if got := pol.StageOf(key); got.String() != "block" {
		t.Fatalf("policy stage %q after robot override, want block", got)
	}
	if rec := adminGet(mux, "/page.html"); rec.Code != http.StatusForbidden {
		t.Fatalf("blocked client got status %d, want 403", rec.Code)
	}
}

// TestAdminAuthToken pins the bearer-token gate: with AuthToken configured,
// every admin endpoint — the read-only views included, since they expose
// client IPs and User-Agents — refuses requests without the exact token.
func TestAdminAuthToken(t *testing.T) {
	mux, _, _ := newAdminStackToken(t, false, "s3cret")

	do := func(method, path, auth string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, nil)
		req.RemoteAddr = "10.1.2.3:5555"
		req.Header.Set("User-Agent", adminTestUA)
		if auth != "" {
			req.Header.Set("Authorization", auth)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}

	for _, path := range []string{"/__bd/metrics", "/__bd/status", "/__bd/admin/session?ip=1.2.3.4"} {
		if rec := do(http.MethodGet, path, ""); rec.Code != http.StatusUnauthorized {
			t.Errorf("GET %s without token: status %d, want 401", path, rec.Code)
		}
		if rec := do(http.MethodGet, path, "Bearer wrong"); rec.Code != http.StatusUnauthorized {
			t.Errorf("GET %s with bad token: status %d, want 401", path, rec.Code)
		}
	}
	for _, path := range []string{"/__bd/admin/override?ip=1.2.3.4&verdict=human", "/__bd/admin/rotate", "/__bd/admin/retrain"} {
		if rec := do(http.MethodPost, path, ""); rec.Code != http.StatusUnauthorized {
			t.Errorf("POST %s without token: status %d, want 401", path, rec.Code)
		}
	}

	if rec := do(http.MethodGet, "/__bd/metrics", "Bearer s3cret"); rec.Code != http.StatusOK {
		t.Fatalf("metrics with token: status %d, want 200", rec.Code)
	}
	if rec := do(http.MethodPost, "/__bd/admin/rotate", "Bearer s3cret"); rec.Code != http.StatusOK {
		t.Fatalf("rotate with token: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	// The public serve path must stay open — the guard covers only /__bd admin routes.
	if rec := do(http.MethodGet, "/page.html", ""); rec.Code != http.StatusOK {
		t.Fatalf("public page without token: status %d, want 200", rec.Code)
	}
}

// TestAdminCrossOriginRejected pins the tokenless (loopback-deployment) CSRF
// guard: a browser-initiated request always carries an Origin header, and a
// hostile page must not be able to drive an operator's browser into posting
// an override to the loopback listener.
func TestAdminCrossOriginRejected(t *testing.T) {
	mux, _, pol := newAdminStack(t, false)
	adminGet(mux, "/page.html")

	ua := strings.ReplaceAll(adminTestUA, " ", "+")
	req := httptest.NewRequest(http.MethodPost, "/__bd/admin/override?ip=10.1.2.3&ua="+ua+"&verdict=robot", nil)
	req.RemoteAddr = "127.0.0.1:4444"
	req.Header.Set("Origin", "http://evil.example")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("cross-origin override: status %d, want 403", rec.Code)
	}
	key := session.Key{IP: "10.1.2.3", UserAgent: adminTestUA}
	if got := pol.StageOf(key).String(); got == "block" {
		t.Fatal("cross-origin override must not reach the policy engine")
	}

	req = httptest.NewRequest(http.MethodGet, "/__bd/status", nil)
	req.Header.Set("Origin", "http://evil.example")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusForbidden {
		t.Fatalf("cross-origin status read: status %d, want 403", rec.Code)
	}
}

func TestAdminPprofGating(t *testing.T) {
	muxOff, _, _ := newAdminStack(t, false)
	if rec := adminGet(muxOff, "/__bd/debug/pprof/"); rec.Code == http.StatusOK {
		t.Fatal("pprof must be absent by default")
	}
	muxOn, _, _ := newAdminStack(t, true)
	rec := adminGet(muxOn, "/__bd/debug/pprof/")
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index status %d with -pprof", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatal("pprof index did not render profile listing (prefix stripping broken?)")
	}
}
