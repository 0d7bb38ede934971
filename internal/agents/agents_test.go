package agents

import (
	"strings"
	"testing"
	"time"

	"botdetect/internal/core"
	"botdetect/internal/detect/rules"
	"botdetect/internal/jsgen"
	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

// testClient wires agents to a synthetic site through an Engine the way the
// CDN simulator does, so agent behaviour can be verified end to end.
type testClient struct {
	site *webmodel.Site
	det  *core.Engine
}

func newTestClient(seed uint64, obfuscate bool) *testClient {
	return &testClient{
		site: webmodel.Generate(webmodel.SiteConfig{Seed: seed, NumPages: 30}),
		det:  core.New(core.Config{Seed: seed, ObfuscateJS: obfuscate}),
	}
}

func (tc *testClient) Do(req Request) Response {
	if req.Path == CaptchaSolvePath {
		tc.det.MarkCaptchaPassed(session.Key{IP: req.IP, UserAgent: req.UserAgent})
		return Response{Status: 200, ContentType: "text/plain", Body: []byte("ok")}
	}
	if resp, ok := tc.det.HandleBeacon(req.IP, req.UserAgent, req.Path); ok {
		return Response{Status: resp.Status, ContentType: resp.ContentType, Body: resp.Body}
	}
	obj := tc.site.Lookup(req.Path)
	tc.det.ObserveRequestQuiet(logfmt.Entry{
		Time: req.Time, ClientIP: req.IP, UserAgent: req.UserAgent, Method: req.Method,
		Path: req.Path, Status: obj.Status, Bytes: int64(len(obj.Body)), Referer: req.Referer,
		ContentType: obj.ContentType,
	})
	body := obj.Body
	if strings.Contains(obj.ContentType, "text/html") && obj.Status == 200 && req.Method == "GET" {
		var ps core.PageState
		v := readVerdict(tc.det, session.Key{IP: req.IP, UserAgent: req.UserAgent})
		res := tc.det.Prepare(v, core.AdmitFull, req.IP, &ps).Rewrite(body)
		tc.det.RecordInstrumented(len(body), res.AddedBytes)
		body = res.HTML
	}
	return Response{Status: obj.Status, ContentType: obj.ContentType, Body: body, RedirectTo: obj.RedirectTo}
}

func (tc *testClient) verdict(a Agent) core.Verdict {
	return readVerdict(tc.det, session.Key{IP: a.IP(), UserAgent: a.UserAgent()})
}

// readVerdict is one verdict read: Decide, then Release.
func readVerdict(det *core.Engine, key session.Key) core.Verdict {
	snap, v, _ := det.Decide(key)
	snap.Release()
	return v
}

// run drives an agent to completion (or a step cap).
func run(tc *testClient, a Agent) {
	now := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 500; i++ {
		delay, done := a.Step(tc, now)
		now = now.Add(delay)
		if done {
			return
		}
	}
}

func TestKindLabels(t *testing.T) {
	if !KindHuman.IsHuman() || !KindHumanNoJS.IsHuman() {
		t.Fatal("human kinds should be human")
	}
	for _, k := range []Kind{KindCrawler, KindEmailHarvester, KindReferrerSpammer, KindClickFraud, KindVulnScanner, KindOfflineBrowser, KindSmartBot} {
		if k.IsHuman() {
			t.Fatalf("%s should not be human", k)
		}
		if k.String() == "unknown" {
			t.Fatalf("missing name for kind %d", k)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind name")
	}
}

func TestHumanWithJSDetectedAsHuman(t *testing.T) {
	tc := newTestClient(1, true)
	h := NewHuman(HumanConfig{IP: "10.1.0.1", JavaScriptEnabled: true, Pages: 8, MouseMoveProbability: 1.0, Src: rng.New(3)})
	run(tc, h)
	v := tc.verdict(h)
	if v.Class != core.ClassHuman || v.Confidence != core.Definite {
		t.Fatalf("verdict = %+v", v)
	}
	snap, _ := tc.det.Session(session.Key{IP: h.IP(), UserAgent: h.UserAgent()})
	if !snap.Signals.Has(session.SignalMouse) || !snap.Signals.Has(session.SignalCSS) || !snap.Signals.Has(session.SignalJS) {
		t.Fatalf("signals = %v", snap.Signals)
	}
	if snap.Signals.Has(session.SignalHidden) || snap.Signals.Has(session.SignalDecoy) || snap.Signals.Has(session.SignalUAMismatch) {
		t.Fatalf("human tripped robot signals: %v", snap.Signals)
	}
}

func TestHumanWithoutJSDetectedViaCSS(t *testing.T) {
	tc := newTestClient(2, true)
	h := NewHuman(HumanConfig{IP: "10.1.0.2", JavaScriptEnabled: false, Pages: 12, Src: rng.New(5)})
	run(tc, h)
	snap, _ := tc.det.Session(session.Key{IP: h.IP(), UserAgent: h.UserAgent()})
	if !snap.Signals.Has(session.SignalCSS) {
		t.Fatal("no-JS human did not fetch the injected stylesheet")
	}
	if snap.Signals.Has(session.SignalJS) || snap.Signals.Has(session.SignalMouse) {
		t.Fatalf("no-JS human produced JS signals: %v", snap.Signals)
	}
	if !rules.InHumanSet(snap) {
		t.Fatal("no-JS human not in S_H")
	}
	if h.Kind() != KindHumanNoJS {
		t.Fatal("kind should be human-nojs")
	}
}

func TestHumanCaptchaParticipation(t *testing.T) {
	tc := newTestClient(3, false)
	h := NewHuman(HumanConfig{IP: "10.1.0.3", JavaScriptEnabled: true, Pages: 5, SolveCaptcha: 1.0, Src: rng.New(7)})
	run(tc, h)
	snap, _ := tc.det.Session(session.Key{IP: h.IP(), UserAgent: h.UserAgent()})
	if !snap.Signals.Has(session.SignalCaptcha) {
		t.Fatal("captcha-participating human not marked")
	}
}

func TestCrawlerDetectedAsRobot(t *testing.T) {
	tc := newTestClient(4, true)
	a := NewCrawler(RobotConfig{IP: "10.2.0.1", Requests: 40, Src: rng.New(11)})
	run(tc, a)
	snap, ok := tc.det.Session(session.Key{IP: a.IP(), UserAgent: a.UserAgent()})
	if !ok {
		t.Fatal("crawler session missing")
	}
	// Crawlers follow every link and eventually hit the hidden trap.
	if !snap.Signals.Has(session.SignalHidden) {
		t.Fatalf("crawler did not hit the hidden link; signals = %v, requests = %d", snap.Signals, snap.Counts.Total)
	}
	if snap.Signals.Has(session.SignalCSS) || snap.Signals.Has(session.SignalJS) {
		t.Fatal("crawler should not fetch presentation objects")
	}
	v := tc.verdict(a)
	if v.Class != core.ClassRobot {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestEmailHarvesterClassifiedRobot(t *testing.T) {
	tc := newTestClient(5, true)
	a := NewEmailHarvester(RobotConfig{IP: "10.2.0.2", Requests: 30, Src: rng.New(13)})
	run(tc, a)
	v := tc.verdict(a)
	if v.Class != core.ClassRobot {
		t.Fatalf("verdict = %+v", v)
	}
	snap, _ := tc.det.Session(session.Key{IP: a.IP(), UserAgent: a.UserAgent()})
	if snap.Counts.HTML == 0 || snap.Counts.Embedded != 0 {
		t.Fatalf("harvester request mix unexpected: %+v", snap.Counts)
	}
}

func TestReferrerSpammerBehaviour(t *testing.T) {
	tc := newTestClient(6, true)
	a := NewReferrerSpammer(RobotConfig{IP: "10.2.0.3", Requests: 25, Src: rng.New(17)})
	run(tc, a)
	snap, _ := tc.det.Session(session.Key{IP: a.IP(), UserAgent: a.UserAgent()})
	if snap.Counts.WithReferrer != snap.Counts.Total {
		t.Fatalf("spammer requests missing referers: %+v", snap.Counts)
	}
	if snap.Counts.UnseenReferrer != snap.Counts.WithReferrer {
		t.Fatalf("spammer referers should all be unseen: %+v", snap.Counts)
	}
	if v := tc.verdict(a); v.Class != core.ClassRobot {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestClickFraudBehaviour(t *testing.T) {
	tc := newTestClient(7, true)
	a := NewClickFraud(RobotConfig{IP: "10.2.0.4", Requests: 30, Src: rng.New(19)})
	run(tc, a)
	snap, _ := tc.det.Session(session.Key{IP: a.IP(), UserAgent: a.UserAgent()})
	if snap.Counts.CGI != snap.Counts.Total {
		t.Fatalf("click-fraud requests should all be CGI: %+v", snap.Counts)
	}
	if v := tc.verdict(a); v.Class != core.ClassRobot {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestVulnScannerBehaviour(t *testing.T) {
	tc := newTestClient(8, true)
	a := NewVulnScanner(RobotConfig{IP: "10.2.0.5", Requests: 40, Src: rng.New(23)})
	run(tc, a)
	snap, _ := tc.det.Session(session.Key{IP: a.IP(), UserAgent: a.UserAgent()})
	if snap.Counts.Status4xx == 0 {
		t.Fatalf("scanner should generate 4xx responses: %+v", snap.Counts)
	}
	if v := tc.verdict(a); v.Class != core.ClassRobot {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestOfflineBrowserCaughtByDecoysOrHiddenLinks(t *testing.T) {
	tc := newTestClient(9, true)
	a := NewOfflineBrowser(RobotConfig{IP: "10.2.0.6", Requests: 30, Src: rng.New(29)})
	run(tc, a)
	snap, _ := tc.det.Session(session.Key{IP: a.IP(), UserAgent: a.UserAgent()})
	// The mirroring tool downloads CSS (looks browser-like) but blindly
	// fetches scraped beacon URLs and hidden links.
	if !snap.Signals.Has(session.SignalCSS) {
		t.Fatalf("offline browser should download stylesheets: %v", snap.Signals)
	}
	if !snap.Signals.Has(session.SignalDecoy) && !snap.Signals.Has(session.SignalHidden) {
		t.Fatalf("offline browser not caught by decoys or hidden links: %v", snap.Signals)
	}
	if v := tc.verdict(a); v.Class != core.ClassRobot {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestSmartBotCaughtByJSWithoutMouse(t *testing.T) {
	tc := newTestClient(10, true)
	a := NewSmartBot(RobotConfig{IP: "10.2.0.7", Requests: 25, Src: rng.New(31)})
	run(tc, a)
	snap, _ := tc.det.Session(session.Key{IP: a.IP(), UserAgent: a.UserAgent()})
	if !snap.Signals.Has(session.SignalJS) || !snap.Signals.Has(session.SignalCSS) {
		t.Fatalf("smart bot should execute JS and fetch CSS: %v", snap.Signals)
	}
	if snap.Signals.Has(session.SignalMouse) || snap.Signals.Has(session.SignalDecoy) || snap.Signals.Has(session.SignalHidden) || snap.Signals.Has(session.SignalUAMismatch) {
		t.Fatalf("smart bot tripped unexpected signals: %v", snap.Signals)
	}
	if rules.InHumanSet(snap) {
		t.Fatal("smart bot must not be in S_H (the S_JS - S_MM term)")
	}
	v := tc.verdict(a)
	if v.Class != core.ClassRobot {
		t.Fatalf("verdict = %+v", v)
	}
}

// compiledScript compiles one script variant of shape cfg and renders it the
// way the engine serves it, with the paper's example beacon number as the real
// key (its leading zero included), 5556667777 as the exec key and the given
// decoys.
func compiledScript(cfg jsgen.TemplateConfig, seed uint64, decoys []uint64) string {
	cfg.KeyDigits = 10
	return string(jsgen.NewGenerator().Compile(cfg, seed).RenderKeys(nil, 729395160, 5556667777, decoys, cfg.KeyDigits))
}

func TestJSParseHelpers(t *testing.T) {
	for _, obf := range []bool{false, true} {
		script := compiledScript(jsgen.TemplateConfig{
			BeaconBase: "http://www.example.com", Decoys: 2, UAReport: true, Obfuscate: obf,
		}, 9, []uint64{1111111111, 2222222222})
		beacon := HandlerBeaconURL(script, "__bd_f")
		if !strings.Contains(beacon, "0729395160.jpg") {
			t.Fatalf("obf=%v: handler beacon = %q", obf, beacon)
		}
		exec := execBeaconURL(script)
		if !strings.Contains(exec, "/js/5556667777.gif") {
			t.Fatalf("obf=%v: exec beacon = %q", obf, exec)
		}
		all := AllBeaconURLs(script)
		if len(all) < 3 {
			t.Fatalf("obf=%v: AllBeaconURLs = %v", obf, all)
		}
		foundDecoy := false
		for _, u := range all {
			if strings.Contains(u, "1111111111.jpg") {
				foundDecoy = true
			}
		}
		if !foundDecoy {
			t.Fatalf("obf=%v: decoy URL not scraped", obf)
		}
	}
	if HandlerBeaconURL("nothing here", "__bd_f") != "" {
		t.Fatal("missing handler should yield empty URL")
	}
	if execBeaconURL("no beacons") != "" {
		t.Fatal("missing exec beacon should yield empty URL")
	}
	if decodeJSStringExpr("garbage") != "" || decodeJSStringExpr("String.fromCharCode(999999999)") != "" {
		t.Fatal("invalid expressions should decode to empty")
	}
}

func TestStripHost(t *testing.T) {
	cases := map[string]string{
		"http://www.example.com/__bd/1.jpg": "/__bd/1.jpg",
		"https://example.com":               "/",
		"/already/relative.css":             "/already/relative.css",
	}
	for in, want := range cases {
		if got := stripHost(in); got != want {
			t.Fatalf("stripHost(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAgentPickersDeterministic(t *testing.T) {
	a := PickBrowserAgent(rng.New(1))
	b := PickBrowserAgent(rng.New(1))
	if a != b {
		t.Fatal("PickBrowserAgent not deterministic for the same source")
	}
	if PickDeclaredBotAgent(rng.New(1)) == "" {
		t.Fatal("empty declared bot agent")
	}
}

func TestHumanDefaultsApplied(t *testing.T) {
	h := NewHuman(HumanConfig{IP: "10.3.0.1"})
	if h.cfg.Pages <= 0 || h.cfg.ThinkTimeMean <= 0 || h.cfg.MouseMoveProbability <= 0 {
		t.Fatalf("defaults not applied: %+v", h.cfg)
	}
	if h.UserAgent() == "" || h.IP() != "10.3.0.1" {
		t.Fatal("identity accessors broken")
	}
}

func TestRobotConfigDefaults(t *testing.T) {
	r := newRobot(KindEmailHarvester, RobotConfig{}, PickBrowserAgent)
	if cfg := r.cfg; cfg.Requests <= 0 || cfg.InterRequestMean <= 0 || cfg.Src == nil || cfg.Host == "" {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if r.delay() < 100*time.Millisecond {
		t.Fatal("delay floor not applied")
	}
}

func TestAgentsTerminate(t *testing.T) {
	tc := newTestClient(11, false)
	mkAgents := []Agent{
		NewHuman(HumanConfig{IP: "10.4.0.1", JavaScriptEnabled: true, Pages: 3, Src: rng.New(1)}),
		NewCrawler(RobotConfig{IP: "10.4.0.2", Requests: 5, Src: rng.New(2)}),
		NewEmailHarvester(RobotConfig{IP: "10.4.0.3", Requests: 5, Src: rng.New(3)}),
		NewReferrerSpammer(RobotConfig{IP: "10.4.0.4", Requests: 5, Src: rng.New(4)}),
		NewClickFraud(RobotConfig{IP: "10.4.0.5", Requests: 5, Src: rng.New(5)}),
		NewVulnScanner(RobotConfig{IP: "10.4.0.6", Requests: 5, Src: rng.New(6)}),
		NewOfflineBrowser(RobotConfig{IP: "10.4.0.7", Requests: 5, Src: rng.New(7)}),
		NewSmartBot(RobotConfig{IP: "10.4.0.8", Requests: 5, Src: rng.New(8)}),
	}
	now := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)
	for _, a := range mkAgents {
		done := false
		for i := 0; i < 200 && !done; i++ {
			var delay time.Duration
			delay, done = a.Step(tc, now)
			now = now.Add(delay)
		}
		if !done {
			t.Fatalf("agent %s did not terminate", a.Kind())
		}
	}
}

// TestScriptRenderedAfterRotationCarriesIssuedKeys: the engine renders a
// page's script when it is downloaded, from the keys the keystore drew on the
// first download and holds from then on — so a pool rotation between two
// downloads changes the obfuscation but nothing a browser (or a scraper)
// reads out of the script: the handler keeps its name and fetches the page's
// real key, every decoy is there, the exec beacon carries the script token,
// and within one epoch the body is the same bytes on every download.
func TestScriptRenderedAfterRotationCarriesIssuedKeys(t *testing.T) {
	for _, obf := range []bool{false, true} {
		det := core.New(core.Config{Seed: 17, ObfuscateJS: obf})
		const ip, ua = "10.30.0.1", "Firefox/1.5"
		fetch := func(path string) string {
			resp, ok := det.HandleBeacon(ip, ua, path)
			if !ok || resp.Status != 200 {
				t.Fatalf("obf=%v: script download: ok=%v status=%d", obf, ok, resp.Status)
			}
			defer resp.Done()
			return string(resp.Body)
		}
		var ps core.PageState
		det.Prepare(core.Verdict{}, core.AdmitFull, ip, &ps) // a client the engine has not seen
		prefix := det.Config().BeaconPrefix
		scriptToken := string(ps.Keys().AppendKey(nil, ps.Keys().ScriptToken))
		pre, suf := jsgen.ScriptPathParts(prefix)
		scriptPath := pre + scriptToken + suf
		before := fetch(scriptPath) // the download that gives the page its keys
		realBeacon := HandlerBeaconURL(before, "__bd_f")
		if !strings.HasPrefix(realBeacon, prefix+"/") || !strings.HasSuffix(realBeacon, ".jpg") {
			t.Fatalf("obf=%v: handler beacon = %q", obf, realBeacon)
		}
		issued := AllBeaconURLs(before)

		det.RotateScripts()
		script := fetch(scriptPath)
		if script == before {
			t.Fatalf("obf=%v: rotation did not change the rendered body", obf)
		}
		if again := fetch(scriptPath); again != script {
			t.Fatalf("obf=%v: two downloads within one epoch differ", obf)
		}

		if got := HandlerBeaconURL(script, "__bd_f"); got != realBeacon {
			t.Fatalf("obf=%v: handler beacon = %q, want %q", obf, got, realBeacon)
		}
		if got, want := execBeaconURL(script), prefix+"/js/"+scriptToken+".gif"; got != want {
			t.Fatalf("obf=%v: exec beacon = %q, want %q", obf, got, want)
		}
		scraped := make(map[string]bool)
		for _, u := range AllBeaconURLs(script) {
			scraped[u] = true
		}
		for _, u := range issued {
			if !scraped[u] {
				t.Fatalf("obf=%v: %s missing from the re-rendered script (scraped %v)", obf, u, scraped)
			}
		}
		if want := 2 + det.Config().Decoys; len(scraped) != want {
			t.Fatalf("obf=%v: scraped %d distinct beacon URLs, want %d: %v", obf, len(scraped), want, scraped)
		}
		if det.HandleBeacon(ip, ua, realBeacon); det.Stats().MouseBeacons != 1 {
			t.Fatalf("obf=%v: the handler's beacon did not prove an input event: %+v", obf, det.Stats())
		}
	}
}

// oldLayoutScript is a beacon script laid out the way the generator spelled
// it before PR 15 (header comment, indented bodies, blanks around '='). The
// generator no longer emits this; the readers must still understand it,
// which is what shows they read tokens rather than one layout.
const oldLayoutScript = `// dynamically generated; do not cache
var _junk = 4711;
var _ga = false;
function _decoy() {
  if (_ga == false) {
    var _ia = new Image();
    _ga = true;
    _ia.src = '/__bd/1111111111.jpg';
    return true;
  }
  return false;
}
function _mix(x) { return (x * 31) % 65537; }
var _gb = false;
function __bd_f() {
  if (_gb == false) {
    var _ib = new Image();
    _gb = true;
    _ib.src = String.fromCharCode(47,95,95,98,100,47,48,55,50,57,51,57,53,49,54,48,46,106,112,103);
    return true;
  }
  return false;
}
var _ie = new Image();
_ie.src = '/__bd/js/5556667777.gif' + '?ua=' + encodeURIComponent(navigator.userAgent.toLowerCase().replace(/ /g, ''));
`

// TestScriptReadersFollowTokensNotLayout: for every compiled variant the
// three readers recover exactly what the script would fetch — the real
// beacon from the handler, the exec beacon, and all m+2 assigned URLs — and
// a script in the old layout parses just the same.
func TestScriptReadersFollowTokensNotLayout(t *testing.T) {
	decoys := []string{"1111111111", "2222222222", "3333333333", "4444444444"}
	for seed := uint64(1); seed <= 50; seed++ {
		for _, obf := range []bool{false, true} {
			script := compiledScript(jsgen.TemplateConfig{Decoys: 4, UAReport: true, Obfuscate: obf}, seed,
				[]uint64{1111111111, 2222222222, 3333333333, 4444444444})
			if got := HandlerBeaconURL(script, "__bd_f"); got != "/__bd/0729395160.jpg" {
				t.Fatalf("seed %d obf=%v: handler beacon = %q", seed, obf, got)
			}
			if got := execBeaconURL(script); got != "/__bd/js/5556667777.gif" {
				t.Fatalf("seed %d obf=%v: exec beacon = %q", seed, obf, got)
			}
			want := map[string]bool{"/__bd/0729395160.jpg": true, "/__bd/js/5556667777.gif": true}
			for _, d := range decoys {
				want["/__bd/"+d+".jpg"] = true
			}
			all := AllBeaconURLs(script)
			if len(all) != len(want) {
				t.Fatalf("seed %d obf=%v: scraped %d URLs, want %d: %v", seed, obf, len(all), len(want), all)
			}
			for _, u := range all {
				if !want[u] {
					t.Fatalf("seed %d obf=%v: scraped %q, which the script never fetches", seed, obf, u)
				}
				delete(want, u)
			}
		}
	}

	if got := HandlerBeaconURL(oldLayoutScript, "__bd_f"); got != "/__bd/0729395160.jpg" {
		t.Fatalf("old layout: handler beacon = %q", got)
	}
	if got := execBeaconURL(oldLayoutScript); got != "/__bd/js/5556667777.gif" {
		t.Fatalf("old layout: exec beacon = %q", got)
	}
	all := AllBeaconURLs(oldLayoutScript)
	wantAll := []string{"/__bd/1111111111.jpg", "/__bd/0729395160.jpg", "/__bd/js/5556667777.gif"}
	if strings.Join(all, " ") != strings.Join(wantAll, " ") {
		t.Fatalf("old layout: scraped %v, want %v", all, wantAll)
	}
	// Neither a comparison nor a longer property name is an assignment.
	if got := AllBeaconURLs("if(a.src=='x'){b.srcset='y';}c.src\t=\n'z'"); len(got) != 1 || got[0] != "z" {
		t.Fatalf("non-assignments scraped: %q", got)
	}
}
