package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/detect"
	"botdetect/internal/htmlmod"
	"botdetect/internal/jsgen"
	"botdetect/internal/logfmt"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

func newTestEngine(cfg Config) (*Engine, *clock.Virtual) {
	vc := clock.NewVirtual(time.Time{})
	cfg.Clock = vc
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return New(cfg), vc
}

func pageHTML() []byte {
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 5, NumPages: 10})
	return site.Lookup("/").Body
}

func observe(d *Engine, ip, ua, method, path string, status int, ref string, at time.Time) session.Snapshot {
	d.ObserveRequestQuiet(logfmt.Entry{
		Time: at, ClientIP: ip, UserAgent: ua, Method: method, Path: path,
		Status: status, Referer: ref, Bytes: 1024,
	})
	snap, _ := d.Session(session.Key{IP: ip, UserAgent: ua})
	return snap
}

func TestInstrumentPageInjectsEverything(t *testing.T) {
	d, _ := newTestEngine(Config{ObfuscateJS: true})
	html := pageHTML()
	out, inst := instrumentPage(d, "10.0.0.1", "Firefox", html)
	body := string(out)
	if !strings.Contains(body, inst.CSSPath) {
		t.Fatal("CSS beacon path not present in rewritten page")
	}
	if !strings.Contains(body, inst.ScriptPath) {
		t.Fatal("script path not present in rewritten page")
	}
	if !strings.Contains(body, inst.HiddenPath) {
		t.Fatal("hidden link not present in rewritten page")
	}
	if !strings.Contains(body, "onmousemove=") {
		t.Fatal("mouse handler attribute missing")
	}
	if inst.AddedBytes <= 0 || len(out) <= len(html) {
		t.Fatal("instrumentation did not grow the page")
	}
	if len(inst.Issued.Decoys) != d.Config().Decoys {
		t.Fatalf("decoys = %d", len(inst.Issued.Decoys))
	}
	st := d.Stats()
	if st.PagesInstrumented != 1 || st.OriginalBytes != int64(len(html)) || st.AddedBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The structural extraction must see the instrumentation as a browser would.
	sum := htmlmod.Extract(out)
	if !sum.BodyMouseHandler {
		t.Fatal("rewritten page lacks body mouse handler")
	}
	if len(sum.HiddenLinks) != 1 {
		t.Fatalf("hidden links = %v", sum.HiddenLinks)
	}
}

func TestBeaconServesScriptAndMarksSignals(t *testing.T) {
	d, _ := newTestEngine(Config{ObfuscateJS: false})
	ip, ua := "10.0.0.2", "Firefox"
	_, inst := instrumentPage(d, ip, ua, pageHTML())

	// Script download.
	resp, ok := d.HandleBeacon(ip, ua, inst.ScriptPath)
	if !ok || resp.Status != 200 || resp.ContentType != "application/javascript" || !resp.NoCache {
		t.Fatalf("script response = %+v, %v", resp, ok)
	}
	if !strings.Contains(string(resp.Body), inst.Issued.Key) {
		t.Fatal("served script does not contain the issued key (unobfuscated mode)")
	}
	// CSS beacon.
	resp, ok = d.HandleBeacon(ip, ua, inst.CSSPath)
	if !ok || resp.ContentType != "text/css" {
		t.Fatalf("css response = %+v", resp)
	}
	// Mouse beacon with the real key.
	resp, ok = d.HandleBeacon(ip, ua, d.Config().BeaconPrefix+"/"+inst.Issued.Key+".jpg")
	if !ok || resp.ContentType != "image/jpeg" {
		t.Fatalf("mouse beacon response = %+v", resp)
	}

	snap, found := d.Session(session.Key{IP: ip, UserAgent: ua})
	if !found {
		t.Fatal("session not tracked")
	}
	if !snap.Signals.Has(session.SignalJSFile) || !snap.Signals.Has(session.SignalCSS) || !snap.Signals.Has(session.SignalMouse) {
		t.Fatalf("signals = %v", snap.Signals)
	}
	st := d.Stats()
	// Two script serves: the one above and the one that taught inst its key.
	if st.ScriptServes != 2 || st.CSSBeacons != 1 || st.MouseBeacons != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBeaconDecoyAndReplayAndUnknown(t *testing.T) {
	d, _ := newTestEngine(Config{})
	ip, ua := "10.0.0.3", "BadBot"
	_, inst := instrumentPage(d, ip, ua, pageHTML())
	prefix := d.Config().BeaconPrefix

	// Decoy fetch.
	d.HandleBeacon(ip, ua, prefix+"/"+inst.Issued.Decoys[0]+".jpg")
	// Real key, twice: second is a replay.
	d.HandleBeacon(ip, ua, prefix+"/"+inst.Issued.Key+".jpg")
	d.HandleBeacon(ip, ua, prefix+"/"+inst.Issued.Key+".jpg")
	// Guessed key.
	d.HandleBeacon(ip, ua, prefix+"/0000000000.jpg")

	snap, _ := d.Session(session.Key{IP: ip, UserAgent: ua})
	if !snap.Signals.Has(session.SignalDecoy) || !snap.Signals.Has(session.SignalReplay) || !snap.Signals.Has(session.SignalMouse) {
		t.Fatalf("signals = %v", snap.Signals)
	}
	st := d.Stats()
	if st.DecoyBeacons != 1 || st.ReplayBeacons != 1 || st.MouseBeacons != 1 || st.UnknownBeacons != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Direct robot evidence outranks the mouse signal: a client that fetched
	// decoy URLs is automation even if it also hit the real key (blind
	// fetchers grab every URL in the script).
	v := d.classify(&snap)
	if v.Class != ClassRobot || v.Confidence != Definite {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestExecBeaconAndUAMismatch(t *testing.T) {
	d, _ := newTestEngine(Config{})
	ip := "10.0.0.4"
	headerUA := "Mozilla/5.0 (Windows NT 5.1) Firefox/1.5"
	_, inst := instrumentPage(d, ip, headerUA, pageHTML())
	prefix := d.Config().BeaconPrefix

	// Exec beacon reporting an agent matching the header.
	reported := strings.ReplaceAll(strings.ToLower(headerUA), " ", "")
	path := prefix + "/js/" + inst.Issued.ScriptToken + ".gif?ua=" + reported
	if _, ok := d.HandleBeacon(ip, headerUA, path); !ok {
		t.Fatal("exec beacon not handled")
	}
	snap, _ := d.Session(session.Key{IP: ip, UserAgent: headerUA})
	if !snap.Signals.Has(session.SignalJS) {
		t.Fatal("JS signal not set")
	}
	if snap.Signals.Has(session.SignalUAMismatch) {
		t.Fatal("matching agent flagged as mismatch")
	}

	// A second client forges the header User-Agent: the script reports the
	// truth and the mismatch is detected.
	ip2 := "10.0.0.5"
	forgedHeader := "Googlebot/2.1"
	_, inst2 := instrumentPage(d, ip2, forgedHeader, pageHTML())
	real := "mozilla/5.0(windowsnt5.1)firefox/1.5"
	d.HandleBeacon(ip2, forgedHeader, prefix+"/js/"+inst2.Issued.ScriptToken+".gif?ua="+real)
	snap2, _ := d.Session(session.Key{IP: ip2, UserAgent: forgedHeader})
	if !snap2.Signals.Has(session.SignalUAMismatch) {
		t.Fatal("forged User-Agent not detected")
	}
	if d.Stats().UAMismatches != 1 {
		t.Fatalf("UAMismatches = %d", d.Stats().UAMismatches)
	}
}

func TestUAReportViaStylesheetPath(t *testing.T) {
	d, _ := newTestEngine(Config{})
	ip, ua := "10.0.0.6", "Opera/9.0"
	_, inst := instrumentPage(d, ip, ua, pageHTML())
	prefix := d.Config().BeaconPrefix
	path := prefix + "/ua/" + inst.Issued.ScriptToken + "/opera%2f9.0.css"
	resp, ok := d.HandleBeacon(ip, ua, path)
	if !ok || resp.ContentType != "text/css" {
		t.Fatalf("ua-report response = %+v", resp)
	}
	snap, _ := d.Session(session.Key{IP: ip, UserAgent: ua})
	if !snap.Signals.Has(session.SignalJS) {
		t.Fatal("ua-report should imply JS execution")
	}
	if snap.Signals.Has(session.SignalUAMismatch) {
		t.Fatal("matching agent flagged as mismatch")
	}
	if d.Stats().UAReports != 1 {
		t.Fatalf("UAReports = %d", d.Stats().UAReports)
	}
}

func TestHiddenLinkBeacon(t *testing.T) {
	d, _ := newTestEngine(Config{})
	ip, ua := "10.0.0.7", "Crawler"
	_, inst := instrumentPage(d, ip, ua, pageHTML())
	resp, ok := d.HandleBeacon(ip, ua, inst.HiddenPath)
	if !ok || resp.Status != 200 {
		t.Fatalf("hidden response = %+v", resp)
	}
	snap, _ := d.Session(session.Key{IP: ip, UserAgent: ua})
	if !snap.Signals.Has(session.SignalHidden) {
		t.Fatal("hidden-link signal not set")
	}
	v := d.classify(&snap)
	if v.Class != ClassRobot || v.Confidence != Definite {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestTransparentImageAndUnknownPath(t *testing.T) {
	d, _ := newTestEngine(Config{})
	prefix := d.Config().BeaconPrefix
	resp, ok := d.HandleBeacon("1.2.3.4", "UA", prefix+"/transp_1x1.gif")
	if !ok || resp.ContentType != "image/gif" {
		t.Fatalf("transparent image response = %+v", resp)
	}
	resp, ok = d.HandleBeacon("1.2.3.4", "UA", prefix+"/whatever.bin")
	if !ok || resp.Status != 404 {
		t.Fatalf("unknown instrumentation path response = %+v", resp)
	}
	if _, ok := d.HandleBeacon("1.2.3.4", "UA", "/ordinary/page.html"); ok {
		t.Fatal("ordinary path must not be handled as a beacon")
	}
}

// TestIsInstrumentationPath: everything under the reserved prefix is the
// engine's to answer (HandleBeacon's ok), with or without a query; nothing
// else is, however close its spelling.
func TestIsInstrumentationPath(t *testing.T) {
	d, _ := newTestEngine(Config{})
	for path, want := range map[string]bool{
		"/__bd/123.css": true, "/__bd/js/1.gif?ua=x": true, "/__bd/nothing-we-emit": true,
		"/index.html": false, "/__bdx/1.css": false, "/__bd": false,
	} {
		if _, ok := d.HandleBeacon("1.2.3.4", "UA", path); ok != want {
			t.Errorf("HandleBeacon(%q): ok = %v, want %v", path, ok, want)
		}
	}
}

// TestObjectSignalMatchesHandleBeacon holds the offline table to the live
// path: a fresh session that requests one object of each kind ends with
// exactly the signal ObjectSignal names for it (the beacon's key is live and
// unconsumed, the case the table takes at face value), or with none.
func TestObjectSignalMatchesHandleBeacon(t *testing.T) {
	d, _ := newTestEngine(Config{})
	prefix := d.Config().BeaconPrefix
	const ua = "Firefox/1.5"
	for obj := jsgen.ObjectNone; obj <= jsgen.ObjectCSS; obj++ {
		ip := fmt.Sprintf("10.77.0.%d", obj)
		key := session.Key{IP: ip, UserAgent: ua}
		observe(d, ip, ua, "GET", "/", 200, "", time.Time{})
		var ps PageState
		prepareFor(d, AdmitFull, ip, ua, &ps)
		pk := ps.Keys()
		scriptToken := wire(pk, pk.ScriptToken)
		var path string
		switch obj {
		case jsgen.ObjectNone:
			path = prefix + "/whatever.bin"
		case jsgen.ObjectBeacon:
			// Drawn straight from the keystore: downloading the script to
			// learn the key would mark SignalJSFile as well.
			k, _, _ := d.keys.PageKeysFor(ip, ps.Keys().ScriptToken, nil)
			path = objectPath(jsgen.BeaconPathParts, prefix, wire(pk, k))
		case jsgen.ObjectExecBeacon:
			path = objectPath(jsgen.ExecBeaconPathParts, prefix, scriptToken)
		case jsgen.ObjectUAReport:
			path = prefix + "/ua/" + scriptToken + "/" + session.NormalizeUA(ua) + ".css"
		case jsgen.ObjectHidden:
			path = objectPath(jsgen.HiddenPathParts, prefix, wire(pk, pk.HiddenToken))
		case jsgen.ObjectTransparentImage:
			path = jsgen.TransparentImagePath(prefix)
		case jsgen.ObjectScript:
			path = objectPath(jsgen.ScriptPathParts, prefix, scriptToken)
		case jsgen.ObjectCSS:
			path = objectPath(jsgen.CSSPathParts, prefix, wire(pk, pk.CSSToken))
		}
		if got, _, _, _ := jsgen.ParsePath(prefix, path); got != obj {
			t.Fatalf("%s parses to object %d, want %d", path, got, obj)
		}
		resp, _ := d.HandleBeacon(ip, ua, path)
		resp.Done()
		snap, _ := d.Session(key)
		sig, marks := ObjectSignal[obj]
		if marks && (!snap.Signals.Has(sig) || snap.Signals.Count() != 1) || !marks && snap.Signals.Any() {
			t.Errorf("object %d (%s): signals %v; ObjectSignal says %v (marks: %v)", obj, path, snap.Signals, sig, marks)
		}
	}
}

func TestScriptFallbackWhenEvicted(t *testing.T) {
	d, _ := newTestEngine(Config{})
	ip, ua := "10.0.0.8", "UA"
	var paths []string
	// One more page view than the keystore keeps batches per client (64): the
	// earliest page's keys are evicted, and its script goes with them.
	for i := 0; i < 65; i++ {
		_, inst := instrumentPage(d, ip, ua, pageHTML())
		paths = append(paths, inst.ScriptPath)
	}
	// The detector still serves a harmless fallback body and records the
	// download signal.
	resp, ok := d.HandleBeacon(ip, ua, paths[0])
	if !ok || resp.Status != 200 || string(resp.Body) != string(fallbackJS) {
		t.Fatalf("fallback script response = %+v", resp)
	}
	// 65 downloads while each page was fresh, then the one that fell back.
	if st := d.Stats(); st.ScriptExpired != 1 || st.ScriptServes != 66 {
		t.Fatalf("ScriptExpired/ScriptServes = %d/%d, want 1/66", st.ScriptExpired, st.ScriptServes)
	}
	// The most recent one is still the real generated script.
	resp, _ = d.HandleBeacon(ip, ua, paths[64])
	if !strings.Contains(string(resp.Body), "function __bd_f()") {
		t.Fatal("recent script should be the generated handler script")
	}
}

func TestClassificationLifecycleHumanWithJS(t *testing.T) {
	d, vc := newTestEngine(Config{MinRequests: 10})
	ip, ua := "10.1.0.1", "Firefox"
	key := session.Key{IP: ip, UserAgent: ua}
	now := vc.Now()

	// First page: before any signals, the verdict is undecided.
	observe(d, ip, ua, "GET", "/", 200, "", now)
	if v := readVerdict(d, key); v.Class != ClassUndecided {
		t.Fatalf("verdict after 1 request = %+v", v)
	}
	_, inst := instrumentPage(d, ip, ua, pageHTML())
	d.HandleBeacon(ip, ua, inst.CSSPath)
	d.HandleBeacon(ip, ua, inst.ScriptPath)
	d.HandleBeacon(ip, ua, d.Config().BeaconPrefix+"/js/"+inst.Issued.ScriptToken+".gif?ua="+session.NormalizeUA(ua))
	// Human moves the mouse: the real key arrives.
	d.HandleBeacon(ip, ua, d.Config().BeaconPrefix+"/"+inst.Issued.Key+".jpg")
	v := readVerdict(d, key)
	if v.Class != ClassHuman || v.Confidence != Definite {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestClassificationRobotRunningJSWithoutMouse(t *testing.T) {
	d, vc := newTestEngine(Config{MinRequests: 10})
	ip, ua := "10.1.0.2", "SmartBot"
	key := session.Key{IP: ip, UserAgent: ua}
	now := vc.Now()
	_, inst := instrumentPage(d, ip, ua, pageHTML())
	d.HandleBeacon(ip, ua, d.Config().BeaconPrefix+"/js/"+inst.Issued.ScriptToken+".gif?ua="+session.NormalizeUA(ua))
	for i := 0; i < 12; i++ {
		observe(d, ip, ua, "GET", fmt.Sprintf("/p%d.html", i), 200, "", now)
	}
	v := readVerdict(d, key)
	if v.Class != ClassRobot || v.Confidence != detect.Probable {
		t.Fatalf("verdict = %+v", v)
	}
	if v.Rule != detect.RuleJSWithoutInput || !strings.Contains(v.Reason(), "no input events") {
		t.Fatalf("rule %s, reason %q", v.Rule.Name(), v.Reason())
	}
}

func TestClassificationHumanCSSOnlyNoJS(t *testing.T) {
	// A JavaScript-disabled human: fetches CSS, never runs the script.
	d, vc := newTestEngine(Config{MinRequests: 10})
	ip, ua := "10.1.0.3", "Firefox-NoJS"
	key := session.Key{IP: ip, UserAgent: ua}
	now := vc.Now()
	_, inst := instrumentPage(d, ip, ua, pageHTML())
	d.HandleBeacon(ip, ua, inst.CSSPath)
	for i := 0; i < 11; i++ {
		observe(d, ip, ua, "GET", fmt.Sprintf("/p%d.html", i), 200, "", now)
	}
	v := readVerdict(d, key)
	if v.Class != ClassHuman || v.Confidence != detect.Probable {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestClassificationRobotIgnoresPresentation(t *testing.T) {
	d, vc := newTestEngine(Config{MinRequests: 10})
	ip, ua := "10.1.0.4", "EmailHarvester"
	key := session.Key{IP: ip, UserAgent: ua}
	now := vc.Now()
	for i := 0; i < 15; i++ {
		observe(d, ip, ua, "GET", fmt.Sprintf("/p%d.html", i), 200, "", now)
	}
	v := readVerdict(d, key)
	if v.Class != ClassRobot {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestClassificationCaptcha(t *testing.T) {
	d, _ := newTestEngine(Config{})
	key := session.Key{IP: "10.1.0.5", UserAgent: "NoScriptBrowser"}
	d.MarkCaptchaPassed(key)
	v := readVerdict(d, key)
	if v.Class != ClassHuman || v.Confidence != Definite {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestClassifyUnknownSession(t *testing.T) {
	d, _ := newTestEngine(Config{})
	v := readVerdict(d, session.Key{IP: "none", UserAgent: "none"})
	if v.Class != ClassUndecided {
		t.Fatalf("verdict = %+v", v)
	}
}

// sweepAll makes one full pass of SweepStep over the engine's shards and
// returns the number of sessions it ended.
func sweepAll(e *Engine, now time.Time) int {
	n := 0
	for range e.ShardCount() {
		n += e.SweepStep(now)
	}
	return n
}

func TestOnSessionEndCallback(t *testing.T) {
	var ended []ClassifiedSession
	vc := clock.NewVirtual(time.Time{})
	d := New(Config{Seed: 3, Clock: vc, OnSessionEnd: func(cs ClassifiedSession) { ended = append(ended, cs) }})
	ip, ua := "10.1.0.6", "Firefox"
	now := vc.Now()
	_, inst := instrumentPage(d, ip, ua, pageHTML())
	observe(d, ip, ua, "GET", "/", 200, "", now)
	d.HandleBeacon(ip, ua, d.Config().BeaconPrefix+"/"+inst.Issued.Key+".jpg")
	vc.Advance(2 * time.Hour)
	if n := sweepAll(d, vc.Now()); n != 1 {
		t.Fatalf("swept %d sessions, want 1", n)
	}
	if len(ended) != 1 || ended[0].Verdict.Class != ClassHuman {
		t.Fatalf("ended = %+v", ended)
	}
	if d.SessionCount() != 0 {
		t.Fatal("session still active after expiry")
	}
}

func TestFlushSessions(t *testing.T) {
	d, vc := newTestEngine(Config{})
	now := vc.Now()
	for i := 0; i < 3; i++ {
		observe(d, fmt.Sprintf("10.2.0.%d", i), "UA", "GET", "/", 200, "", now)
	}
	out := d.FlushSessions()
	if len(out) != 3 {
		t.Fatalf("FlushSessions = %d", len(out))
	}
	if d.SessionCount() != 0 {
		t.Fatal("sessions remain")
	}
}

func TestVerdictAndEnumStrings(t *testing.T) {
	v := Verdict{Class: ClassRobot, Confidence: Definite, Rule: detect.RuleHidden, AtRequest: 7}
	s := v.String()
	if !strings.Contains(s, "robot") || !strings.Contains(s, "definite") || !strings.Contains(s, "7") || !strings.Contains(s, "invisible") {
		t.Fatalf("Verdict.String = %q", s)
	}
	if ClassHuman.String() != "human" || ClassUndecided.String() != "undecided" || detect.Class(9).String() != "undecided" {
		t.Fatal("Class names wrong")
	}
	if detect.Tentative.String() != "tentative" || detect.Probable.String() != "probable" || Definite.String() != "definite" {
		t.Fatal("Confidence names wrong")
	}
}

func TestQueryParam(t *testing.T) {
	if queryParam("ua=abc&x=1", "ua") != "abc" {
		t.Fatal("queryParam simple")
	}
	if queryParam("x=1&ua=abc", "ua") != "abc" {
		t.Fatal("queryParam second")
	}
	if queryParam("x=1", "ua") != "" {
		t.Fatal("queryParam missing")
	}
	if queryParam("", "ua") != "" {
		t.Fatal("queryParam empty")
	}
	if queryParam("ua", "ua") != "" {
		t.Fatal("queryParam no value")
	}
}

// FuzzQueryParam: on any query string and any name, queryParam never panics
// and returns what a split on '&' finds, the raw value of the first pair that
// reads name=, or "" when no pair does.
func FuzzQueryParam(f *testing.F) {
	for _, seed := range [][2]string{
		{"ua=abc&x=1", "ua"}, {"x=1&ua=abc", "ua"}, {"ua", "ua"}, {"", "ua"}, {"ua=1&ua=2", "ua"},
		{"&&ua=&", "ua"}, {"=x&ua==y", ""}, {"a=b=c", "a"}, {"ua=%41%zz+b", "ua"}, {"u=a&ua", "u=a"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, query, name string) {
		want := ""
		for _, pair := range strings.Split(query, "&") {
			if k, v, ok := strings.Cut(pair, "="); ok && k == name {
				want = v
				break
			}
		}
		if got := queryParam(query, name); got != want {
			t.Fatalf("queryParam(%q, %q) = %q, want %q", query, name, got, want)
		}
	})
}

// stubFleet is a replication layer of nodes a, b and c, holding one peer
// verdict per key and recording what the engine exports.
type stubFleet struct {
	peer     map[session.Key]Verdict
	exported []Verdict
}

var stubMembers = []string{"a", "b", "c"}

func (f *stubFleet) Members() []string { return stubMembers }

func (f *stubFleet) ExportVerdict(_ session.Key, v Verdict) { f.exported = append(f.exported, v) }

func (f *stubFleet) PeerVerdict(k session.Key) (Verdict, bool) {
	v, ok := f.peer[k]
	return v, ok
}

// TestFleetStage: with no fleet attached the remote stage abstains; attached,
// a peer's verdict outranks the local statistical guess but not direct
// evidence, and only locally derived Definite verdicts are exported — a
// peer's is never echoed back.
func TestFleetStage(t *testing.T) {
	e, vc := newTestEngine(Config{})
	k := session.Key{IP: "10.0.0.1", UserAgent: "UA"}
	observe(e, k.IP, k.UserAgent, "GET", "/", 200, "", vc.Now())
	if v := readVerdict(e, k); v.Origin != "" {
		t.Fatalf("no fleet attached, yet the session is judged by %s: %+v", v.Origin, v)
	}
	peer := Verdict{Class: ClassRobot, Confidence: Definite, Rule: detect.RuleHidden, AtRequest: 4, Origin: "b"}
	f := &stubFleet{peer: map[session.Key]Verdict{k: peer}}
	e.SetFleet(f)
	e.ApplyRemoteVerdict(k)
	if v := readVerdict(e, k); v != peer {
		t.Fatalf("attached fleet's verdict not served: %+v", v)
	}
	if v := readVerdict(e, k); v != peer || e.tel.ClassifyCacheHits.Value() == 0 {
		t.Fatalf("the stored peer verdict came back as %+v (%d hits)", v, e.tel.ClassifyCacheHits.Value())
	}
	if len(f.exported) != 0 {
		t.Fatalf("a peer's verdict was exported back: %+v", f.exported)
	}
	e.MarkCaptchaPassed(k)
	if v := readVerdict(e, k); v.Class != ClassHuman || v.Origin != "" {
		t.Fatalf("direct evidence lost to the peer's verdict: %+v", v)
	}
	if len(f.exported) != 1 || f.exported[0].Class != ClassHuman {
		t.Fatalf("exported %+v, want the one local human verdict", f.exported)
	}
}

// TestRemoteRowRefusesMalformedPeerVerdicts: a replicated verdict is another
// node's input. One whose row is unknown, is the remote row itself, or
// whose class or confidence disagree with its row, or one that names no
// origin, is refused as if no peer held a verdict: the local rows decide.
func TestRemoteRowRefusesMalformedPeerVerdicts(t *testing.T) {
	e, vc := newTestEngine(Config{})
	k := session.Key{IP: "10.0.0.2", UserAgent: "UA"}
	observe(e, k.IP, k.UserAgent, "GET", "/", 200, "", vc.Now())
	f := &stubFleet{peer: map[session.Key]Verdict{}}
	e.SetFleet(f)
	for _, bad := range []Verdict{
		{Class: ClassRobot, Confidence: Definite, Rule: 200, Origin: "b"},
		{Class: ClassRobot, Confidence: Definite, Rule: detect.Rule(detect.RuleNoPresentation + 1), Origin: "b"},
		{Class: ClassRobot, Confidence: Definite, Origin: "b"},
		{Class: ClassRobot, Confidence: Definite, Rule: detect.RuleRemote, Origin: "b"},
		{Class: ClassHuman, Confidence: Definite, Rule: detect.RuleDecoy, Origin: "b"},
		{Class: ClassRobot, Confidence: detect.Probable, Rule: detect.RuleDecoy, Origin: "b"},
		{Class: ClassRobot, Confidence: Definite, Rule: detect.RuleDecoy},
	} {
		f.peer[k] = bad
		e.ApplyRemoteVerdict(k)
		if v := readVerdict(e, k); v.Rule != detect.RuleBelowThreshold || v.Origin != "" {
			t.Errorf("peer verdict %+v: served %+v, want the local below-threshold row", bad, v)
		}
	}
}

// TestStoredVerdictRoundTripAndRefusal pins the stored verdict's encoding: a
// verdict comes back exactly, under its own model epoch only, a replicated
// one with its origin; and what the record cannot hold — no row, an
// AtRequest wider than its slot, an origin outside the fleet — is refused,
// not truncated.
func TestStoredVerdictRoundTripAndRefusal(t *testing.T) {
	e, _ := newTestEngine(Config{})
	e.SetFleet(&stubFleet{})
	for _, v := range []Verdict{
		{Class: ClassRobot, Confidence: Definite, Rule: detect.RuleHidden, AtRequest: 12, Origin: "c"},
		{Class: ClassHuman, Confidence: detect.Probable, Rule: detect.RuleCSS, AtRequest: math.MaxUint32},
		{Class: ClassUndecided, Confidence: detect.Tentative, Rule: detect.RuleBelowThreshold},
	} {
		sv, ok := e.storeVerdict(v, 7)
		if !ok {
			t.Fatalf("store(%+v) refused", v)
		}
		if got, ok := e.loadVerdict(sv, 7); !ok || got != v {
			t.Fatalf("load = %+v, %v; want %+v", got, ok, v)
		}
		if _, ok := e.loadVerdict(sv, 8); ok {
			t.Fatal("a verdict was served under another model epoch")
		}
	}
	for _, bad := range []Verdict{
		{}, {Rule: 200}, {Rule: detect.RuleCSS, AtRequest: -1}, {Rule: detect.RuleCSS, AtRequest: math.MaxUint32 + 1},
		{Rule: detect.RuleDecoy, Origin: "stranger"},
	} {
		if sv, ok := e.storeVerdict(bad, 0); ok {
			t.Errorf("store(%+v) = %+v, want refused", bad, sv)
		}
	}
	sv, _ := e.storeVerdict(Verdict{Class: ClassRobot, Confidence: Definite, Rule: detect.RuleDecoy, Origin: "c"}, 0)
	e.SetFleet(nil)
	if v, ok := e.loadVerdict(sv, 0); ok {
		t.Fatalf("a replicated verdict outlived its fleet: %+v", v)
	}
}
