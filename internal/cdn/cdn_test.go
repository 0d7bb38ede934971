package cdn

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/captcha"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/htmlmod"
	"botdetect/internal/jsgen"
	"botdetect/internal/policy"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

func testNode(t *testing.T, withPolicy bool) (*Node, *clock.Virtual) {
	t.Helper()
	vc := clock.NewVirtual(time.Time{})
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 1, NumPages: 20})
	det := core.New(core.Config{Seed: 2, Clock: vc, ObfuscateJS: true})
	var pol *policy.Engine
	if withPolicy {
		pol = policy.NewEngine(policy.Config{Clock: vc})
	}
	n := NewNode(NodeConfig{
		Name: "codeen-test", Site: site, Engine: det, Policy: pol,
		Captcha: captcha.NewService(captcha.Config{Seed: 3, Clock: vc}),
	})
	n.SetRecording(true)
	return n, vc
}

func TestNodeServesAndInstruments(t *testing.T) {
	n, vc := testNode(t, false)
	resp := n.Do(agents.Request{Time: vc.Now(), IP: "10.0.0.1", UserAgent: "Firefox", Method: "GET", Path: "/"})
	if resp.Status != 200 || !strings.Contains(resp.ContentType, "text/html") {
		t.Fatalf("response = %+v", resp)
	}
	if !strings.Contains(string(resp.Body), "/__bd/") {
		t.Fatal("page not instrumented")
	}
	if n.Stats().Requests != 1 || n.Stats().OriginBytes == 0 {
		t.Fatalf("stats = %+v", n.Stats())
	}
	if len(n.Entries()) != 1 {
		t.Fatalf("entries = %d", len(n.Entries()))
	}
	if n.Name() != "codeen-test" || n.Engine() == nil {
		t.Fatal("accessors broken")
	}
}

// TestInstrumentableAnyLetterCase: the node instruments a page by the
// tracker's own HTML test, a content type beginning with text/html in any
// letter case, as the live proxy does.
func TestInstrumentableAnyLetterCase(t *testing.T) {
	for _, c := range []struct {
		obj    webmodel.Object
		method string
		want   bool
	}{
		{webmodel.Object{Status: 200, ContentType: "Text/HTML; charset=UTF-8"}, "GET", true},
		{webmodel.Object{Status: 200, ContentType: "text/html"}, "GET", true},
		{webmodel.Object{Status: 200, ContentType: "text/html"}, "HEAD", false},
		{webmodel.Object{Status: 404, ContentType: "text/html"}, "GET", false},
		{webmodel.Object{Status: 200, ContentType: "text/css"}, "GET", false},
		{webmodel.Object{Status: 200, ContentType: "application/xhtml+xml, text/html"}, "GET", false},
	} {
		if got := instrumentable(c.obj, c.method); got != c.want {
			t.Errorf("instrumentable(%d %q, %s) = %v, want %v", c.obj.Status, c.obj.ContentType, c.method, got, c.want)
		}
	}
}

func TestNodeBeaconHandling(t *testing.T) {
	n, vc := testNode(t, false)
	page := n.Do(agents.Request{Time: vc.Now(), IP: "10.0.0.2", UserAgent: "Firefox", Method: "GET", Path: "/"})
	// Find the injected CSS path in the page and fetch it.
	body := string(page.Body)
	idx := strings.Index(body, "/__bd/")
	end := strings.Index(body[idx:], ".css")
	cssPath := body[idx : idx+end+4]
	resp := n.Do(agents.Request{Time: vc.Now(), IP: "10.0.0.2", UserAgent: "Firefox", Method: "GET", Path: cssPath})
	if resp.Status != 200 || resp.ContentType != "text/css" {
		t.Fatalf("css beacon response = %+v", resp)
	}
	if n.Stats().InstrumentationHits != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
	snap, _ := n.Engine().Session(session.Key{IP: "10.0.0.2", UserAgent: "Firefox"})
	if !snap.Signals.Has(session.SignalCSS) {
		t.Fatal("CSS signal not recorded")
	}
}

func TestNodeCaptchaSolvePath(t *testing.T) {
	n, vc := testNode(t, false)
	resp := n.Do(agents.Request{Time: vc.Now(), IP: "10.0.0.3", UserAgent: "Firefox", Method: "GET", Path: agents.CaptchaSolvePath})
	if resp.Status != 200 {
		t.Fatalf("captcha solve status = %d", resp.Status)
	}
	if n.Stats().CaptchaSolved != 1 {
		t.Fatalf("stats = %+v", n.Stats())
	}
	snap, _ := n.Engine().Session(session.Key{IP: "10.0.0.3", UserAgent: "Firefox"})
	if !snap.Signals.Has(session.SignalCaptcha) {
		t.Fatal("captcha signal not recorded")
	}
}

func TestNodePolicyBlocksAbusiveRobot(t *testing.T) {
	n, vc := testNode(t, true)
	ip, ua := "10.0.0.4", "Firefox"
	blocked := 0
	for i := 0; i < 80; i++ {
		resp := n.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: ua, Method: "GET",
			Path: "/cgi-bin/app0.cgi?click=" + string(rune('a'+i%26))})
		vc.Advance(100 * time.Millisecond)
		if resp.Status == 403 {
			blocked++
		}
	}
	if blocked == 0 {
		t.Fatalf("abusive robot never blocked; stats=%+v", n.Stats())
	}
	if n.Stats().BlockedRequests == 0 {
		t.Fatal("blocked counter not incremented")
	}
}

func TestNewNodePanicsWithoutDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewNode(NodeConfig{})
}

func TestNetworkRoutingStableAndComplete(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 5, NumPages: 10})
	net := NewNetwork(5, site, core.Config{Clock: vc}, false, 7)
	if len(net.Nodes()) != 5 {
		t.Fatalf("nodes = %d", len(net.Nodes()))
	}
	a := net.NodeFor("10.1.2.3")
	b := net.NodeFor("10.1.2.3")
	if a != b {
		t.Fatal("client not pinned to one node")
	}
	// Different IPs spread over multiple nodes.
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[net.NodeFor(string(rune('a'+i%26))+"."+string(rune('0'+i%10))).Name()] = true
	}
	if len(seen) < 2 {
		t.Fatal("hashing does not spread clients across nodes")
	}
	// Do routes to the pinned node and still works end to end.
	resp := net.Do(agents.Request{Time: vc.Now(), IP: "10.1.2.3", UserAgent: "UA", Method: "GET", Path: "/"})
	if resp.Status != 200 {
		t.Fatalf("network Do status = %d", resp.Status)
	}
	if net.TotalStats().Requests != 1 {
		t.Fatalf("total stats = %+v", net.TotalStats())
	}
}

func TestNetworkFlushAndEngineStats(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 9, NumPages: 10})
	net := NewNetwork(3, site, core.Config{Clock: vc}, false, 11)
	for i := 0; i < 30; i++ {
		ip := "10.9.0." + string(rune('0'+i%10))
		net.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: "UA", Method: "GET", Path: "/"})
	}
	stats := net.EngineStats()
	if stats.PagesInstrumented != 30 {
		t.Fatalf("PagesInstrumented = %d", stats.PagesInstrumented)
	}
	sessions := net.FlushSessions()
	if len(sessions) != 10 {
		t.Fatalf("flushed sessions = %d, want 10 distinct keys", len(sessions))
	}

	// The rollup must carry every counter core.Stats has. Move each one on
	// every node, then walk the struct by reflection: a counter added to
	// core.Stats later fails here until it is both exercised and summed.
	for i, node := range net.Nodes() {
		ip := "10.9.1." + string(rune('0'+i))
		get := func(ip, path string) string {
			return string(node.Do(agents.Request{Time: vc.Now(), IP: ip, UserAgent: "UA", Method: "GET", Path: path}).Body)
		}
		page := htmlmod.Extract([]byte(get(ip, "/")))
		if len(page.Stylesheets) == 0 || len(page.Scripts) == 0 || len(page.HiddenLinks) == 0 {
			t.Fatalf("node %d: page not fully instrumented: %+v", i, page)
		}
		get(ip, page.Stylesheets[0])
		script := get(ip, page.Scripts[0])
		realKey := agents.HandlerBeaconURL(script, "__bd_f")
		get(ip, realKey) // human
		for views := 1; node.Engine().Stats().PagesLite == 0; views++ {
			if views == 32 { // a definite human's page is lite on seven views in eight
				t.Fatalf("node %d: 32 full pages served to a definite human", i)
			}
			get(ip, "/")
		}
		get(ip, realKey) // replay
		for _, u := range agents.AllBeaconURLs(script) {
			if u != realKey && strings.HasSuffix(u, ".jpg") {
				get(ip, u) // decoy
				break
			}
		}
		get(ip, "/__bd/0000000000.jpg")         // unknown key
		get(ip, "/__bd/index_0000000000.js")    // expired script
		get(ip, "/__bd/js/1.gif?ua=ua")         // exec beacon, matching agent
		get(ip, "/__bd/ua/1/somethingelse.css") // agent report, mismatching
		get(ip, page.HiddenLinks[0])
		node.Engine().ForceLoadState(core.LoadPressured)
		get(ip+"1", "/") // new client under pressure: degraded
		node.Engine().ForceLoadState(core.LoadSaturated)
		get(ip+"2", "/") // new client when saturated: pass-through
		node.Engine().ClearForcedLoadState()
	}
	got := reflect.ValueOf(net.EngineStats())
	for f := 0; f < got.NumField(); f++ {
		name := got.Type().Field(f).Name
		var want int64
		for _, node := range net.Nodes() {
			want += reflect.ValueOf(node.Engine().Stats()).Field(f).Int()
		}
		if want == 0 {
			t.Errorf("core.Stats.%s never moved: exercise it above so its rollup is checked", name)
		}
		if got.Field(f).Int() != want {
			t.Errorf("EngineStats().%s = %d, nodes sum to %d", name, got.Field(f).Int(), want)
		}
	}
}

func TestComplaintModelShape(t *testing.T) {
	// Volumes: high before detection, low after.
	volumes := DeploymentTimeline(100, 300, 1, 8, 12, 2.0e6, 0.5, 0.9, 0.8)
	if len(volumes) != len(Months2005) {
		t.Fatalf("timeline length = %d", len(volumes))
	}
	// Volume grows after expansion and drops sharply after detection.
	if volumes[0] >= volumes[6] {
		t.Fatalf("volume should grow after expansion: Jan=%f Jul=%f", volumes[0], volumes[6])
	}
	if volumes[9] >= volumes[6]*0.5 {
		t.Fatalf("volume should drop after detection: Jul=%f Oct=%f", volumes[6], volumes[9])
	}
	if volumes[12] >= volumes[9] {
		t.Fatalf("volume should drop again after mouse detection: Oct=%f Jan06=%f", volumes[9], volumes[12])
	}

	cm := ComplaintModel{RequestsPerComplaint: 1e6, BaselineHuman: 0.5, Src: rng.New(42)}
	months := cm.Complaints(Months2005, volumes)
	if len(months) != len(Months2005) {
		t.Fatalf("months = %d", len(months))
	}
	peak := 0
	for _, m := range months[:8] {
		if m.Robot > peak {
			peak = m.Robot
		}
	}
	var after int
	for _, m := range months[9:] {
		after += m.Robot
	}
	if peak == 0 {
		t.Fatal("no robot complaints before detection deployment")
	}
	if after > peak {
		t.Fatalf("complaints did not drop after deployment: peak=%d after-sum=%d", peak, after)
	}
	if months[0].Total() != months[0].Robot+months[0].Human {
		t.Fatal("Total() broken")
	}
}

func TestComplaintModelDefaults(t *testing.T) {
	cm := ComplaintModel{}
	months := cm.Complaints([]string{"Jan", "Feb"}, []float64{0})
	if len(months) != 2 {
		t.Fatalf("months = %d", len(months))
	}
	if months[1].Robot != 0 {
		t.Fatal("missing volume entries should yield zero complaints")
	}
}

func TestNodeNameGenerator(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		seen[nodeName(i)] = true
	}
	if len(seen) < 40 {
		t.Fatalf("node names collide too much: %d distinct of 50", len(seen))
	}
}

func mixedTestRequests(count int) []agents.Request {
	src := rng.New(77)
	at := time.Date(2006, 1, 6, 0, 0, 0, 0, time.UTC)
	reqs := make([]agents.Request, 0, count)
	for i := 0; i < count; i++ {
		ip := "10." + string(rune('0'+i%10)) + ".0." + string(rune('1'+i%9))
		path := "/"
		switch src.Intn(3) {
		case 1:
			path = "/page1.html"
		case 2:
			path = "/img/photo0_0.jpg"
		}
		reqs = append(reqs, agents.Request{
			Time: at.Add(time.Duration(i) * time.Second), IP: ip,
			UserAgent: "Firefox/1.5", Method: "GET", Path: path,
		})
	}
	return reqs
}

func TestStatsReadableWhileServing(t *testing.T) {
	// Serve through one network while readers poll the atomic counters; run
	// under -race in CI this doubles as the data-race proof for the
	// lock-free NodeStats.
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 7, NumPages: 10})
	netw := NewNetwork(8, site, core.Config{Seed: 8}, true, 13)
	reqs := mixedTestRequests(600)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = netw.TotalStats()
			_ = netw.EngineStats()
		}
	}()
	for _, req := range reqs {
		netw.Do(req)
	}
	<-done

	if netw.TotalStats().Requests != int64(len(reqs)) {
		t.Fatalf("requests = %d, want %d", netw.TotalStats().Requests, len(reqs))
	}
}

// TestBeaconVerdictsCountedOnce: a key beacon's verdict is counted once, by
// the keystore. One beacon of each verdict — the page's real key, one of its
// decoys, the real key again (a replay) and a key never issued — reads 1 for
// each in the engine's Stats, in both metric families
// (botdetect_beacon_requests_total by kind, botdetect_keystore_validations_total
// by verdict) and in the network's EngineStats.
func TestBeaconVerdictsCountedOnce(t *testing.T) {
	vc := clock.NewVirtual(time.Time{})
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 1, NumPages: 20})
	network := NewNetwork(2, site, core.Config{Seed: 2, Clock: vc}, false, 3)
	ip, ua := "10.0.0.9", "Firefox/1.5"
	node := network.NodeFor(ip)
	eng := node.Engine()

	var ps core.PageState
	eng.PreparePage(ip, ua, "/", &ps)
	prefix := eng.Config().BeaconPrefix
	pre, suf := jsgen.ScriptPathParts(prefix)
	resp, ok := eng.HandleBeacon(ip, ua, pre+string(ps.Keys().AppendKey(nil, ps.Keys().ScriptToken))+suf)
	if !ok {
		t.Fatal("script path not intercepted")
	}
	script := string(resp.Body)
	resp.Done()
	realKey := agents.HandlerBeaconURL(script, "__bd_f")
	decoy := ""
	for _, u := range agents.AllBeaconURLs(script) {
		if u != realKey && strings.HasSuffix(u, ".jpg") {
			decoy = u
		}
	}
	if realKey == "" || decoy == "" {
		t.Fatalf("script gave real key %q, decoy %q", realKey, decoy)
	}
	for _, path := range []string{realKey, decoy, realKey, prefix + "/0000000000.jpg"} {
		eng.HandleBeacon(ip, ua, path)
	}

	want := core.Stats{MouseBeacons: 1, DecoyBeacons: 1, ReplayBeacons: 1, UnknownBeacons: 1}
	verdicts := func(s core.Stats) core.Stats {
		return core.Stats{MouseBeacons: s.MouseBeacons, DecoyBeacons: s.DecoyBeacons, ReplayBeacons: s.ReplayBeacons, UnknownBeacons: s.UnknownBeacons}
	}
	if got := verdicts(eng.Stats()); got != want {
		t.Errorf("engine Stats verdicts = %+v, want one each", got)
	}
	if got := verdicts(network.EngineStats()); got != want {
		t.Errorf("network EngineStats verdicts = %+v, want one each", got)
	}
	var sb strings.Builder
	if err := network.tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exposition := sb.String()
	label := `node="` + node.Name() + `"`
	for _, series := range []string{
		`botdetect_beacon_requests_total{kind="mouse",` + label + `} 1`,
		`botdetect_beacon_requests_total{kind="decoy",` + label + `} 1`,
		`botdetect_beacon_requests_total{kind="replay",` + label + `} 1`,
		`botdetect_beacon_requests_total{kind="unknown",` + label + `} 1`,
		`botdetect_keystore_validations_total{verdict="human",` + label + `} 1`,
		`botdetect_keystore_validations_total{verdict="decoy",` + label + `} 1`,
		`botdetect_keystore_validations_total{verdict="replayed",` + label + `} 1`,
		`botdetect_keystore_validations_total{verdict="unknown",` + label + `} 1`,
	} {
		if !strings.Contains(exposition, series+"\n") {
			t.Errorf("exposition lacks %s", series)
		}
	}
}

// TestRoutingFillsEveryKeystoreShard routes 1,000 clients over four nodes of
// eight shards each: every node's keystore must hold clients in every one
// of its shards. The keystore picks a client's shard from the low bits of
// the FNV-1a hash of its address, so routing on the same bits modulo the
// node count would fill two shards of each node's eight.
func TestRoutingFillsEveryKeystoreShard(t *testing.T) {
	const nodes, shards = 4, 8
	vc := clock.NewVirtual(time.Time{})
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 1, NumPages: 20})
	network := NewNetwork(nodes, site, core.Config{Seed: 2, Clock: vc, Shards: shards}, false, 3)
	var ps core.PageState
	for i := range 1000 {
		ip := fmt.Sprintf("10.%d.%d.%d", i>>16, (i>>8)&0xff, i&0xff)
		network.NodeFor(ip).Engine().PreparePage(ip, "Firefox/1.5", "/", &ps)
	}
	var sb strings.Builder
	if err := network.tel.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fill := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if series, v, ok := strings.Cut(line, " "); ok && strings.HasPrefix(series, "botdetect_shard_keystore_clients{") {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			fill[series] = f
		}
	}
	for _, node := range network.Nodes() {
		for i := range shards {
			series := fmt.Sprintf(`botdetect_shard_keystore_clients{shard="%d",node="%s"}`, i, node.Name())
			if fill[series] == 0 {
				t.Errorf("%s holds no client (%d series read)", series, len(fill))
			}
		}
	}
}
