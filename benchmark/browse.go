package main

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/core"
	"botdetect/internal/rng"
	"botdetect/internal/webmodel"
)

// browse_hot: established human browsers on the built-in site. Every view is
// a page plus everything a browser fetches for it — site and injected
// stylesheet, site and injected script, images, the exec beacon and usually
// the mouse beacon — so per-request fixed cost dominates and every engine
// lookup hits a warm client.

// siteSeed seeds the built-in site (and botproxy's keys, which share the
// flag) and the people who visit it. It is a constant: the site and its
// regulars are the content under test, and holding them still keeps page and
// image sizes — which are heavy-tailed — from moving every byte-bound number
// between seeds. The workload seed draws the schedule: who comes when.
const (
	siteSeed  = 2006
	sitePages = 200
)

// browseCapacity is the page-view rate the phase sizes and the frozen
// open-loop rates are derived from: what two connections carry, closed loop,
// when the machine is at its slowest (measured: 1,300–1,900 views/s; a view
// is about twelve requests, one after the other, on one connection). It is
// set low on purpose. A view holds its connection for over a millisecond, so
// the connections, not the server, are where arrivals queue; at half of the
// fastest closed-loop rate the median arrival flips between "a connection was
// free" and "queued behind a whole view" every time the machine's speed
// wobbles, and the median latency swings by a factor of three with it.
const browseCapacity = 1000

var browseRates = rates{lo: 250, mid: 500, hi: 750} // page views per second: 25/50/75 % of browseCapacity

// builtinSite regenerates the site botproxy serves under builtinFlags, so the
// generator knows every origin byte.
func builtinSite() *webmodel.Site {
	return webmodel.Generate(webmodel.SiteConfig{Seed: siteSeed, NumPages: sitePages})
}

func builtinFlags() []string {
	return []string{
		"-seed", fmt.Sprint(siteSeed), "-pages", fmt.Sprint(sitePages),
		"-policy", "-captcha", "-train=false",
	}
}

// siteExpectation is what the built-in site serves for path.
func siteExpectation(site *webmodel.Site, path string) expected {
	obj := site.Lookup(path)
	return expected{
		status:       obj.Status,
		contentType:  obj.ContentType,
		body:         obj.Body,
		instrumented: obj.Status == 200 && strings.Contains(obj.ContentType, "text/html"),
	}
}

// browseClient is one simulated person. The same person shows up twice:
// first, during warm-up, as someone who does move the mouse on every page,
// which gives the engine its direct human evidence for the session; then, for
// everything measured, with the default mouse probability. Both share one
// address and one User-Agent (same random source, same first draw), so they
// are one session. Without the first visit about one client in thirteen
// reaches the classification threshold having run the script but not moved
// the mouse, is challenged, and is then served through the policy's 10 ms
// throttle until a later view produces the event — seconds of sleeping per
// run that measure nothing.
type browseClient struct {
	busy     atomic.Bool // a client is only ever stepped by one worker at a time
	first    *agents.Human
	agent    *agents.Human
	ip       string
	identity []byte
	refused  bool // was answered 403 or 429
}

// agentConn adapts a worker's connection to agents.Client for one client.
type agentConn struct {
	w      *worker
	site   *webmodel.Site
	client *browseClient
	want   expected
}

func (a *agentConn) Do(req agents.Request) agents.Response {
	var want *expected
	if !strings.HasPrefix(req.Path, beaconPrefix+"/") {
		a.want = siteExpectation(a.site, req.Path)
		want = &a.want
	}
	resp, _ := a.w.exchange(req.Path, a.client.identity, req.Referer, want)
	if resp.status == 403 || resp.status == 429 {
		a.client.refused = true
	}
	return agents.Response{Status: resp.status, ContentType: resp.contentType, Body: resp.body, RedirectTo: resp.location}
}

type browseWorkload struct {
	seed    uint64
	n       int
	site    *webmodel.Site
	clients []*browseClient
	conns   map[*worker]*agentConn
	humanOK float64
	humanFP float64
}

func newBrowse(seed uint64, seconds float64) *browseWorkload {
	n := int(100 * seconds)
	if n > 2000 {
		n = 2000
	}
	if n < 50 {
		n = 50
	}
	return &browseWorkload{seed: seed, n: n, site: builtinSite()}
}

func (b *browseWorkload) start() ([]string, error) { return builtinFlags(), nil }
func (b *browseWorkload) stop()                    {}
func (b *browseWorkload) rates() rates             { return browseRates }
func (b *browseWorkload) latencyLimitUs() float64  { return 2000 }

// browseClosedRate sizes the closed-loop slices: about how many views per
// second two busy connections complete.
const browseClosedRate = 1600

func (b *browseWorkload) plan(seconds float64, trace bool) phasePlan {
	return sizePlan(seconds, trace, 1, sliceCount(seconds), browseClosedRate)
}

// warmViews is how many page views each client makes as its first persona.
const warmViews = 2

// newHumans builds the site's first n regulars — human browsers with
// JavaScript on, the default mouse probability and a page budget they will
// never exhaust — in the order the seed has them arrive.
func newHumans(seed uint64, n int) []*browseClient {
	src := rng.New(siteSeed).Fork("browse-clients")
	clients := make([]*browseClient, n)
	for i := range clients {
		ip := fmt.Sprintf("10.%d.%d.%d", 1+i/62500, (i/250)%250, 1+i%250)
		personaSeed := src.Uint64()
		cfg := agents.HumanConfig{IP: ip, Host: siteHost, Pages: 1 << 30, JavaScriptEnabled: true}
		cfg.Src, cfg.MouseMoveProbability = rng.New(personaSeed), 1
		first := agents.NewHuman(cfg)
		cfg.Src, cfg.MouseMoveProbability = rng.New(personaSeed), 0 // 0 selects the default
		h := agents.NewHuman(cfg)
		clients[i] = &browseClient{first: first, agent: h, ip: ip, identity: identityHeaders(h.UserAgent(), ip)}
	}
	rng.New(seed).Fork("browse-order").Shuffle(n, func(i, j int) { clients[i], clients[j] = clients[j], clients[i] })
	return clients
}

func (b *browseWorkload) reset() {
	b.clients = newHumans(b.seed, b.n)
	b.conns = make(map[*worker]*agentConn)
}

func (b *browseWorkload) probe(w *worker) error {
	want := siteExpectation(b.site, "/")
	if _, ok := w.exchange("/", identityHeaders("probe", "127.0.0.9"), "", &want); !ok {
		return fmt.Errorf("probe of / failed: %v", w.chk.reasons)
	}
	return nil
}

// view steps arrival k's client through one page view on w's connection.
func (b *browseWorkload) view(w *worker, k int64, first bool) {
	c := b.clients[k%int64(len(b.clients))]
	if !c.busy.CompareAndSwap(false, true) {
		w.attempted++
		w.failed++
		w.chk.fail("client stepped concurrently")
		return
	}
	ac := b.conns[w]
	ac.client = c
	agent := c.agent
	if first {
		agent = c.first
	}
	agent.Step(ac, time.Now()) // think time is ignored: the next arrival decides when
	c.busy.Store(false)
}

func (b *browseWorkload) unit() unit {
	return func(w *worker, k int64) { b.view(w, k, false) }
}

// warm establishes every client: warmViews views each as its first persona.
func (b *browseWorkload) warm(g *loadgen) {
	for _, w := range g.workers {
		b.conns[w] = &agentConn{w: w, site: b.site}
	}
	g.runCount(warmViews*int64(len(b.clients)), 0, func(w *worker, k int64) { b.view(w, k, true) })
}

// verify samples up to 200 clients and asks the admin listener about each:
// every one must be judged human, and none may have been refused.
func (b *browseWorkload) verify(g *loadgen, admin *wireConn, _ map[string]float64, fail func(string)) {
	src := rng.New(b.seed).Fork("browse-sample")
	sample := 200
	if sample > len(b.clients) {
		sample = len(b.clients)
	}
	human := 0
	for _, i := range src.Perm(len(b.clients))[:sample] {
		c := b.clients[i]
		class, err := sessionVerdict(admin, beaconPrefix, c.ip, c.agent.UserAgent())
		switch {
		case err != nil:
			fail(firstLine(err.Error()))
		case class != "human":
			fail("sampled client judged " + class)
		default:
			human++
		}
	}
	refused := 0
	for _, c := range b.clients {
		if c.refused {
			refused++
			fail("human client refused with 403/429")
		}
	}
	b.humanOK = float64(human) / float64(sample)
	b.humanFP = float64(refused+sample-human) / float64(len(b.clients))
}

func (b *browseWorkload) quality() (float64, float64, bool) { return b.humanOK, b.humanFP, true }

// replayClients is how many humans the in-process replay steps.
const replayClients = 500

func siteOrigin(site *webmodel.Site) originFunc {
	return func(path string) (int, string, []byte) {
		obj := site.Lookup(path)
		return obj.Status, obj.ContentType, obj.Body
	}
}

func singleNode(string) int { return 0 }

// replaySpec replays the same humans, round-robin, through an in-process
// middleware built the way botproxy builds it.
func (b *browseWorkload) replaySpec(seconds float64) replaySpec {
	return replaySpec{surface: "proxy", build: func() replayWorld {
		mw, eng := newBuiltinMiddleware(b.site)
		n := replayClients
		if n > b.n {
			n = b.n
		}
		clients := newHumans(b.seed, n)
		views := int(400 * seconds)
		drive := func(c *tracedClient) {
			for v := 0; v < warmViews*n; v++ {
				clients[v%n].first.Step(c, time.Now())
			}
			for v := 0; v < views; v++ {
				clients[v%n].agent.Step(c, time.Now())
			}
		}
		return replayWorld{surface: newMWSurface(mw), engines: []*core.Engine{eng}, withPolicy: true, route: singleNode, origin: siteOrigin(b.site), drive: drive}
	}}
}

func (b *browseWorkload) probeRequest() agents.Request {
	return agents.Request{Time: time.Now(), Method: "GET", Path: "/"}
}
