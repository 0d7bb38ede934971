package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/cdn"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/detect/rules"
	"botdetect/internal/metrics"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
	"botdetect/internal/workload"
)

// codeen_mix: the paper's own evaluation vehicle. The CoDeeN client mix —
// humans with and without JavaScript, crawlers, harvesters, referrer
// spammers, click-fraud generators, scanners, offline browsers, smart bots
// with and without a forged agent — runs against a four-node cdn.Network with
// enforcement on, in-process, on a virtual clock. There are no sockets, so it
// is engine-bound: engine, keystore, detector and policy work shows here at
// full size, and it is where detection quality is pinned, because here the
// ground truth is known.

const (
	codeenNodes   = 4
	codeenPages   = 120
	codeenRepeats = 3
	// minRequests is the engine's classification threshold (paper: 10);
	// quality ratios only count sessions that got past it.
	minRequests = 10
)

// agentMix lists the CoDeeN mix in a fixed order.
func agentMix() (weights []float64, kinds []agents.Kind, forged []bool) {
	m := workload.CoDeeNMix()
	weights = []float64{m.HumanJS, m.HumanNoJS, m.Crawler, m.EmailHarvester, m.ReferrerSpammer,
		m.ClickFraud, m.VulnScanner, m.OfflineBrowser, m.SmartBot, m.SmartBotForgedUA}
	kinds = []agents.Kind{agents.KindHuman, agents.KindHumanNoJS, agents.KindCrawler, agents.KindEmailHarvester,
		agents.KindReferrerSpammer, agents.KindClickFraud, agents.KindVulnScanner, agents.KindOfflineBrowser,
		agents.KindSmartBot, agents.KindSmartBot}
	forged = []bool{false, false, false, false, false, false, false, false, false, true}
	return
}

// newAgent builds one agent with the exported constructors, sized like the
// evaluation's sessions: humans view about a dozen pages with fifteen
// seconds of thought between them, robots take about forty two-second steps.
func newAgent(kind agents.Kind, forgedUA bool, ip, host string, src *rng.Source) agents.Agent {
	if kind.IsHuman() {
		return agents.NewHuman(agents.HumanConfig{
			IP: ip, Host: host, Pages: 3 + src.Poisson(9),
			JavaScriptEnabled: kind == agents.KindHuman,
			SolveCaptcha:      0.38,
			ThinkTimeMean:     15 * time.Second,
			Src:               src,
		})
	}
	cfg := agents.RobotConfig{IP: ip, Host: host, Requests: 5 + src.Poisson(35), InterRequestMean: 2 * time.Second, Src: src}
	switch kind {
	case agents.KindCrawler:
		return agents.NewCrawler(cfg)
	case agents.KindEmailHarvester:
		return agents.NewEmailHarvester(cfg)
	case agents.KindReferrerSpammer:
		return agents.NewReferrerSpammer(cfg)
	case agents.KindClickFraud:
		return agents.NewClickFraud(cfg)
	case agents.KindVulnScanner:
		return agents.NewVulnScanner(cfg)
	case agents.KindOfflineBrowser:
		return agents.NewOfflineBrowser(cfg)
	}
	if forgedUA {
		cfg.EngineAgent = "Mozilla/5.0 (embedded script engine) BotRuntime/0.9"
	}
	return agents.NewSmartBot(cfg)
}

// sessionTally is what the benchmark itself saw of one session.
type sessionTally struct {
	kind      agents.Kind
	served    int  // requests answered with anything but 403/429
	refused   bool // ever answered 403 or 429
	blockedAt int  // requests served before the first 403; -1 if never blocked
}

// codeenWorld is one freshly built network with its population.
type codeenWorld struct {
	site    *webmodel.Site
	vc      *clock.Virtual
	network *cdn.Network
	agents  []agents.Agent
	arrive  []time.Duration
	tally   map[session.Key]*sessionTally
	recv    int64 // body bytes received on served responses
}

func buildCodeen(seed uint64, sessions int) *codeenWorld {
	w := &codeenWorld{
		site:  webmodel.Generate(webmodel.SiteConfig{Seed: siteSeed ^ 0x5117, NumPages: codeenPages}),
		vc:    clock.NewVirtual(time.Date(2006, time.January, 6, 0, 0, 0, 0, time.UTC)),
		tally: make(map[session.Key]*sessionTally, sessions),
	}
	w.network = cdn.NewNetwork(codeenNodes, w.site, core.Config{Clock: w.vc, ObfuscateJS: true}, true, siteSeed^0xabcd)
	// The population — who the 4,000 are and how each behaves — is the CoDeeN
	// mix as exactly as its size allows and, like the site, a constant. The
	// seed draws the schedule: in what order they arrive, how far apart, and
	// from which address, which is what routes a session to its node.
	pop := rng.New(siteSeed ^ 0xc0de).Fork("codeen-population")
	weights, kinds, forged := agentMix()
	picks := shuffledShares(pop.Split(), weights, sessions)
	behaviour := make([]uint64, sessions)
	for i := range behaviour {
		behaviour[i] = pop.Uint64()
	}
	src := rng.New(seed).Fork("codeen")
	var at time.Duration
	for i, who := range src.Perm(sessions) {
		pick := picks[who]
		ip := fmt.Sprintf("%d.%d.%d.%d", 11+i%80, (i/253)%253+1, i%253+1, 1+src.Intn(250))
		a := newAgent(kinds[pick], forged[pick], ip, w.site.Host(), rng.New(behaviour[who]))
		at += time.Duration(src.Exp(float64(time.Second) / 2)) // two session arrivals a second
		w.agents = append(w.agents, a)
		w.arrive = append(w.arrive, at)
		w.tally[session.Key{IP: a.IP(), UserAgent: a.UserAgent()}] = &sessionTally{kind: kinds[pick], blockedAt: -1}
	}
	return w
}

// drive schedules every agent on the virtual clock and runs the simulation
// to quiescence against c.
func (w *codeenWorld) drive(c agents.Client) {
	for i, a := range w.agents {
		a := a
		var step func(now time.Time)
		step = func(now time.Time) {
			if delay, done := a.Step(c, now); !done {
				w.vc.Schedule(delay, step)
			}
		}
		w.vc.Schedule(w.arrive[i], step)
	}
	w.vc.Drain(len(w.agents) * 2000)
}

// observe keeps the per-session tally the quality metrics need.
func (w *codeenWorld) observe(req agents.Request, resp agents.Response) {
	t := w.tally[session.Key{IP: req.IP, UserAgent: req.UserAgent}]
	if t == nil {
		return
	}
	switch resp.Status {
	case 403:
		if t.blockedAt < 0 {
			t.blockedAt = t.served
		}
		t.refused = true
	case 429:
		t.refused = true
	default:
		t.served++
		if req.Path != agents.CaptchaSolvePath {
			w.recv += int64(len(resp.Body))
		}
	}
}

// codeenQuality is the detection-quality outcome of one repeat.
type codeenQuality struct {
	humanOK, humanFP, robotCaught, reqsToBlockP50 float64
	sessions, humans, robots, blocked             int
	shapeFailures                                 []string
}

func (q codeenQuality) digest() string {
	return fmt.Sprintf("%.12g %.12g %.12g %.12g %d %d %d %d", q.humanOK, q.humanFP, q.robotCaught, q.reqsToBlockP50, q.sessions, q.humans, q.robots, q.blocked)
}

// values names the quality ratios as metrics.
func (q codeenQuality) values() map[string]float64 {
	return map[string]float64{
		"quality.human_ok_ratio": q.humanOK, "quality.human_fp_ratio": q.humanFP,
		"quality.robot_caught_ratio": q.robotCaught, "quality.robot_reqs_to_block_p50": q.reqsToBlockP50,
	}
}

// judge flushes the network's sessions and scores their final verdicts
// against ground truth, and applies the Table 1 shape checks
// (internal/experiments' TestTable1ShapeAndFormat) to the same sessions.
func (w *codeenWorld) judge() codeenQuality {
	var q codeenQuality
	var snaps []session.Snapshot
	var humansJudged, humansOK, humansFP, robotsJudged, robotsCaught int
	var cm metrics.ConfusionMatrix
	for _, cs := range w.network.FlushSessions() {
		t := w.tally[cs.Snapshot.Key]
		if t == nil {
			continue
		}
		q.sessions++
		snaps = append(snaps, cs.Snapshot)
		judged := int64(cs.Snapshot.Counts.Total) > minRequests
		if judged {
			cm.Record(rules.InHumanSet(cs.Snapshot), t.kind.IsHuman())
		}
		if t.kind.IsHuman() {
			q.humans++
			if t.refused || cs.Verdict.Class == core.ClassRobot {
				humansFP++
			}
			if judged {
				humansJudged++
				if cs.Verdict.Class == core.ClassHuman {
					humansOK++
				}
			}
			continue
		}
		q.robots++
		if judged {
			robotsJudged++
			if cs.Verdict.Class == core.ClassRobot {
				robotsCaught++
			}
		}
	}
	var toBlock []float64
	for _, t := range w.tally {
		if !t.kind.IsHuman() && t.blockedAt >= 0 {
			toBlock = append(toBlock, float64(t.blockedAt))
		}
	}
	sort.Float64s(toBlock)
	q.blocked = len(toBlock)
	q.humanOK = ratio(humansOK, humansJudged)
	q.humanFP = ratio(humansFP, q.humans)
	q.robotCaught = ratio(robotsCaught, robotsJudged)
	q.reqsToBlockP50 = sortedQuantile(toBlock, 0.5)

	b := rules.Breakdown(snaps, minRequests)
	if b.CSSFraction() < b.MouseFraction() {
		q.shapeFailures = append(q.shapeFailures, fmt.Sprintf("CSS share %.3f below mouse share %.3f", b.CSSFraction(), b.MouseFraction()))
	}
	if b.HumanUpperBound() < b.HumanLowerBound() {
		q.shapeFailures = append(q.shapeFailures, "human-share bounds out of order")
	}
	if b.MaxFalsePositiveRate() > 0.15 {
		q.shapeFailures = append(q.shapeFailures, fmt.Sprintf("max FPR bound %.3f above 0.15", b.MaxFalsePositiveRate()))
	}
	if cm.FalsePositiveRate() > 0.08 {
		q.shapeFailures = append(q.shapeFailures, fmt.Sprintf("true FPR %.3f above 0.08", cm.FalsePositiveRate()))
	}
	return q
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// codeenSpec is the workload's replay description: the end-to-end run and the
// traced run both go through replaySpec.run, each pass on a fresh world.
func codeenSpec(seed uint64, sessions int) replaySpec {
	return replaySpec{surface: "cdn", build: func() replayWorld {
		w := buildCodeen(seed, sessions)
		index := make(map[*cdn.Node]int)
		var engines []*core.Engine
		for i, node := range w.network.Nodes() {
			index[node] = i
			engines = append(engines, node.Engine())
		}
		return replayWorld{
			surface: w.network, engines: engines, withPolicy: true, codeen: w,
			route:  func(ip string) int { return index[w.network.NodeFor(ip)] },
			origin: siteOrigin(w.site),
			drive: func(c *tracedClient) {
				c.onResponse = w.observe
				w.drive(c)
			},
		}
	}}
}

// bytesPerSession is the engines' estimated footprint over tracked sessions,
// summed over the nodes, before the sessions are flushed.
func (w *codeenWorld) bytesPerSession() float64 {
	var bytes int64
	var sessions int
	for _, node := range w.network.Nodes() {
		bytes += node.Engine().MemoryEstimate()
		sessions += node.Engine().SessionCount()
	}
	if sessions == 0 {
		return 0
	}
	return float64(bytes) / float64(sessions)
}

// scrape renders the network's registry in the Prometheus text format and
// parses it the way the wire workloads parse botproxy's admin endpoint.
func (w *codeenWorld) scrape() map[string]float64 {
	var sb strings.Builder
	_ = w.network.WriteMetrics(&sb) // a strings.Builder cannot fail
	out := make(map[string]float64)
	parseMetrics(sb.String(), out)
	return out
}
