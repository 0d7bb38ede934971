// Package cdn simulates the deployment environment of the paper's
// evaluation: a CoDeeN-like content distribution network of proxy nodes,
// each running the detection core in front of the synthetic origin site,
// with per-node traffic accounting, policy enforcement, CAPTCHA service and
// an abuse-complaint model that reproduces the operational timeline of
// Figure 3.
package cdn

import (
	"io"
	"sync"
	"sync/atomic"

	"botdetect/internal/adaboost"
	"botdetect/internal/agents"
	"botdetect/internal/captcha"
	"botdetect/internal/core"
	"botdetect/internal/fleet"
	"botdetect/internal/logfmt"
	"botdetect/internal/policy"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/shard"
	"botdetect/internal/telemetry"
	"botdetect/internal/webmodel"
)

// NodeConfig controls one proxy node.
type NodeConfig struct {
	// Name identifies the node (e.g. "codeen-03").
	Name string
	// Site is the origin content the node serves; required.
	Site *webmodel.Site
	// Engine is the node's detection engine; required.
	Engine *core.Engine
	// Policy optionally enforces throttling/blocking.
	Policy *policy.Engine
	// Captcha optionally backs the CAPTCHA endpoints.
	Captcha *captcha.Service
}

// NodeStats are per-node cumulative counters.
type NodeStats struct {
	Requests            int64
	BlockedRequests     int64
	ChallengedRequests  int64
	ThrottledRequests   int64
	OriginBytes         int64
	InstrumentationHits int64
	CaptchaSolved       int64
	// FleetBlocked counts requests refused by the replicated block-list
	// check that runs ahead of session state (a subset of BlockedRequests).
	FleetBlocked int64
	// FailoverDegraded counts page views served degraded because the session
	// belongs to another partition owner this node had never seen.
	FailoverDegraded int64
	// Unavailable counts requests refused because the node was down
	// (crashed).
	Unavailable int64
}

// add accumulates s into the receiver (Network.TotalStats).
func (t *NodeStats) add(s NodeStats) {
	t.Requests += s.Requests
	t.BlockedRequests += s.BlockedRequests
	t.ChallengedRequests += s.ChallengedRequests
	t.ThrottledRequests += s.ThrottledRequests
	t.OriginBytes += s.OriginBytes
	t.InstrumentationHits += s.InstrumentationHits
	t.CaptchaSolved += s.CaptchaSolved
	t.FleetBlocked += s.FleetBlocked
	t.FailoverDegraded += s.FailoverDegraded
	t.Unavailable += s.Unavailable
}

// nodeCounters is the internal atomic mirror of NodeStats: each counter is
// an independent atomic so the parallel driver's workers (and the sharded
// engine behind them) never serialise on a node-wide statistics lock.
type nodeCounters struct {
	requests            atomic.Int64
	blockedRequests     atomic.Int64
	challengedRequests  atomic.Int64
	throttledRequests   atomic.Int64
	originBytes         atomic.Int64
	instrumentationHits atomic.Int64
	captchaSolved       atomic.Int64
	fleetBlocked        atomic.Int64
	failoverDegraded    atomic.Int64
	unavailable         atomic.Int64
}

// Node is one proxy in the simulated CDN. It implements agents.Client and is
// safe for concurrent use: counters are atomic, and the mutex guards only
// the optional in-memory recording of observed requests.
type Node struct {
	cfg       NodeConfig
	stats     nodeCounters
	recording atomic.Bool

	mu      sync.Mutex // guards entries
	entries []logfmt.Entry

	// Fleet state (nil/zero when the node runs isolated; see fleet.go):
	// the node's replicator, the shared partition ring, and the down flag a
	// crash sets.
	rep  *fleet.Replicator
	ring *fleet.Ring
	down atomic.Bool
}

// NewNode creates a Node. It panics when Site or Engine are missing since
// the node cannot operate without them.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Site == nil || cfg.Engine == nil {
		panic("cdn: NodeConfig.Site and NodeConfig.Engine are required")
	}
	return &Node{cfg: cfg}
}

// Name returns the node's name.
func (n *Node) Name() string { return n.cfg.Name }

// Engine returns the node's detection engine.
func (n *Node) Engine() *core.Engine { return n.cfg.Engine }

// Policy returns the node's policy engine, or nil when enforcement is off.
func (n *Node) Policy() *policy.Engine { return n.cfg.Policy }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Requests:            n.stats.requests.Load(),
		BlockedRequests:     n.stats.blockedRequests.Load(),
		ChallengedRequests:  n.stats.challengedRequests.Load(),
		ThrottledRequests:   n.stats.throttledRequests.Load(),
		OriginBytes:         n.stats.originBytes.Load(),
		InstrumentationHits: n.stats.instrumentationHits.Load(),
		CaptchaSolved:       n.stats.captchaSolved.Load(),
		FleetBlocked:        n.stats.fleetBlocked.Load(),
		FailoverDegraded:    n.stats.failoverDegraded.Load(),
		Unavailable:         n.stats.unavailable.Load(),
	}
}

// RegisterMetrics adds the node's proxy-level counters (request volume,
// enforcement outcomes, origin bytes, instrumentation hits, CAPTCHA solves)
// to a telemetry registry as scrape-time collectors labelled with the node
// name. The request path keeps paying only its existing atomic adds.
func (n *Node) RegisterMetrics(reg *telemetry.Registry) {
	nl := telemetry.Label("node", n.cfg.Name)
	counter := func(name, labels, help string, v func() int64) {
		reg.CounterFunc(name, telemetry.Join(labels, nl), help, func() float64 { return float64(v()) })
	}
	counter("botdetect_node_requests_total", "", "Client requests handled by the node.",
		n.stats.requests.Load)
	const enforcement = "botdetect_node_enforcement_total"
	enfHelp := "Requests denied or delayed by the policy engine, by action."
	counter(enforcement, telemetry.Label("action", "blocked"), enfHelp, n.stats.blockedRequests.Load)
	counter(enforcement, telemetry.Label("action", "challenged"), enfHelp, n.stats.challengedRequests.Load)
	counter(enforcement, telemetry.Label("action", "throttled"), enfHelp, n.stats.throttledRequests.Load)
	counter("botdetect_node_origin_bytes_total", "", "Origin body bytes served by the node.",
		n.stats.originBytes.Load)
	counter("botdetect_node_instrumentation_hits_total", "", "Instrumentation requests (beacons, generated objects) served by the node.",
		n.stats.instrumentationHits.Load)
	counter("botdetect_node_captcha_solved_total", "", "CAPTCHA challenges solved at the node.",
		n.stats.captchaSolved.Load)
}

// SetRecording enables or disables in-memory recording of observed entries.
func (n *Node) SetRecording(enabled bool) {
	n.recording.Store(enabled)
}

// Entries returns the log entries recorded since SetRecording(true).
func (n *Node) Entries() []logfmt.Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]logfmt.Entry, len(n.entries))
	copy(out, n.entries)
	return out
}

// Do implements agents.Client: it plays the role the instrumented CoDeeN
// proxy plays for a real client request.
func (n *Node) Do(req agents.Request) agents.Response {
	if n.down.Load() {
		// Crashed: a real dead proxy answers nothing; the
		// simulator's closest honest equivalent is an immediate 503 so
		// drivers can observe the outage and re-route.
		n.stats.unavailable.Add(1)
		return agents.Response{Status: 503, ContentType: "text/plain", Body: nodeDownBody}
	}
	n.stats.requests.Add(1)

	key := session.Key{IP: req.IP, UserAgent: req.UserAgent}
	d := n.cfg.Engine

	// The optional CAPTCHA participation pseudo-path: issue a challenge and
	// have the (simulated) human solve it.
	if req.Path == agents.CaptchaSolvePath {
		if n.cfg.Captcha != nil {
			ch := n.cfg.Captcha.Issue(key)
			if answer, ok := n.cfg.Captcha.Answer(ch.ID); ok && n.cfg.Captcha.Verify(ch.ID, answer) {
				d.MarkCaptchaPassed(key)
				n.stats.captchaSolved.Add(1)
			}
		} else {
			d.MarkCaptchaPassed(key)
			n.stats.captchaSolved.Add(1)
		}
		return agents.Response{Status: 200, ContentType: "text/plain", Body: []byte("ok")}
	}

	// Instrumentation traffic (beacons, generated objects, hidden links).
	// These requests are excluded from session request counting (HandleBeacon
	// marks signals instead) but they do appear in the access log, exactly as
	// they would in a real proxy's log.
	if resp, ok := d.HandleBeacon(req.IP, req.UserAgent, req.Path); ok {
		n.stats.instrumentationHits.Add(1)
		if n.recording.Load() {
			n.log(requestEntry(req, resp.Status, resp.ContentType, int64(len(resp.Body))))
		}
		return agents.Response{Status: resp.Status, ContentType: resp.ContentType, Body: resp.Body}
	}

	// Replicated block list, checked before local session state: a session
	// blocked anywhere in the fleet is refused here even though this node
	// may never have tracked it. The check is one lookup in the policy
	// engine's table under its lock; it only runs in fleet mode so
	// isolated-node behaviour is bit-identical to before.
	if n.rep != nil && n.cfg.Policy != nil && n.cfg.Policy.IsBlocked(key) {
		n.stats.blockedRequests.Add(1)
		n.stats.fleetBlocked.Add(1)
		n.observe(req, 403, "text/html", 0)
		return agents.Response{Status: 403, ContentType: "text/html", Body: []byte("<html><body>blocked</body></html>")}
	}

	// Policy enforcement before serving origin content: the escalation
	// ladder runs off the engine's stored verdict and the session's current
	// snapshot; a page is prepared from the same verdict, the request's one
	// read.
	var verdict core.Verdict
	if n.cfg.Policy != nil {
		if snap, v, tracked := d.Decide(key); tracked {
			verdict = v
			decision := n.cfg.Policy.Evaluate(*snap, verdict)
			snap.Release()
			switch decision.Action {
			case policy.Block:
				n.stats.blockedRequests.Add(1)
				n.observe(req, 403, "text/html", 0)
				return agents.Response{Status: 403, ContentType: "text/html", Body: []byte("<html><body>blocked</body></html>")}
			case policy.Challenge:
				n.stats.challengedRequests.Add(1)
				n.observe(req, 429, "text/plain", 0)
				return agents.Response{Status: 429, ContentType: "text/plain", Body: []byte("challenge: " + decision.Reason)}
			case policy.Throttle:
				n.stats.throttledRequests.Add(1)
			}
		}
	}

	obj := n.cfg.Site.Lookup(req.Path)
	body := obj.Body
	// Admission control mirrors the live proxy: under pressure anonymous
	// arrivals get degraded instrumentation, and a saturated node serves
	// brand-new clients uninstrumented pass-through without tracking them,
	// so simulated flash crowds exercise the same degradation ladder the
	// deployment runs.
	adm := d.AdmitPage(req.IP, req.UserAgent)
	if n.rep != nil && adm == core.AdmitFull {
		// Partition failover: a session this node has never seen but another
		// node owns gets degraded instrumentation (its real key still
		// proves humanity) while a handoff backfills its evidence from
		// the partition owner in the background. The serve path never waits.
		adm = n.failoverAdmission(key, adm)
	}
	if adm != core.AdmitPassThrough && instrumentable(obj, req.Method) {
		// The same prepared-injection pipeline the proxy serves: page state,
		// composed fragments, streaming rewrite — not a bespoke buffered
		// path. The simulator has no connection to keep the state on, and the
		// rewritten body is allocated per request anyway.
		if n.cfg.Policy == nil { // no policy step read the verdict: the page makes the one read
			snap, v, _ := d.Decide(key)
			snap.Release()
			verdict = v
		}
		var ps core.PageState
		res := d.Prepare(verdict, adm, req.IP, &ps).Rewrite(obj.Body)
		d.RecordInstrumented(len(obj.Body), res.AddedBytes)
		body = res.HTML
	}
	if adm == core.AdmitPassThrough {
		// Shed: served but neither instrumented nor observed into the
		// tracker. The access log still sees it, as a real proxy's would.
		if n.recording.Load() {
			n.log(requestEntry(req, obj.Status, obj.ContentType, int64(len(obj.Body))))
		}
	} else {
		n.observe(req, obj.Status, obj.ContentType, int64(len(obj.Body)))
	}
	n.stats.originBytes.Add(int64(len(obj.Body)))
	return agents.Response{Status: obj.Status, ContentType: obj.ContentType, Body: body, RedirectTo: obj.RedirectTo}
}

// instrumentable reports whether the origin object is an HTML page view the
// engine instruments.
func instrumentable(obj webmodel.Object, method string) bool {
	return obj.Status == 200 && method == "GET" && logfmt.IsHTMLType(obj.ContentType)
}

// requestEntry is the access-log record of req answered with status,
// contentType and bytes of body.
func requestEntry(req agents.Request, status int, contentType string, bytes int64) logfmt.Entry {
	return logfmt.Entry{
		Time: req.Time, ClientIP: req.IP, UserAgent: req.UserAgent, Method: req.Method,
		Path: req.Path, Status: status, Bytes: bytes, Referer: req.Referer, ContentType: contentType,
	}
}

// observe records a non-instrumentation request with the detector's session
// tracker and the node's recording.
func (n *Node) observe(req agents.Request, status int, contentType string, bytes int64) {
	entry := requestEntry(req, status, contentType, bytes)
	// The snapshot a plain Observe returns would be discarded here.
	n.cfg.Engine.ObserveRequestQuiet(entry)
	if n.rep != nil {
		// Fleet mode: sessions are partitioned, and the partition owner must
		// see every request so cross-node evidence aggregates somewhere. The
		// forward is a bounded-outbox enqueue — never a wait.
		n.forwardObservation(entry)
	}
	if n.recording.Load() {
		n.log(entry)
	}
}

// log appends to the node's in-memory recording; callers check
// n.recording first so the common path builds no Entry.
func (n *Node) log(entry logfmt.Entry) {
	n.mu.Lock()
	n.entries = append(n.entries, entry)
	n.mu.Unlock()
}

// Network is a set of nodes sharing one origin site, with clients pinned to
// nodes by hashing their IP (CoDeeN clients similarly stick to a nearby
// proxy).
type Network struct {
	nodes []*Node
	tel   *telemetry.ServeMetrics

	// Fleet state (nil until EnableReplication): the partition ring that
	// routes clients and name → node lookups; repStopped ends the
	// replicators' step event on the clock.
	ring       *fleet.Ring
	byName     map[string]*Node
	index      map[string]int
	repStopped atomic.Bool
}

// NewNetwork builds a network of numNodes nodes, each with its own detector
// (sharing the configuration) and optional policy/captcha services cloned
// per node.
//
// The fleet shares one telemetry registry: serve-path histograms aggregate
// across nodes (one fleet-wide latency distribution per stage), while each
// engine's, policy ladder's and node's counters carry a node label so a
// single scrape of Network.WriteMetrics tells the nodes apart.
func NewNetwork(numNodes int, site *webmodel.Site, detCfg core.Config, withPolicy bool, seed uint64) *Network {
	if numNodes <= 0 {
		numNodes = 1
	}
	src := rng.New(seed).Fork("cdn-network")
	net := &Network{tel: telemetry.NewServeMetrics(nil)}
	for i := 0; i < numNodes; i++ {
		cfg := detCfg
		cfg.Seed = src.Uint64()
		cfg.Telemetry = net.tel
		cfg.TelemetryNode = nodeName(i)
		var pol *policy.Engine
		if withPolicy {
			pol = policy.NewEngine(policy.Config{Clock: detCfg.Clock})
			pol.RegisterMetrics(net.tel.Registry(), nodeName(i))
		}
		node := NewNode(NodeConfig{
			Name:    nodeName(i),
			Site:    site,
			Engine:  core.New(cfg),
			Policy:  pol,
			Captcha: captcha.NewService(captcha.Config{Seed: src.Uint64(), Clock: detCfg.Clock}),
		})
		node.RegisterMetrics(net.tel.Registry())
		net.nodes = append(net.nodes, node)
	}
	return net
}

// WriteMetrics renders the whole fleet's metrics — shared stage histograms
// plus every node's labelled counters and gauges — in the Prometheus text
// format, without pausing any node.
func (n *Network) WriteMetrics(w io.Writer) error {
	return n.tel.Registry().WritePrometheus(w)
}

func nodeName(i int) string {
	return "codeen-" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10))
}

// Nodes returns the network's nodes.
func (n *Network) Nodes() []*Node { return n.nodes }

// NodeFor returns the node serving the given client IP. In fleet mode the
// client routes to its session partition's first live owner — so a client
// whose node dies fails over to the replica that can serve it degraded and
// recover its evidence.
func (n *Network) NodeFor(ip string) *Node {
	return n.nodes[n.routeIndex(ip)]
}

// nodeIndex hashes a client IP onto a node, pinning each client to one
// proxy the way CoDeeN clients stick to a nearby node. It routes on the
// address's FNV-1a hash mixed (rng.Mix64): each node's keystore picks a
// client's shard from the low bits of the raw hash, so routing on those
// would leave most of every node's shards empty (with four nodes and eight
// shards, each node would fill two), and the raw hash's upper bits are too
// weak on short addresses to route on (1,000 consecutive addresses leave
// one node of four without a client).
func (n *Network) nodeIndex(ip string) int {
	return int(rng.Mix64(shard.HashString(ip)) % uint64(len(n.nodes)))
}

// Do implements agents.Client by routing to the client's node.
func (n *Network) Do(req agents.Request) agents.Response {
	return n.NodeFor(req.IP).Do(req)
}

// SetModel hot-swaps a (re)trained AdaBoost model onto every node's engine.
// The swap is a single atomic store per node — serving continues uninterrupted,
// which is how the online training loop publishes models to a live fleet.
// In fleet mode the swap is also published through the replication plane, so
// a node that is down right now backfills the model via anti-entropy when it
// comes back.
func (n *Network) SetModel(m *adaboost.Model) {
	var publisher *Node
	for _, node := range n.nodes {
		if node.down.Load() {
			continue
		}
		node.Engine().SetModel(m)
		if publisher == nil {
			publisher = node
		}
	}
	if publisher != nil && publisher.rep != nil {
		publisher.rep.PublishModel(m)
	}
}

// FlushSessions ends all sessions on all live nodes and returns them. A down
// node is skipped: its sessions died with it.
func (n *Network) FlushSessions() []core.ClassifiedSession {
	var out []core.ClassifiedSession
	for _, node := range n.nodes {
		if !node.down.Load() {
			out = append(out, node.Engine().FlushSessions()...)
		}
	}
	return out
}

// TotalStats aggregates node counters. A crashed node's counters are atomics
// the crash does not touch, so it contributes them like a live one.
func (n *Network) TotalStats() NodeStats {
	var total NodeStats
	for _, node := range n.nodes {
		total.add(node.Stats())
	}
	return total
}

// EngineStats aggregates detection-engine counters across nodes.
func (n *Network) EngineStats() core.Stats {
	var total core.Stats
	for _, node := range n.nodes {
		s := node.Engine().Stats()
		total.PagesInstrumented += s.PagesInstrumented
		total.PagesLite += s.PagesLite
		total.OriginalBytes += s.OriginalBytes
		total.AddedBytes += s.AddedBytes
		total.MouseBeacons += s.MouseBeacons
		total.DecoyBeacons += s.DecoyBeacons
		total.ReplayBeacons += s.ReplayBeacons
		total.UnknownBeacons += s.UnknownBeacons
		total.ExecBeacons += s.ExecBeacons
		total.CSSBeacons += s.CSSBeacons
		total.ScriptServes += s.ScriptServes
		total.ScriptExpired += s.ScriptExpired
		total.HiddenHits += s.HiddenHits
		total.UAReports += s.UAReports
		total.UAMismatches += s.UAMismatches
		total.ShedPassThrough += s.ShedPassThrough
		total.ShedDegraded += s.ShedDegraded
	}
	return total
}

// ComplaintModel converts monthly robot-abuse volume into abuse complaints,
// reproducing the causal structure behind Figure 3: operators of victim
// sites complain in proportion to the un-throttled robot traffic that
// reaches them, with diminishing returns (one very abusive robot produces a
// bounded number of complaints). Complaint counts are drawn from a Poisson
// distribution so month-to-month variation resembles the published curve.
type ComplaintModel struct {
	// RequestsPerComplaint is the expected un-throttled robot request volume
	// that generates one complaint.
	RequestsPerComplaint float64
	// BaselineHuman is the expected number of complaints per month caused by
	// non-robot issues (hackers exploiting PHP/SQL holes, in the paper's
	// words); these do not go away when robot detection is deployed.
	BaselineHuman float64
	// Src drives the Poisson draws.
	Src *rng.Source
}

// MonthlyComplaints is one month's outcome.
type MonthlyComplaints struct {
	// Month labels the month (e.g. "Jan").
	Month string
	// Robot is the number of robot-related complaints.
	Robot int
	// Human is the number of complaints attributable to human abusers.
	Human int
}

// Total returns robot + human complaints.
func (m MonthlyComplaints) Total() int { return m.Robot + m.Human }

// Complaints maps allowed robot request volumes to complaint counts.
func (cm ComplaintModel) Complaints(months []string, allowedRobotRequests []float64) []MonthlyComplaints {
	src := cm.Src
	if src == nil {
		src = rng.New(2005)
	}
	rpc := cm.RequestsPerComplaint
	if rpc <= 0 {
		rpc = 50000
	}
	out := make([]MonthlyComplaints, 0, len(months))
	for i, m := range months {
		var vol float64
		if i < len(allowedRobotRequests) {
			vol = allowedRobotRequests[i]
		}
		robot := src.Poisson(vol / rpc)
		human := src.Poisson(cm.BaselineHuman)
		out = append(out, MonthlyComplaints{Month: m, Robot: robot, Human: human})
	}
	return out
}

// Months2005 is the Figure 3 x axis: the months of 2005 plus January 2006.
var Months2005 = []string{"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec", "Jan06"}

// DeploymentTimeline models the operational history behind Figure 3 and
// returns the allowed (un-throttled) robot request volume per month.
//
// The network grows from smallNodes to largeNodes in expansionMonth
// (CoDeeN's February 2005 expansion from 100 US nodes to 300+ worldwide);
// robot traffic grows with the deployment and with robots discovering the
// open proxies (a ramp peaking mid-year); the browser-test detector plus
// aggressive rate limiting deploy in detectionMonth (late August 2005) and
// cut the allowed robot volume by blockedFraction; mouse-movement detection
// deploys in mouseMonth (January 2006) and cuts it further.
func DeploymentTimeline(smallNodes, largeNodes int, expansionMonth, detectionMonth, mouseMonth int,
	requestsPerNodePerMonth float64, robotShare, blockedFraction, mouseBlockedFraction float64) []float64 {
	out := make([]float64, len(Months2005))
	for i := range out {
		nodes := smallNodes
		if i >= expansionMonth {
			nodes = largeNodes
		}
		// Robots discover the expanded network gradually and then saturate.
		discovery := 1.0
		if i >= expansionMonth {
			ramp := float64(i-expansionMonth+1) / 4.0
			if ramp > 2.0 {
				ramp = 2.0
			}
			discovery = ramp
		}
		volume := float64(nodes) * requestsPerNodePerMonth * robotShare * discovery
		if i >= detectionMonth {
			volume *= 1 - blockedFraction
		}
		if i >= mouseMonth {
			volume *= 1 - mouseBlockedFraction
		}
		out[i] = volume
	}
	return out
}
