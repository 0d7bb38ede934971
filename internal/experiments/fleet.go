package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"botdetect/internal/adaboost"
	"botdetect/internal/agents"
	"botdetect/internal/cdn"
	"botdetect/internal/chaos"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/detect"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

// The size of the distributed control-plane run: a 3-node fleet facing a
// coordinated crawler that stays under every isolated engine's decision
// threshold.
const (
	// fleetNodes is the fleet size.
	fleetNodes = 3
	// fleetCrawlers is the number of coordinated crawler identities.
	fleetCrawlers = 24
	// fleetRequestsPerNode is how many requests each crawler sends to EACH
	// node — kept below the engine's MinRequests decision floor (10) so a
	// single isolated engine can never classify the session.
	fleetRequestsPerNode = 9
	// fleetBogusPer10 of every ten crawler requests aim at nonexistent
	// paths; the resulting 404s (a 0.4 share) push the aggregated session
	// over the policy's 0.3 error-share block threshold.
	fleetBogusPer10 = 4
	// fleetHumans is the number of genuine browsing clients mixed into the
	// run; none of them may ever be refused.
	fleetHumans = 12
)

// FleetResult is the distributed control-plane report. The same coordinated
// crawler workload runs twice — once against isolated per-node engines, once
// against the replicated fleet — and the fleet arm additionally survives a
// node kill mid-run, an asymmetric partition, and a fleet-wide model publish.
type FleetResult struct {
	Nodes           int   `json:"nodes"`
	Crawlers        int   `json:"crawlers"`
	RequestsPerNode int   `json:"crawler_requests_per_node"`
	CrawlerRequests int64 `json:"crawler_requests"`
	HumanRequests   int64 `json:"human_requests"`

	// Headline: the same crawler fleet against isolated engines vs the
	// replicated fleet.
	IsolatedRobotVerdicts   int   `json:"isolated_robot_verdicts"`
	IsolatedCrawlersBlocked int   `json:"isolated_crawlers_blocked"`
	FleetRobotVerdicts      int   `json:"fleet_robot_verdicts"`
	FleetCrawlersBlocked    int   `json:"fleet_crawlers_blocked"`
	HumansBlocked           int64 `json:"humans_blocked"`
	FailoverDegraded        int64 `json:"failover_degraded_serves"`

	// Node kill mid-run: every epoch the victim had acked before the crash
	// must survive on the peers (loss is bounded by the ack watermark), and a
	// restarted node backfills its wiped stores by anti-entropy.
	KilledNode              string  `json:"killed_node"`
	AckedEpochAtKill        uint64  `json:"acked_epoch_at_kill"`
	VerdictsLostBeyondBound uint64  `json:"verdicts_lost_beyond_bound"`
	BlockedOnRestartedNode  int     `json:"blocked_on_restarted_node"`
	BackfillSec             float64 `json:"backfill_sec"`

	// Partition: the minority side degrades to isolated-engine mode, both
	// sides keep publishing, and healing converges every replica.
	MinorityIsolated     bool    `json:"minority_isolated_during_partition"`
	PartitionCutMessages int64   `json:"partition_cut_messages"`
	PartitionConvergeSec float64 `json:"partition_converge_sec"`

	// Single-trainer model publication.
	ModelPublished bool `json:"model_published_fleet_wide"`

	// Replication lag percentiles (worst node).
	ReplicationLagP50Ms float64 `json:"replication_lag_p50_ms"`
	ReplicationLagP99Ms float64 `json:"replication_lag_p99_ms"`

	// Publish-path contention bench: concurrent goroutines driving
	// PublishVerdict/PublishBlock on one replicator.
	PublishGoroutines int     `json:"publish_goroutines"`
	PublishOps        int     `json:"publish_ops"`
	PublishNsPerOp    float64 `json:"publish_ns_per_op"`

	DurationSec float64 `json:"duration_sec"`
}

// fleetArmCounts aggregates one traffic arm's request outcomes.
type fleetArmCounts struct {
	crawlerReqs, humanReqs, human403 int64
}

// humanGet sends one request from the h-th genuine client through normal
// routing and counts it; a 403 is a human refused.
func (c *fleetArmCounts) humanGet(net *cdn.Network, vc *clock.Virtual, h int, path string) {
	k := humanKey(h)
	resp := net.Do(agents.Request{Time: vc.Now(), IP: k.IP, UserAgent: k.UserAgent, Method: "GET", Path: path})
	c.humanReqs++
	if resp.Status == 403 {
		c.human403++
	}
}

// crawlerKey returns the i-th coordinated crawler's identity.
func crawlerKey(i int) session.Key {
	return session.Key{
		IP:        "10.80." + strconv.Itoa(i/200) + "." + strconv.Itoa(1+i%200),
		UserAgent: "SpreadCrawler/" + strconv.Itoa(i),
	}
}

// humanKey returns the h-th genuine client's identity.
func humanKey(h int) session.Key {
	return session.Key{
		IP:        "10.90.0." + strconv.Itoa(1+h),
		UserAgent: "Mozilla/5.0 (human " + strconv.Itoa(h) + ")",
	}
}

// driveFleetTraffic replays the coordinated-crawler-plus-humans workload:
// every crawler addresses each node DIRECTLY (the botnet picks its open
// proxies; it does not go through client routing), keeping its per-node
// request count below the decision floor, while humans browse through normal
// routing with a CAPTCHA pass up front. Identical traffic runs against both
// arms — only the control plane differs.
func driveFleetTraffic(net *cdn.Network, vc *clock.Virtual, site *webmodel.Site, counts *fleetArmCounts) {
	pages := site.Pages()
	// The bogus requests are spread evenly so every crawler lands on exactly
	// fleetBogusPer10 in ten across its aggregated request stream (a random
	// mix would let unlucky crawlers dip under the policy's error-share
	// threshold).

	for h := 0; h < fleetHumans; h++ {
		counts.humanGet(net, vc, h, agents.CaptchaSolvePath)
	}
	for r := 0; r < fleetRequestsPerNode; r++ {
		for h := 0; h < fleetHumans; h++ {
			counts.humanGet(net, vc, h, pages[(r*7+h)%len(pages)].Path)
		}
		for c := 0; c < fleetCrawlers; c++ {
			k := crawlerKey(c)
			for ni, nd := range net.Nodes() {
				seq := r*len(net.Nodes()) + ni // position in this crawler's aggregated stream
				var path string
				if (seq*7)%10 < fleetBogusPer10 {
					path = "/archive/" + strconv.Itoa(c) + "/" + strconv.Itoa(r) + "/missing.html"
				} else {
					path = pages[(c+r)%len(pages)].Path
				}
				nd.Do(agents.Request{Time: vc.Now(), IP: k.IP, UserAgent: k.UserAgent, Method: "GET", Path: path})
				counts.crawlerReqs++
			}
		}
		// A whole second of model time between rounds: per isolated node each
		// crawler runs at 1 req/s — below every rate threshold too. Running
		// the clock (not just moving it) is what steps the replicated arm.
		vc.RunUntil(vc.Now().Add(time.Second))
	}
}

// crawlerRobotVerdicts counts crawlers holding a robot verdict anywhere —
// in the replicated verdict store (Definite verdicts travel the fleet) or on
// any engine's own verdict table (the partition owner's aggregated
// session is what crosses the decision floor in fleet mode).
func crawlerRobotVerdicts(net *cdn.Network) int {
	robotAt := func(nd *cdn.Node, k session.Key) bool {
		if rep := nd.Replicator(); rep != nil {
			if vr, ok := rep.VerdictFor(k); ok && vr.Verdict.Class == detect.ClassRobot {
				return true
			}
		}
		snap, verdict, tracked := nd.Engine().Decide(k)
		if tracked {
			snap.Release()
		}
		return tracked && verdict.Class == detect.ClassRobot
	}
	n := 0
	for c := 0; c < fleetCrawlers; c++ {
		for _, nd := range net.Nodes() {
			if !nd.Down() && robotAt(nd, crawlerKey(c)) {
				n++
				break
			}
		}
	}
	return n
}

// crawlersBlocked counts crawlers refused on every live node (everywhere) or
// on at least one (anywhere).
func crawlersBlocked(net *cdn.Network, everywhere bool) int {
	n := 0
	for c := 0; c < fleetCrawlers; c++ {
		k := crawlerKey(c)
		blockedAll, blockedAny := true, false
		for _, nd := range net.Nodes() {
			if nd.Down() || nd.Policy() == nil {
				blockedAll = false
				continue
			}
			if nd.Policy().IsBlocked(k) {
				blockedAny = true
			} else {
				blockedAll = false
			}
		}
		if (everywhere && blockedAll) || (!everywhere && blockedAny) {
			n++
		}
	}
	return n
}

// fleetConverged reports whether every live replicator holds an identical
// verdict/block digest.
func fleetConverged(net *cdn.Network) bool {
	d0 := net.Nodes()[0].Replicator().Digest()
	for _, nd := range net.Nodes() {
		if nd.Down() || nd.Replicator().Digest() != d0 {
			return false
		}
	}
	return true
}

// runFleetUntil runs the fleet's virtual clock — the replicators step as
// events on it — a millisecond at a time until cond holds or d has passed,
// and reports whether cond held.
func runFleetUntil(vc *clock.Virtual, d time.Duration, cond func() bool) bool {
	for deadline := vc.Now().Add(d); !cond(); vc.RunUntil(vc.Now().Add(time.Millisecond)) {
		if !vc.Now().Before(deadline) {
			return false
		}
	}
	return true
}

// FleetBench runs the distributed control-plane experiment: the coordinated
// crawler evades N isolated engines but is blocked fleet-wide once verdict
// and block-list replication aggregate its evidence at the session's
// partition owner; a node kill, an asymmetric partition and a model publish
// then exercise the failure modes the replication layer exists for.
func FleetBench(seed uint64) FleetResult {
	if seed == 0 {
		seed = DefaultScale().Seed
	}
	start := time.Now()
	site := webmodel.Generate(webmodel.SiteConfig{Seed: 11, NumPages: 24})
	out := FleetResult{Nodes: fleetNodes, Crawlers: fleetCrawlers, RequestsPerNode: fleetRequestsPerNode}

	// Arm 1: isolated engines. Every node classifies alone; each sees only
	// 1/Nodes of any crawler's requests and never reaches its decision floor.
	{
		vc := clock.NewVirtual(time.Time{})
		net := cdn.NewNetwork(fleetNodes, site, core.Config{Seed: seed, Clock: vc}, true, seed)
		var counts fleetArmCounts
		driveFleetTraffic(net, vc, site, &counts)
		out.IsolatedRobotVerdicts = crawlerRobotVerdicts(net)
		out.IsolatedCrawlersBlocked = crawlersBlocked(net, false)
	}

	// Arm 2: the replicated fleet, with message-layer fault injection armed.
	links := chaos.NewLinks()
	vc := clock.NewVirtual(time.Time{})
	net := cdn.NewNetwork(fleetNodes, site, core.Config{Seed: seed, Clock: vc}, true, seed)
	net.EnableReplication(cdn.FleetConfig{Intercept: links.Intercept, Seed: seed})
	defer net.StopReplication()
	runFleetUntil(vc, 5*time.Second, func() bool {
		for _, nd := range net.Nodes() {
			if nd.Replicator().UpPeers() != fleetNodes-1 {
				return false
			}
		}
		return true
	})

	var counts fleetArmCounts
	driveFleetTraffic(net, vc, site, &counts)
	out.CrawlerRequests = counts.crawlerReqs

	// Replication is asynchronous to the serve path: give the forwarded
	// observations, ladder escalations and block broadcasts (virtual) time to
	// drain.
	runFleetUntil(vc, 20*time.Second, func() bool {
		return crawlersBlocked(net, true) == fleetCrawlers
	})
	out.FleetRobotVerdicts = crawlerRobotVerdicts(net)
	out.FleetCrawlersBlocked = crawlersBlocked(net, true)

	// Replication lag percentiles over the flood (collected now, before the
	// kill/partition phases: anti-entropy backfill deliberately re-applies old
	// entries, which would read as huge lag). A node with no samples reads 0.
	for _, nd := range net.Nodes() {
		p50, _ := nd.Replicator().LagQuantile(0.50)
		p99, _ := nd.Replicator().LagQuantile(0.99)
		out.ReplicationLagP50Ms = max(out.ReplicationLagP50Ms, float64(p50.Nanoseconds())/1e6)
		out.ReplicationLagP99Ms = max(out.ReplicationLagP99Ms, float64(p99.Nanoseconds())/1e6)
	}

	// Node kill mid-run. Everything the victim's peers acknowledged must
	// survive the crash; the wiped node backfills by anti-entropy after
	// restarting under a new incarnation.
	victim := net.Nodes()[fleetNodes-1]
	vrep := victim.Replicator()
	runFleetUntil(vc, 5*time.Second, func() bool { return vrep.MinAckedEpoch() > 0 })
	minAcked := vrep.MinAckedEpoch()
	out.KilledNode = victim.Name()
	out.AckedEpochAtKill = minAcked
	victim.Crash()
	for _, nd := range net.Nodes() {
		if nd == victim {
			continue
		}
		if wm := nd.Replicator().Watermark(victim.Name()); wm < minAcked {
			out.VerdictsLostBeyondBound += minAcked - wm
		}
	}
	// Humans keep browsing while the node is dead: routing fails them over to
	// their partition's replica, which serves immediately (degraded).
	for r := 0; r < 3; r++ {
		for h := 0; h < fleetHumans; h++ {
			counts.humanGet(net, vc, h, site.Pages()[(r+h)%len(site.Pages())].Path)
		}
		vc.RunUntil(vc.Now().Add(time.Second))
	}
	restartAt := vc.Now()
	victim.Restart()
	runFleetUntil(vc, 20*time.Second, func() bool { return fleetConverged(net) })
	out.BackfillSec = vc.Now().Sub(restartAt).Seconds()
	for c := 0; c < fleetCrawlers; c++ {
		if victim.Policy().IsBlocked(crawlerKey(c)) {
			out.BlockedOnRestartedNode++
		}
	}

	// Asymmetric partition: the first node is cut off from the rest, degrades
	// to isolated-engine mode (quorum loss), both sides keep deriving
	// verdicts, and healing converges every replica — anti-entropy repairs
	// whatever the outboxes gave up on while the links were dark.
	minority := net.Nodes()[0]
	rest := make([]string, 0, fleetNodes-1)
	for _, nd := range net.Nodes()[1:] {
		rest = append(rest, nd.Name())
	}
	links.Partition([]string{minority.Name()}, rest)
	runFleetUntil(vc, 10*time.Second, func() bool { return minority.Replicator().Isolated() })
	out.MinorityIsolated = minority.Replicator().Isolated()
	minority.Replicator().PublishVerdict(
		session.Key{IP: "10.91.0.1", UserAgent: "minority-side"},
		detect.Verdict{Class: detect.ClassHuman, Confidence: detect.Definite, Rule: detect.RuleCaptcha}, vc.Now().Add(time.Hour))
	net.Nodes()[1].Replicator().PublishVerdict(
		session.Key{IP: "10.91.0.2", UserAgent: "majority-side"},
		detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleHidden}, vc.Now().Add(time.Hour))
	vc.RunUntil(vc.Now().Add(50 * time.Millisecond))
	healAt := vc.Now()
	links.Heal()
	runFleetUntil(vc, 20*time.Second, func() bool {
		if !fleetConverged(net) {
			return false
		}
		for _, nd := range net.Nodes() {
			if _, ok := nd.Replicator().VerdictFor(session.Key{IP: "10.91.0.1", UserAgent: "minority-side"}); !ok {
				return false
			}
			if _, ok := nd.Replicator().VerdictFor(session.Key{IP: "10.91.0.2", UserAgent: "majority-side"}); !ok {
				return false
			}
		}
		return true
	})
	out.PartitionConvergeSec = vc.Now().Sub(healAt).Seconds()
	out.PartitionCutMessages = links.CutMessages()

	// Single-trainer model publication: one SetModel reaches every engine.
	m := &adaboost.Model{TrainingError: 0.0625}
	net.SetModel(m)
	out.ModelPublished = runFleetUntil(vc, 5*time.Second, func() bool {
		for _, nd := range net.Nodes() {
			got := nd.Engine().Model()
			if got == nil || got.TrainingError != m.TrainingError {
				return false
			}
			if _, seq := nd.Replicator().Model(); seq == 0 {
				return false
			}
		}
		return true
	})

	// Publish-path contention: concurrent goroutines hammering one
	// replicator's verdict/block publish paths (the paths every serve-path
	// export hook rides).
	g := min(max(runtime.GOMAXPROCS(0), 2), 8)
	const perG = 1024
	rep0 := net.Nodes()[0].Replicator()
	until := vc.Now().Add(time.Hour)
	benchStart := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := session.Key{
					IP:        "10.99." + strconv.Itoa(w) + "." + strconv.Itoa(i%250),
					UserAgent: "bench/" + strconv.Itoa(w) + "/" + strconv.Itoa(i),
				}
				if i%2 == 0 {
					rep0.PublishVerdict(k, detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, until)
				} else {
					rep0.PublishBlock(k, until)
				}
			}
		}(w)
	}
	wg.Wait()
	benchElapsed := time.Since(benchStart)
	out.PublishGoroutines = g
	out.PublishOps = g * perG
	out.PublishNsPerOp = float64(benchElapsed.Nanoseconds()) / float64(out.PublishOps)

	out.HumanRequests = counts.humanReqs
	out.HumansBlocked = counts.human403
	for _, nd := range net.Nodes() {
		out.FailoverDegraded += nd.Stats().FailoverDegraded
	}
	out.DurationSec = time.Since(start).Seconds()
	return out
}

// JSON renders the result as indented JSON (the BENCH_fleet.json artifact).
func (r FleetResult) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return []byte("{}")
	}
	return append(b, '\n')
}

// Format renders the result as text.
func (r FleetResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Fault-tolerant fleet (replicated verdict/block-list control plane)\n")
	fmt.Fprintf(&sb, "  crawler:               %d identities x %d req/node across %d nodes (%d requests)\n",
		r.Crawlers, r.RequestsPerNode, r.Nodes, r.CrawlerRequests)
	fmt.Fprintf(&sb, "  isolated engines:      %d robot verdicts, %d crawlers blocked (crawler evades)\n",
		r.IsolatedRobotVerdicts, r.IsolatedCrawlersBlocked)
	fmt.Fprintf(&sb, "  replicated fleet:      %d robot verdicts, %d/%d crawlers blocked on every node\n",
		r.FleetRobotVerdicts, r.FleetCrawlersBlocked, r.Crawlers)
	fmt.Fprintf(&sb, "  humans:                %d requests, %d refused (failover-degraded serves: %d)\n",
		r.HumanRequests, r.HumansBlocked, r.FailoverDegraded)
	fmt.Fprintf(&sb, "  node kill:             %s at acked epoch %d, %d verdicts lost beyond bound; restart backfilled in %.2fs, %d blocks restored\n",
		r.KilledNode, r.AckedEpochAtKill, r.VerdictsLostBeyondBound, r.BackfillSec, r.BlockedOnRestartedNode)
	fmt.Fprintf(&sb, "  partition:             minority isolated=%v, %d messages cut, converged %.2fs after heal\n",
		r.MinorityIsolated, r.PartitionCutMessages, r.PartitionConvergeSec)
	fmt.Fprintf(&sb, "  model publication:     fleet-wide=%v\n", r.ModelPublished)
	fmt.Fprintf(&sb, "  replication lag:       p50 %.2fms p99 %.2fms (worst node)\n",
		r.ReplicationLagP50Ms, r.ReplicationLagP99Ms)
	fmt.Fprintf(&sb, "  publish contention:    %d goroutines x %d ops, %.0f ns/op\n",
		r.PublishGoroutines, r.PublishOps/max(r.PublishGoroutines, 1), r.PublishNsPerOp)
	fmt.Fprintf(&sb, "  duration:              %.1fs\n", r.DurationSec)
	return sb.String()
}
