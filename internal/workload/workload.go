// Package workload drives populations of traffic agents against the CDN
// simulator on a virtual clock, producing labelled session sets for the
// evaluation experiments. The default client mix is calibrated so that the
// Table 1 signal shares (CSS downloads, JavaScript execution, mouse events,
// CAPTCHA passes, hidden-link fetches, browser-type mismatches) land in the
// neighbourhood the paper reports for CoDeeN's January 2006 traffic.
package workload

import (
	"fmt"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/cdn"
	"botdetect/internal/clock"
	"botdetect/internal/core"
	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
	"botdetect/internal/session"
	"botdetect/internal/webmodel"
)

// Mix gives the relative weight of each agent family in the generated
// traffic. Weights need not sum to 1.
type Mix struct {
	HumanJS         float64
	HumanNoJS       float64
	Crawler         float64
	EmailHarvester  float64
	ReferrerSpammer float64
	ClickFraud      float64
	VulnScanner     float64
	OfflineBrowser  float64
	SmartBot        float64
	// SmartBotForgedUA is a smart bot whose script engine reports a different
	// agent string than its forged header (caught by the mismatch check).
	SmartBotForgedUA float64
}

// CoDeeNMix returns the default mix, calibrated against Table 1: roughly a
// quarter of sessions are human (most with JavaScript enabled), the bulk of
// robot sessions are referrer spammers, click-fraud generators and
// harvesters that ignore presentation objects, and only a sliver of sessions
// follow hidden links or reveal forged agents.
func CoDeeNMix() Mix {
	return Mix{
		HumanJS:          0.225,
		HumanNoJS:        0.020,
		Crawler:          0.008,
		EmailHarvester:   0.300,
		ReferrerSpammer:  0.230,
		ClickFraud:       0.120,
		VulnScanner:      0.050,
		OfflineBrowser:   0.004,
		SmartBot:         0.036,
		SmartBotForgedUA: 0.007,
	}
}

// HumanOnlyMix is a convenience mix with only human agents.
func HumanOnlyMix() Mix { return Mix{HumanJS: 0.92, HumanNoJS: 0.08} }

// RobotOnlyMix is a convenience mix with only robot agents.
func RobotOnlyMix() Mix {
	return Mix{Crawler: 0.1, EmailHarvester: 0.3, ReferrerSpammer: 0.25, ClickFraud: 0.15, VulnScanner: 0.1, OfflineBrowser: 0.02, SmartBot: 0.08}
}

// weightsAndKinds flattens the mix in a stable order.
func (m Mix) weightsAndKinds() ([]float64, []agents.Kind, []bool) {
	kinds := []agents.Kind{
		agents.KindHuman, agents.KindHumanNoJS, agents.KindCrawler, agents.KindEmailHarvester,
		agents.KindReferrerSpammer, agents.KindClickFraud, agents.KindVulnScanner,
		agents.KindOfflineBrowser, agents.KindSmartBot, agents.KindSmartBot,
	}
	weights := []float64{
		m.HumanJS, m.HumanNoJS, m.Crawler, m.EmailHarvester, m.ReferrerSpammer,
		m.ClickFraud, m.VulnScanner, m.OfflineBrowser, m.SmartBot, m.SmartBotForgedUA,
	}
	forged := []bool{false, false, false, false, false, false, false, false, false, true}
	return weights, kinds, forged
}

// Config controls a workload run.
type Config struct {
	// Sessions is the number of agent sessions to generate.
	Sessions int
	// Mix is the agent family mix (default CoDeeNMix).
	Mix Mix
	// HumanPages is the mean page views per human session (heavy-tailed).
	HumanPages int
	// HumanMouseProbability is the per-page-view probability that a
	// JavaScript-enabled human produces an input event before navigating
	// away (default 0.85). Lower values stretch the mouse-detection latency
	// tail, as slower or less mouse-active users did in the live deployment.
	HumanMouseProbability float64
	// RobotRequests is the mean steps per robot session.
	RobotRequests int
	// RecordLogs keeps all request entries for offline analysis.
	RecordLogs bool
	// Prepare, when non-nil, runs after the network is built and before any
	// agent is scheduled. It receives the network and the virtual clock, so
	// callers can pre-load models (cdn.Network.SetModel) or schedule
	// mid-run interventions — e.g. hot-swapping a freshly trained model at a
	// virtual time while traffic is being served, as the online-training
	// experiment does.
	Prepare func(*cdn.Network, *clock.Virtual)
	// Seed drives all randomness.
	Seed uint64
}

const (
	// nodes is the number of CDN nodes; they run detection without an
	// enforcement ladder, so every session is observed to its end.
	nodes = 4
	// captchaParticipation is the probability a human session takes the
	// optional CAPTCHA (paper: roughly 9% of all sessions passed it, i.e.
	// about 0.38 of the human share).
	captchaParticipation = 0.38
	// sessionArrivalRate is mean session arrivals per second.
	sessionArrivalRate = 2.0
	// eventsPerSession bounds the discrete-event simulation at this many
	// events per generated session (a safety valve).
	eventsPerSession = 2000
)

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 200
	}
	if c.Mix == (Mix{}) {
		c.Mix = CoDeeNMix()
	}
	if c.HumanPages <= 0 {
		c.HumanPages = 12
	}
	if c.HumanMouseProbability <= 0 {
		c.HumanMouseProbability = 0.85
	}
	if c.RobotRequests <= 0 {
		c.RobotRequests = 40
	}
	return c
}

// LabeledSession pairs an observed session with its detector verdict and its
// ground-truth agent kind.
type LabeledSession struct {
	Snapshot session.Snapshot
	Verdict  core.Verdict
	Kind     agents.Kind
}

// IsHuman is the ground-truth label.
func (l LabeledSession) IsHuman() bool { return l.Kind.IsHuman() }

// Result is the outcome of a workload run.
type Result struct {
	// Sessions are the completed sessions with verdicts and ground truth.
	Sessions []LabeledSession
	// Network is the simulated CDN (for stats inspection).
	Network *cdn.Network
	// GroundTruth maps session keys to agent kinds.
	GroundTruth map[session.Key]agents.Kind
	// Entries are the recorded request entries (empty unless RecordLogs).
	Entries []logfmt.Entry
}

// Snapshots returns the raw session snapshots.
func (r *Result) Snapshots() []session.Snapshot {
	out := make([]session.Snapshot, len(r.Sessions))
	for i, s := range r.Sessions {
		out[i] = s.Snapshot
	}
	return out
}

// Run executes the workload and returns the labelled sessions.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed).Fork("workload")
	// Virtual time starts on the first day of the paper's measurement week.
	vc := clock.NewVirtual(time.Date(2006, time.January, 6, 0, 0, 0, 0, time.UTC))
	site := webmodel.Generate(webmodel.SiteConfig{Seed: cfg.Seed ^ 0x5117, NumPages: 120})
	// The simulated deployment always obfuscates, as the paper's did.
	detCfg := core.Config{Clock: vc, ObfuscateJS: true}
	network := cdn.NewNetwork(nodes, site, detCfg, false, cfg.Seed^0xabcd)
	if cfg.RecordLogs {
		for _, node := range network.Nodes() {
			node.SetRecording(true)
		}
	}
	if cfg.Prepare != nil {
		cfg.Prepare(network, vc)
	}

	truth := make(map[session.Key]agents.Kind)
	weights, kinds, forged := cfg.Mix.weightsAndKinds()

	// Launch agents with exponential inter-arrival times.
	arrival := time.Duration(0)
	for i := 0; i < cfg.Sessions; i++ {
		pick := src.WeightedChoice(weights)
		kind := kinds[pick]
		isForged := forged[pick]
		ip := fmt.Sprintf("%d.%d.%d.%d", 11+i%80, (i/253)%253+1, (i%253)+1, 1+src.Intn(250))
		agent := buildAgent(kind, isForged, ip, site.Host(), cfg, src.Split())
		truth[session.Key{IP: agent.IP(), UserAgent: agent.UserAgent()}] = kind

		arrival += time.Duration(src.Exp(float64(time.Second) / sessionArrivalRate))
		scheduleAgent(vc, network, agent, arrival)
	}

	vc.Drain(cfg.Sessions * eventsPerSession)

	// Collect sessions: everything still active plus whatever ended during
	// the run is flushed now (the detector's OnSessionEnd callback is unused
	// by the driver; FlushSessions returns the final state of every session).
	classified := network.FlushSessions()

	result := &Result{Network: network, GroundTruth: truth}
	for _, cs := range classified {
		kind, ok := truth[cs.Snapshot.Key]
		if !ok {
			// A session keyed by an agent UA variant we did not launch should
			// not happen; skip defensively rather than mislabel.
			continue
		}
		result.Sessions = append(result.Sessions, LabeledSession{Snapshot: cs.Snapshot, Verdict: cs.Verdict, Kind: kind})
	}
	if cfg.RecordLogs {
		for _, node := range network.Nodes() {
			result.Entries = append(result.Entries, node.Entries()...)
		}
	}
	return result
}

// buildAgent constructs one agent of the requested kind.
func buildAgent(kind agents.Kind, forgedUA bool, ip, host string, cfg Config, src *rng.Source) agents.Agent {
	switch kind {
	case agents.KindHuman, agents.KindHumanNoJS:
		pages := 3 + src.Poisson(float64(cfg.HumanPages-3))
		return agents.NewHuman(agents.HumanConfig{
			IP:                   ip,
			Host:                 host,
			Pages:                pages,
			JavaScriptEnabled:    kind == agents.KindHuman,
			MouseMoveProbability: cfg.HumanMouseProbability,
			SolveCaptcha:         captchaParticipation,
			ThinkTimeMean:        15 * time.Second,
			Src:                  src,
		})
	default:
		rcfg := agents.RobotConfig{
			IP:               ip,
			Host:             host,
			Requests:         5 + src.Poisson(float64(cfg.RobotRequests-5)),
			InterRequestMean: 2 * time.Second,
			Src:              src,
		}
		switch kind {
		case agents.KindCrawler:
			return agents.NewCrawler(rcfg)
		case agents.KindEmailHarvester:
			return agents.NewEmailHarvester(rcfg)
		case agents.KindReferrerSpammer:
			return agents.NewReferrerSpammer(rcfg)
		case agents.KindClickFraud:
			return agents.NewClickFraud(rcfg)
		case agents.KindVulnScanner:
			return agents.NewVulnScanner(rcfg)
		case agents.KindOfflineBrowser:
			return agents.NewOfflineBrowser(rcfg)
		default: // KindSmartBot
			if forgedUA {
				rcfg.EngineAgent = "Mozilla/5.0 (embedded script engine) BotRuntime/0.9"
			}
			return agents.NewSmartBot(rcfg)
		}
	}
}

// scheduleAgent runs the agent's steps as virtual-clock events.
func scheduleAgent(vc *clock.Virtual, client agents.Client, agent agents.Agent, startDelay time.Duration) {
	var step func(now time.Time)
	step = func(now time.Time) {
		delay, done := agent.Step(client, now)
		if done {
			return
		}
		vc.Schedule(delay, step)
	}
	vc.Schedule(startDelay, step)
}
