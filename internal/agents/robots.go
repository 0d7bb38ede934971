package agents

import (
	"fmt"
	"time"

	"botdetect/internal/htmlmod"
	"botdetect/internal/rng"
)

// RobotConfig parameterises a robot agent.
type RobotConfig struct {
	// IP is the client address.
	IP string
	// Host is the site host for forged referers.
	Host string
	// Requests is the approximate number of steps the robot performs (a step
	// is one page fetch plus whatever else the robot type does).
	Requests int
	// InterRequestMean is the mean delay between steps. Robots are typically
	// much faster than humans.
	InterRequestMean time.Duration
	// EngineAgent, for JavaScript-executing robots, is the agent string their
	// embedded script engine reports. When empty the robot reports the same
	// (forged) string it sends in the User-Agent header, evading the
	// browser-type-mismatch check; when set to a different string the
	// mismatch is detectable (the paper's Table 1 "Browser type mismatch").
	EngineAgent string
	// Src drives the agent's randomness.
	Src *rng.Source
}

func (c RobotConfig) withDefaults() RobotConfig {
	if c.Src == nil {
		c.Src = rng.New(2)
	}
	if c.Requests <= 0 {
		c.Requests = 20 + c.Src.Intn(80)
	}
	if c.InterRequestMean <= 0 {
		c.InterRequestMean = 2 * time.Second
	}
	if c.Host == "" {
		c.Host = "www.example.com"
	}
	return c
}

// robot is the skeleton every robot type shares: its identity, its
// configuration and its step budget. A type adds only its own state and
// Step.
type robot struct {
	identity
	cfg   RobotConfig
	steps int
}

// newRobot applies cfg's defaults, then picks the robot's User-Agent from
// cfg.Src: every robot draws its budget before its agent string.
func newRobot(kind Kind, cfg RobotConfig, pickAgent func(*rng.Source) string) robot {
	cfg = cfg.withDefaults()
	return robot{identity: identity{kind: kind, ip: cfg.IP, ua: pickAgent(cfg.Src)}, cfg: cfg}
}

// next takes one step of the budget; it reports false when the budget is
// spent.
func (r *robot) next() bool {
	if r.steps >= r.cfg.Requests {
		return false
	}
	r.steps++
	return true
}

// delay draws the pause before the robot's next step.
func (r *robot) delay() time.Duration {
	return max(time.Duration(r.cfg.Src.Exp(float64(r.cfg.InterRequestMean))), 100*time.Millisecond)
}

// pause ends a step: the delay to the next one and whether the budget is
// spent.
func (r *robot) pause() (time.Duration, bool) {
	return r.delay(), r.steps >= r.cfg.Requests
}

// walker is the breadth-first walk Crawler and OfflineBrowser share: from
// "/" it fetches each queued path once and queues every link of a page,
// visible or hidden alike — a robot cannot tell — up to 512 queued.
type walker struct {
	robot
	queue   []string
	visited map[string]bool
}

func newWalker(r robot) walker {
	return walker{robot: r, queue: []string{"/"}, visited: map[string]bool{}}
}

// walk takes one step of the walk. onPage, when not nil, runs on each page
// fetched, before its links are queued.
func (w *walker) walk(c Client, now time.Time, onPage func(path string, sum htmlmod.PageSummary)) (time.Duration, bool) {
	if len(w.queue) == 0 || !w.next() {
		return 0, true
	}
	path := w.queue[0]
	w.queue = w.queue[1:]
	if w.visited[path] {
		return w.pause()
	}
	w.visited[path] = true
	if resp := w.get(c, now, path, ""); resp.isPage() {
		sum := htmlmod.Extract(resp.Body)
		if onPage != nil {
			onPage(path, sum)
		}
		for _, links := range [][]string{sum.Links, sum.HiddenLinks} {
			for _, l := range links {
				if !w.visited[l] && len(w.queue) < 512 {
					w.queue = append(w.queue, l)
				}
			}
		}
	}
	d, done := w.pause()
	return d, done || len(w.queue) == 0
}

// Crawler is a well-behaved search-engine crawler: it declares itself in the
// User-Agent, fetches robots.txt first, walks HTML pages breadth-first
// following every link it finds (including invisible ones — it cannot tell),
// and never downloads presentation objects.
type Crawler struct {
	walker
	started bool
}

// NewCrawler creates a crawler agent.
func NewCrawler(cfg RobotConfig) *Crawler {
	return &Crawler{walker: newWalker(newRobot(KindCrawler, cfg, PickDeclaredBotAgent))}
}

// Step implements Agent.
func (a *Crawler) Step(c Client, now time.Time) (time.Duration, bool) {
	if !a.started {
		a.started = true
		a.get(c, now, "/robots.txt", "")
		return a.delay(), false
	}
	return a.walk(c, now, nil)
}

// EmailHarvester walks HTML pages looking for addresses: HTML only, forged
// browser User-Agent, no referers, no embedded objects. Unlike crawlers and
// mirroring tools it navigates content links only (it is after pages likely
// to contain addresses), so it rarely trips the hidden-link trap — matching
// the small hidden-link share the paper observed.
type EmailHarvester struct {
	robot
	current string
}

// NewEmailHarvester creates an e-mail harvesting agent.
func NewEmailHarvester(cfg RobotConfig) *EmailHarvester {
	return &EmailHarvester{robot: newRobot(KindEmailHarvester, cfg, PickBrowserAgent), current: "/"}
}

// Step implements Agent.
func (a *EmailHarvester) Step(c Client, now time.Time) (time.Duration, bool) {
	if !a.next() {
		return 0, true
	}
	resp := a.get(c, now, a.current, "")
	a.current = "/"
	if resp.isPage() {
		if sum := htmlmod.Extract(resp.Body); len(sum.Links) > 0 {
			a.current = sum.Links[a.cfg.Src.Intn(len(sum.Links))]
		}
	}
	return a.pause()
}

// spamReferers are the sites a ReferrerSpammer promotes.
var spamReferers = []string{"http://cheap-pills.example/", "http://win-big-casino.example/", "http://rank-me-up.example/page"}

// ReferrerSpammer requests pages carrying forged Referer headers pointing at
// the site it wants to promote, to pollute referer logs and trackbacks. It
// fetches HTML only, under a forged browser agent.
type ReferrerSpammer struct{ robot }

// NewReferrerSpammer creates a referrer-spamming agent.
func NewReferrerSpammer(cfg RobotConfig) *ReferrerSpammer {
	return &ReferrerSpammer{newRobot(KindReferrerSpammer, cfg, PickBrowserAgent)}
}

// Step implements Agent.
func (a *ReferrerSpammer) Step(c Client, now time.Time) (time.Duration, bool) {
	if !a.next() {
		return 0, true
	}
	page := fmt.Sprintf("/page%d.html", a.cfg.Src.Intn(100))
	ref := spamReferers[a.cfg.Src.Intn(len(spamReferers))] + fmt.Sprintf("?cid=%d", a.cfg.Src.Intn(10000))
	a.get(c, now, page, ref)
	return a.pause()
}

// ClickFraud generates automated click-throughs on dynamic ad/CGI URLs to
// inflate affiliate revenue: rapid CGI requests under a forged browser agent
// with fabricated referers.
type ClickFraud struct{ robot }

// NewClickFraud creates a click-fraud agent.
func NewClickFraud(cfg RobotConfig) *ClickFraud {
	a := &ClickFraud{newRobot(KindClickFraud, cfg, PickBrowserAgent)}
	if a.cfg.InterRequestMean > time.Second {
		a.cfg.InterRequestMean = 500 * time.Millisecond
	}
	return a
}

// Step implements Agent.
func (a *ClickFraud) Step(c Client, now time.Time) (time.Duration, bool) {
	if !a.next() {
		return 0, true
	}
	path := fmt.Sprintf("/cgi-bin/app%d.cgi?ad=%d&click=%d", a.cfg.Src.Intn(5), a.cfg.Src.Intn(50), a.steps)
	a.get(c, now, path, absoluteReferer(a.cfg.Host, fmt.Sprintf("/page%d.html", a.cfg.Src.Intn(100))))
	return a.pause()
}

// vulnProbes are the scripts and admin pages a VulnScanner probes for.
var vulnProbes = []string{
	"/phpmyadmin/index.php", "/admin/login.php", "/cgi-bin/awstats.pl",
	"/xmlrpc.php", "/cgi-bin/formmail.pl", "/scripts/root.exe",
	"/_vti_bin/owssvr.dll", "/cgi-bin/php4", "/horde/README", "/wp-login.php",
}

// VulnScanner probes for exploitable scripts and misconfigurations: HEAD and
// GET requests against paths that mostly do not exist, producing heavy 4xx
// traffic under a forged or fake agent.
type VulnScanner struct{ robot }

// NewVulnScanner creates a vulnerability-scanning agent.
func NewVulnScanner(cfg RobotConfig) *VulnScanner {
	return &VulnScanner{newRobot(KindVulnScanner, cfg, PickBrowserAgent)}
}

// Step implements Agent.
func (a *VulnScanner) Step(c Client, now time.Time) (time.Duration, bool) {
	if !a.next() {
		return 0, true
	}
	method := "GET"
	if a.cfg.Src.Bool(0.3) {
		method = "HEAD"
	}
	path := vulnProbes[a.cfg.Src.Intn(len(vulnProbes))]
	if a.cfg.Src.Bool(0.4) {
		path = fmt.Sprintf("/cgi-bin/test%d.cgi?cmd=%%3Bcat+/etc/passwd", a.cfg.Src.Intn(1000))
	}
	c.Do(Request{Time: now, IP: a.ip, UserAgent: a.ua, Method: method, Path: path})
	return a.pause()
}

// OfflineBrowser mirrors pages for later display: it downloads pages AND all
// embedded objects (so it fetches the injected CSS and script files like a
// browser) but it follows every link including hidden ones and blindly
// fetches every URL it can scrape out of scripts — including decoy beacons —
// because it does not execute JavaScript.
type OfflineBrowser struct{ walker }

// NewOfflineBrowser creates an off-line browsing (site mirroring) agent.
func NewOfflineBrowser(cfg RobotConfig) *OfflineBrowser {
	return &OfflineBrowser{newWalker(newRobot(KindOfflineBrowser, cfg, func(src *rng.Source) string {
		if src.Bool(0.5) {
			return PickBrowserAgent(src) // many mirroring tools forge browser agents
		}
		return "Teleport Pro/1.29"
	}))}
}

// Step implements Agent.
func (a *OfflineBrowser) Step(c Client, now time.Time) (time.Duration, bool) {
	return a.walk(c, now, func(path string, sum htmlmod.PageSummary) {
		ref := absoluteReferer(a.cfg.Host, path)
		for _, obj := range sum.Stylesheets {
			a.get(c, now, obj, ref)
		}
		for _, obj := range sum.Scripts {
			if resp := a.get(c, now, obj, ref); resp.Status == 200 {
				// Blindly scrape and fetch every URL inside the script; the
				// decoy functions catch exactly this behaviour.
				for _, u := range AllBeaconURLs(string(resp.Body)) {
					a.get(c, now, stripHost(u), "")
				}
			}
		}
		for _, obj := range sum.Images {
			a.get(c, now, obj, ref)
		}
	})
}

// SmartBot is the countermeasure-aware robot discussed in Section 4.1: it
// forges a browser agent, downloads stylesheets and scripts, and even
// executes the JavaScript (issuing the execution beacon and reporting its
// forged agent string) — but it generates no input events and is careful not
// to fetch hidden links or decoys. It is caught by the S_JS − S_MM rule.
type SmartBot struct {
	robot
	current string
}

// NewSmartBot creates a JavaScript-executing robot.
func NewSmartBot(cfg RobotConfig) *SmartBot {
	return &SmartBot{robot: newRobot(KindSmartBot, cfg, PickBrowserAgent), current: "/"}
}

// Step implements Agent.
func (a *SmartBot) Step(c Client, now time.Time) (time.Duration, bool) {
	if !a.next() {
		return 0, true
	}
	pageRef := absoluteReferer(a.cfg.Host, a.current)
	resp := a.get(c, now, a.current, "")
	a.current = "/"
	if resp.isPage() {
		sum := htmlmod.Extract(resp.Body)
		for _, css := range sum.Stylesheets {
			a.get(c, now, css, pageRef)
		}
		for _, js := range sum.Scripts {
			// "Execute" the script: the execution beacon fires and reports
			// what the bot's script engine believes its agent string is. A
			// careful bot reports its forged header string (no mismatch); a
			// sloppier one leaks its real engine identity.
			if script := a.get(c, now, js, pageRef); script.Status == 200 {
				reported := a.ua
				if a.cfg.EngineAgent != "" {
					reported = a.cfg.EngineAgent
				}
				if exec := execReport(string(script.Body), reported); exec != "" {
					a.get(c, now, exec, pageRef)
				}
			}
		}
		if len(sum.Links) > 0 {
			a.current = sum.Links[a.cfg.Src.Intn(len(sum.Links))]
		}
	}
	return a.pause()
}
