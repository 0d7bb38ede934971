package agents

import (
	"fmt"
	"strings"
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

func (c RobotConfig) delay() time.Duration {
	d := time.Duration(c.Src.Exp(float64(c.InterRequestMean)))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// Crawler is a well-behaved search-engine crawler: it declares itself in the
// User-Agent, fetches robots.txt first, walks HTML pages breadth-first
// following every link it finds (including invisible ones — it cannot tell),
// and never downloads presentation objects.
type Crawler struct {
	cfg      RobotConfig
	ua       string
	frontier []string
	visited  map[string]bool
	started  bool
	steps    int
}

// NewCrawler creates a crawler agent.
func NewCrawler(cfg RobotConfig) *Crawler {
	cfg = cfg.withDefaults()
	return &Crawler{
		cfg:      cfg,
		ua:       PickDeclaredBotAgent(cfg.Src),
		frontier: []string{"/"},
		visited:  map[string]bool{},
	}
}

// Kind implements Agent.
func (a *Crawler) Kind() Kind { return KindCrawler }

// IP implements Agent.
func (a *Crawler) IP() string { return a.cfg.IP }

// UserAgent implements Agent.
func (a *Crawler) UserAgent() string { return a.ua }

// Step implements Agent.
func (a *Crawler) Step(c Client, now time.Time) (time.Duration, bool) {
	if !a.started {
		a.started = true
		c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: "/robots.txt"})
		return a.cfg.delay(), false
	}
	if a.steps >= a.cfg.Requests || len(a.frontier) == 0 {
		return 0, true
	}
	a.steps++
	path := a.frontier[0]
	a.frontier = a.frontier[1:]
	if a.visited[path] {
		return a.cfg.delay(), a.steps >= a.cfg.Requests
	}
	a.visited[path] = true
	resp := c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: path})
	if strings.Contains(strings.ToLower(resp.ContentType), "text/html") && resp.Status == 200 {
		sum := htmlmod.Extract(resp.Body)
		// Crawlers follow every anchor, visible or not; they skip CSS/JS/images.
		for _, l := range append(append([]string{}, sum.Links...), sum.HiddenLinks...) {
			if !a.visited[l] && len(a.frontier) < 512 {
				a.frontier = append(a.frontier, l)
			}
		}
	}
	return a.cfg.delay(), a.steps >= a.cfg.Requests || len(a.frontier) == 0
}

// EmailHarvester walks HTML pages looking for addresses: HTML only, forged
// browser User-Agent, no referers, no embedded objects. Unlike crawlers and
// mirroring tools it navigates content links only (it is after pages likely
// to contain addresses), so it rarely trips the hidden-link trap — matching
// the small hidden-link share the paper observed.
type EmailHarvester struct {
	cfg     RobotConfig
	ua      string
	current string
	steps   int
}

// NewEmailHarvester creates an e-mail harvesting agent.
func NewEmailHarvester(cfg RobotConfig) *EmailHarvester {
	cfg = cfg.withDefaults()
	return &EmailHarvester{cfg: cfg, ua: PickBrowserAgent(cfg.Src), current: "/"}
}

// Kind implements Agent.
func (a *EmailHarvester) Kind() Kind { return KindEmailHarvester }

// IP implements Agent.
func (a *EmailHarvester) IP() string { return a.cfg.IP }

// UserAgent implements Agent.
func (a *EmailHarvester) UserAgent() string { return a.ua }

// Step implements Agent.
func (a *EmailHarvester) Step(c Client, now time.Time) (time.Duration, bool) {
	if a.steps >= a.cfg.Requests {
		return 0, true
	}
	a.steps++
	resp := c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: a.current})
	a.current = "/"
	if strings.Contains(strings.ToLower(resp.ContentType), "text/html") && resp.Status == 200 {
		sum := htmlmod.Extract(resp.Body)
		if len(sum.Links) > 0 {
			a.current = sum.Links[a.cfg.Src.Intn(len(sum.Links))]
		}
	}
	return a.cfg.delay(), a.steps >= a.cfg.Requests
}

// ReferrerSpammer requests pages carrying forged Referer headers pointing at
// the site it wants to promote, to pollute referer logs and trackbacks. It
// fetches HTML only, under a forged browser agent.
type ReferrerSpammer struct {
	cfg   RobotConfig
	ua    string
	spam  []string
	steps int
}

// NewReferrerSpammer creates a referrer-spamming agent.
func NewReferrerSpammer(cfg RobotConfig) *ReferrerSpammer {
	cfg = cfg.withDefaults()
	spamDomains := []string{"http://cheap-pills.example/", "http://win-big-casino.example/", "http://rank-me-up.example/page"}
	return &ReferrerSpammer{cfg: cfg, ua: PickBrowserAgent(cfg.Src), spam: spamDomains}
}

// Kind implements Agent.
func (a *ReferrerSpammer) Kind() Kind { return KindReferrerSpammer }

// IP implements Agent.
func (a *ReferrerSpammer) IP() string { return a.cfg.IP }

// UserAgent implements Agent.
func (a *ReferrerSpammer) UserAgent() string { return a.ua }

// Step implements Agent.
func (a *ReferrerSpammer) Step(c Client, now time.Time) (time.Duration, bool) {
	if a.steps >= a.cfg.Requests {
		return 0, true
	}
	a.steps++
	page := fmt.Sprintf("/page%d.html", a.cfg.Src.Intn(100))
	ref := a.spam[a.cfg.Src.Intn(len(a.spam))] + fmt.Sprintf("?cid=%d", a.cfg.Src.Intn(10000))
	c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: page, Referer: ref})
	return a.cfg.delay(), a.steps >= a.cfg.Requests
}

// ClickFraud generates automated click-throughs on dynamic ad/CGI URLs to
// inflate affiliate revenue: rapid CGI requests under a forged browser agent
// with fabricated referers.
type ClickFraud struct {
	cfg   RobotConfig
	ua    string
	steps int
}

// NewClickFraud creates a click-fraud agent.
func NewClickFraud(cfg RobotConfig) *ClickFraud {
	cfg = cfg.withDefaults()
	if cfg.InterRequestMean > time.Second {
		cfg.InterRequestMean = 500 * time.Millisecond
	}
	return &ClickFraud{cfg: cfg, ua: PickBrowserAgent(cfg.Src)}
}

// Kind implements Agent.
func (a *ClickFraud) Kind() Kind { return KindClickFraud }

// IP implements Agent.
func (a *ClickFraud) IP() string { return a.cfg.IP }

// UserAgent implements Agent.
func (a *ClickFraud) UserAgent() string { return a.ua }

// Step implements Agent.
func (a *ClickFraud) Step(c Client, now time.Time) (time.Duration, bool) {
	if a.steps >= a.cfg.Requests {
		return 0, true
	}
	a.steps++
	path := fmt.Sprintf("/cgi-bin/app%d.cgi?ad=%d&click=%d", a.cfg.Src.Intn(5), a.cfg.Src.Intn(50), a.steps)
	ref := absoluteReferer(a.cfg.Host, fmt.Sprintf("/page%d.html", a.cfg.Src.Intn(100)))
	c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: path, Referer: ref})
	return a.cfg.delay(), a.steps >= a.cfg.Requests
}

// VulnScanner probes for exploitable scripts and misconfigurations: HEAD and
// GET requests against paths that mostly do not exist, producing heavy 4xx
// traffic under a forged or fake agent.
type VulnScanner struct {
	cfg    RobotConfig
	ua     string
	steps  int
	probes []string
}

// NewVulnScanner creates a vulnerability-scanning agent.
func NewVulnScanner(cfg RobotConfig) *VulnScanner {
	cfg = cfg.withDefaults()
	probes := []string{
		"/phpmyadmin/index.php", "/admin/login.php", "/cgi-bin/awstats.pl",
		"/xmlrpc.php", "/cgi-bin/formmail.pl", "/scripts/root.exe",
		"/_vti_bin/owssvr.dll", "/cgi-bin/php4", "/horde/README", "/wp-login.php",
	}
	return &VulnScanner{cfg: cfg, ua: PickBrowserAgent(cfg.Src), probes: probes}
}

// Kind implements Agent.
func (a *VulnScanner) Kind() Kind { return KindVulnScanner }

// IP implements Agent.
func (a *VulnScanner) IP() string { return a.cfg.IP }

// UserAgent implements Agent.
func (a *VulnScanner) UserAgent() string { return a.ua }

// Step implements Agent.
func (a *VulnScanner) Step(c Client, now time.Time) (time.Duration, bool) {
	if a.steps >= a.cfg.Requests {
		return 0, true
	}
	a.steps++
	method := "GET"
	if a.cfg.Src.Bool(0.3) {
		method = "HEAD"
	}
	path := a.probes[a.cfg.Src.Intn(len(a.probes))]
	if a.cfg.Src.Bool(0.4) {
		path = fmt.Sprintf("/cgi-bin/test%d.cgi?cmd=%%3Bcat+/etc/passwd", a.cfg.Src.Intn(1000))
	}
	c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: method, Path: path})
	return a.cfg.delay(), a.steps >= a.cfg.Requests
}

// OfflineBrowser mirrors pages for later display: it downloads pages AND all
// embedded objects (so it fetches the injected CSS and script files like a
// browser) but it follows every link including hidden ones and blindly
// fetches every URL it can scrape out of scripts — including decoy beacons —
// because it does not execute JavaScript.
type OfflineBrowser struct {
	cfg      RobotConfig
	ua       string
	frontier []string
	visited  map[string]bool
	steps    int
}

// NewOfflineBrowser creates an off-line browsing (site mirroring) agent.
func NewOfflineBrowser(cfg RobotConfig) *OfflineBrowser {
	cfg = cfg.withDefaults()
	ua := "Teleport Pro/1.29"
	if cfg.Src.Bool(0.5) {
		ua = PickBrowserAgent(cfg.Src) // many mirroring tools forge browser agents
	}
	return &OfflineBrowser{cfg: cfg, ua: ua, frontier: []string{"/"}, visited: map[string]bool{}}
}

// Kind implements Agent.
func (a *OfflineBrowser) Kind() Kind { return KindOfflineBrowser }

// IP implements Agent.
func (a *OfflineBrowser) IP() string { return a.cfg.IP }

// UserAgent implements Agent.
func (a *OfflineBrowser) UserAgent() string { return a.ua }

// Step implements Agent.
func (a *OfflineBrowser) Step(c Client, now time.Time) (time.Duration, bool) {
	if a.steps >= a.cfg.Requests || len(a.frontier) == 0 {
		return 0, true
	}
	a.steps++
	path := a.frontier[0]
	a.frontier = a.frontier[1:]
	if a.visited[path] {
		return a.cfg.delay(), a.steps >= a.cfg.Requests
	}
	a.visited[path] = true
	resp := c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: path})
	if strings.Contains(strings.ToLower(resp.ContentType), "text/html") && resp.Status == 200 {
		sum := htmlmod.Extract(resp.Body)
		for _, obj := range sum.Stylesheets {
			c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: obj, Referer: absoluteReferer(a.cfg.Host, path)})
		}
		for _, obj := range sum.Scripts {
			scriptResp := c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: obj, Referer: absoluteReferer(a.cfg.Host, path)})
			if scriptResp.Status == 200 {
				// Blindly scrape and fetch every URL inside the script; the
				// decoy functions catch exactly this behaviour.
				for _, u := range AllBeaconURLs(string(scriptResp.Body)) {
					c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: stripHost(u)})
				}
			}
		}
		for _, obj := range sum.Images {
			c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: obj, Referer: absoluteReferer(a.cfg.Host, path)})
		}
		for _, l := range append(append([]string{}, sum.Links...), sum.HiddenLinks...) {
			if !a.visited[l] && len(a.frontier) < 512 {
				a.frontier = append(a.frontier, l)
			}
		}
	}
	return a.cfg.delay(), a.steps >= a.cfg.Requests || len(a.frontier) == 0
}

// SmartBot is the countermeasure-aware robot discussed in Section 4.1: it
// forges a browser agent, downloads stylesheets and scripts, and even
// executes the JavaScript (issuing the execution beacon and reporting its
// forged agent string) — but it generates no input events and is careful not
// to fetch hidden links or decoys. It is caught by the S_JS − S_MM rule.
type SmartBot struct {
	cfg     RobotConfig
	ua      string
	current string
	steps   int
}

// NewSmartBot creates a JavaScript-executing robot.
func NewSmartBot(cfg RobotConfig) *SmartBot {
	cfg = cfg.withDefaults()
	return &SmartBot{cfg: cfg, ua: PickBrowserAgent(cfg.Src), current: "/"}
}

// Kind implements Agent.
func (a *SmartBot) Kind() Kind { return KindSmartBot }

// IP implements Agent.
func (a *SmartBot) IP() string { return a.cfg.IP }

// UserAgent implements Agent.
func (a *SmartBot) UserAgent() string { return a.ua }

// Step implements Agent.
func (a *SmartBot) Step(c Client, now time.Time) (time.Duration, bool) {
	if a.steps >= a.cfg.Requests {
		return 0, true
	}
	a.steps++
	pageRef := absoluteReferer(a.cfg.Host, a.current)
	resp := c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: a.current})
	a.current = "/"
	if strings.Contains(strings.ToLower(resp.ContentType), "text/html") && resp.Status == 200 {
		sum := htmlmod.Extract(resp.Body)
		for _, css := range sum.Stylesheets {
			c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: css, Referer: pageRef})
		}
		for _, js := range sum.Scripts {
			scriptResp := c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: js, Referer: pageRef})
			if scriptResp.Status == 200 {
				// "Execute" the script: the execution beacon fires and reports
				// what the bot's script engine believes its agent string is.
				// A careful bot reports its forged header string (no
				// mismatch); a sloppier one leaks its real engine identity.
				if exec := execBeaconURL(string(scriptResp.Body)); exec != "" {
					reported := a.ua
					if a.cfg.EngineAgent != "" {
						reported = a.cfg.EngineAgent
					}
					path := stripHost(exec) + "?ua=" + normalizeAgentForReport(reported)
					c.Do(Request{Time: now, IP: a.cfg.IP, UserAgent: a.ua, Method: "GET", Path: path, Referer: pageRef})
				}
			}
		}
		if len(sum.Links) > 0 {
			a.current = sum.Links[a.cfg.Src.Intn(len(sum.Links))]
		}
	}
	return a.cfg.delay(), a.steps >= a.cfg.Requests
}
