package agents

import (
	"strings"
	"time"

	"botdetect/internal/htmlmod"
	"botdetect/internal/rng"
)

// HumanConfig parameterises a human browsing session.
type HumanConfig struct {
	// IP is the client address.
	IP string
	// Host is the site host (for absolute referers).
	Host string
	// Pages is the number of page views in the session (drawn by the
	// workload if zero).
	Pages int
	// JavaScriptEnabled is false for the 4-6% of users who disable JS.
	JavaScriptEnabled bool
	// MouseMoveProbability is the chance a page view produces an input event
	// before the user navigates away (JS-enabled users only). Real users
	// essentially always move the mouse eventually; per-page it is high.
	MouseMoveProbability float64
	// ThinkTimeMean is the mean think time between page views.
	ThinkTimeMean time.Duration
	// SolveCaptcha is the probability the user accepts the optional CAPTCHA
	// (the paper's incentive experiment saw 9.1% of sessions do so).
	SolveCaptcha float64
	// Src drives the agent's randomness.
	Src *rng.Source
}

// Human simulates a person driving a standard graphical browser: it fetches
// pages, their stylesheets, scripts and images, executes the injected
// JavaScript when enabled (issuing the execution beacon), produces mouse
// events that trigger the genuine handler beacon, follows only visible
// links, and never touches hidden links or decoy URLs.
type Human struct {
	cfg       HumanConfig
	ua        string
	kind      Kind
	pagesLeft int
	current   string // current page path
	handler   string // handler function name to "execute"
	// lastPage is the previously viewed page path ("" before the first view).
	lastPage string
	// wantsCaptcha is decided once per session.
	wantsCaptcha bool
	didCaptcha   bool
}

// NewHuman creates a human agent.
func NewHuman(cfg HumanConfig) *Human {
	if cfg.Src == nil {
		cfg.Src = rng.New(1)
	}
	if cfg.Pages <= 0 {
		cfg.Pages = 5 + int(cfg.Src.Pareto(5, 1.4))
	}
	if cfg.MouseMoveProbability <= 0 {
		cfg.MouseMoveProbability = 0.85
	}
	if cfg.ThinkTimeMean <= 0 {
		cfg.ThinkTimeMean = 20 * time.Second
	}
	if cfg.Host == "" {
		cfg.Host = "www.example.com"
	}
	kind := KindHuman
	if !cfg.JavaScriptEnabled {
		kind = KindHumanNoJS
	}
	return &Human{
		cfg:          cfg,
		ua:           PickBrowserAgent(cfg.Src),
		kind:         kind,
		pagesLeft:    cfg.Pages,
		current:      "/",
		handler:      "__bd_f",
		wantsCaptcha: cfg.Src.Bool(cfg.SolveCaptcha),
	}
}

// Kind implements Agent.
func (h *Human) Kind() Kind { return h.kind }

// IP implements Agent.
func (h *Human) IP() string { return h.cfg.IP }

// UserAgent implements Agent.
func (h *Human) UserAgent() string { return h.ua }

// Step performs one page view: the page itself, its embedded objects
// (original and injected), JavaScript execution, and possibly an input
// event, then picks the next visible link to follow.
func (h *Human) Step(c Client, now time.Time) (time.Duration, bool) {
	if h.pagesLeft <= 0 {
		return 0, true
	}
	h.pagesLeft--
	firstView := h.lastPage == ""

	// After the first page view the referer is the previously viewed page.
	referer := ""
	if !firstView {
		referer = absoluteReferer(h.cfg.Host, h.lastPage)
	}
	page := c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: h.current, Referer: referer})
	h.lastPage = h.current

	if page.Status/100 == 3 && page.RedirectTo != "" {
		// Follow the redirect like a browser.
		h.current = page.RedirectTo
		page = c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: h.current, Referer: referer})
		h.lastPage = h.current
	}

	if !strings.Contains(strings.ToLower(page.ContentType), "text/html") || page.Status != 200 {
		// Dead end: go back to the home page next time.
		h.current = "/"
		return h.thinkTime(), h.pagesLeft <= 0
	}

	sum := htmlmod.Extract(page.Body)
	pageRef := absoluteReferer(h.cfg.Host, h.current)

	// Browsers fetch presentation objects: stylesheets first, then scripts,
	// then images, all with the page as referer. Humans never fetch the
	// hidden trap link.
	for _, css := range sum.Stylesheets {
		c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: css, Referer: pageRef})
	}
	var scriptBodies []string
	for _, js := range sum.Scripts {
		resp := c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: js, Referer: pageRef})
		if resp.Status == 200 {
			scriptBodies = append(scriptBodies, string(resp.Body))
		}
	}
	for i, img := range sum.Images {
		if i >= 12 { // browsers cap concurrent object fetches; keep volume sane
			break
		}
		c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: img, Referer: pageRef})
	}
	// Fetch favicon on the first page view, as browsers do.
	if firstView {
		c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: "/favicon.ico", Referer: ""})
	}

	if h.cfg.JavaScriptEnabled {
		h.executeScripts(c, now, scriptBodies, pageRef)
	}

	// The optional CAPTCHA: at most once per session.
	if h.wantsCaptcha && !h.didCaptcha {
		h.didCaptcha = true
		c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: CaptchaSolvePath, Referer: pageRef})
	}

	// Choose the next page among visible links (never the hidden ones).
	if len(sum.Links) > 0 {
		next := sum.Links[h.cfg.Src.Intn(len(sum.Links))]
		// Humans occasionally click the dynamic "Search" links too.
		h.current = next
	} else {
		h.current = "/"
	}
	return h.thinkTime(), h.pagesLeft <= 0
}

// executeScripts simulates running the downloaded scripts: issue the
// execution beacon (which reports the true user agent) and, with the
// configured probability, the genuine input-event beacon.
func (h *Human) executeScripts(c Client, now time.Time, scripts []string, pageRef string) {
	for _, script := range scripts {
		if exec := execBeaconURL(script); exec != "" {
			path := stripHost(exec) + "?ua=" + normalizeAgentForReport(h.ua)
			c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: path, Referer: pageRef})
		}
		if beacon := HandlerBeaconURL(script, h.handler); beacon != "" {
			if h.cfg.Src.Bool(h.cfg.MouseMoveProbability) {
				c.Do(Request{Time: now, IP: h.cfg.IP, UserAgent: h.ua, Method: "GET", Path: stripHost(beacon), Referer: pageRef})
			}
		}
	}
}

func (h *Human) thinkTime() time.Duration {
	d := time.Duration(h.cfg.Src.Exp(float64(h.cfg.ThinkTimeMean)))
	if d < time.Second {
		d = time.Second
	}
	if d > 10*time.Minute {
		d = 10 * time.Minute
	}
	return d
}

// stripHost removes a scheme://host prefix, keeping the path (+query).
func stripHost(u string) string {
	if i := strings.Index(u, "://"); i >= 0 {
		rest := u[i+3:]
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			return rest[j:]
		}
		return "/"
	}
	return u
}

// normalizeAgentForReport mimics the injected script's normalisation of
// navigator.userAgent (lower-case, spaces removed).
func normalizeAgentForReport(ua string) string {
	return strings.ReplaceAll(strings.ToLower(ua), " ", "")
}
