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
	identity
	cfg       HumanConfig
	pagesLeft int
	current   string // current page path
	// lastPage is the previously viewed page path ("" before the first view).
	lastPage string
	// wantsCaptcha is decided once per session.
	wantsCaptcha bool
	didCaptcha   bool
}

// humanHandler is the input-event handler a human's browser runs: the
// injected script's default handler name.
const humanHandler = "__bd_f"

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
		identity:     identity{kind: kind, ip: cfg.IP, ua: PickBrowserAgent(cfg.Src)},
		cfg:          cfg,
		pagesLeft:    cfg.Pages,
		current:      "/",
		wantsCaptcha: cfg.Src.Bool(cfg.SolveCaptcha),
	}
}

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
	page := h.get(c, now, h.current, referer)
	h.lastPage = h.current

	if page.Status/100 == 3 && page.RedirectTo != "" {
		// Follow the redirect like a browser.
		h.current = page.RedirectTo
		page = h.get(c, now, h.current, referer)
		h.lastPage = h.current
	}

	if !page.isPage() {
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
		h.get(c, now, css, pageRef)
	}
	var scriptBodies []string
	for _, js := range sum.Scripts {
		if resp := h.get(c, now, js, pageRef); resp.Status == 200 {
			scriptBodies = append(scriptBodies, string(resp.Body))
		}
	}
	// Browsers cap concurrent object fetches; keep volume sane.
	for _, img := range sum.Images[:min(len(sum.Images), 12)] {
		h.get(c, now, img, pageRef)
	}
	// Fetch favicon on the first page view, as browsers do.
	if firstView {
		h.get(c, now, "/favicon.ico", "")
	}

	if h.cfg.JavaScriptEnabled {
		h.executeScripts(c, now, scriptBodies, pageRef)
	}

	// The optional CAPTCHA: at most once per session.
	if h.wantsCaptcha && !h.didCaptcha {
		h.didCaptcha = true
		h.get(c, now, CaptchaSolvePath, pageRef)
	}

	// Choose the next page among visible links (never the hidden ones),
	// the dynamic "Search" links among them.
	h.current = "/"
	if len(sum.Links) > 0 {
		h.current = sum.Links[h.cfg.Src.Intn(len(sum.Links))]
	}
	return h.thinkTime(), h.pagesLeft <= 0
}

// executeScripts simulates running the downloaded scripts: issue the
// execution beacon (which reports the true user agent) and, with the
// configured probability, the genuine input-event beacon.
func (h *Human) executeScripts(c Client, now time.Time, scripts []string, pageRef string) {
	for _, script := range scripts {
		if exec := execReport(script, h.ua); exec != "" {
			h.get(c, now, exec, pageRef)
		}
		if beacon := HandlerBeaconURL(script, humanHandler); beacon != "" {
			if h.cfg.Src.Bool(h.cfg.MouseMoveProbability) {
				h.get(c, now, stripHost(beacon), pageRef)
			}
		}
	}
}

func (h *Human) thinkTime() time.Duration {
	return min(max(time.Duration(h.cfg.Src.Exp(float64(h.cfg.ThinkTimeMean))), time.Second), 10*time.Minute)
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
