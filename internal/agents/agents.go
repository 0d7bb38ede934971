// Package agents implements the synthetic traffic sources that substitute
// for CoDeeN's live Internet clients: a human browser model and the robot
// families the paper names (search-engine crawlers, e-mail harvesters,
// referrer spammers, click-fraud generators, vulnerability scanners,
// off-line browsers, and "smart" bots that execute JavaScript). Each agent
// drives HTTP-level requests against a Client (the simulator or a live
// proxy adapter) and is labelled with ground truth for evaluation.
package agents

import (
	"time"

	"botdetect/internal/logfmt"
	"botdetect/internal/rng"
)

// Request is one client request an agent issues.
type Request struct {
	// Time is the virtual time of the request.
	Time time.Time
	// IP and UserAgent identify the session the request belongs to.
	IP        string
	UserAgent string
	// Method and Path describe the request line; Referer may be empty.
	Method  string
	Path    string
	Referer string
}

// Response is what the client returns to the agent.
type Response struct {
	// Status is the HTTP status code.
	Status int
	// ContentType is the response content type.
	ContentType string
	// Body is the response body (page markup, script text, ...).
	Body []byte
	// RedirectTo is the Location target for 3xx responses.
	RedirectTo string
}

// isPage reports whether the response is a page an agent reads: a 200
// whose content type is HTML.
func (r Response) isPage() bool { return r.Status == 200 && logfmt.IsHTMLType(r.ContentType) }

// Client abstracts "the thing the agent talks to": in the simulator it is a
// CDN node wrapping the detector and the synthetic site; in live tests it can
// adapt net/http.
type Client interface {
	Do(req Request) Response
}

// Kind labels an agent family; it is the evaluation ground truth.
type Kind int

const (
	// KindHuman is a human user driving a standard browser.
	KindHuman Kind = iota
	// KindHumanNoJS is a human user with JavaScript disabled.
	KindHumanNoJS
	// KindCrawler is a well-behaved search-engine crawler.
	KindCrawler
	// KindEmailHarvester collects addresses from HTML only.
	KindEmailHarvester
	// KindReferrerSpammer sends forged Referer headers.
	KindReferrerSpammer
	// KindClickFraud generates automated ad/CGI click-throughs.
	KindClickFraud
	// KindVulnScanner probes for exploitable scripts.
	KindVulnScanner
	// KindOfflineBrowser mirrors whole sites for later display.
	KindOfflineBrowser
	// KindSmartBot executes JavaScript but generates no input events.
	KindSmartBot
)

// kindNames are the kinds' names, indexed by kind.
var kindNames = [...]string{
	KindHuman: "human", KindHumanNoJS: "human-nojs", KindCrawler: "crawler",
	KindEmailHarvester: "email-harvester", KindReferrerSpammer: "referrer-spammer",
	KindClickFraud: "click-fraud", KindVulnScanner: "vuln-scanner",
	KindOfflineBrowser: "offline-browser", KindSmartBot: "smart-bot",
}

// String returns the kind's name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return "unknown"
	}
	return kindNames[k]
}

// IsHuman reports whether the kind represents a human user (the ground-truth
// positive class).
func (k Kind) IsHuman() bool { return k == KindHuman || k == KindHumanNoJS }

// Agent is a traffic source. Step performs the agent's next batch of
// requests (typically one page view and its dependent fetches) at virtual
// time now and returns the delay until its next step and whether the agent
// has finished its session.
type Agent interface {
	// Kind is the agent family (ground truth).
	Kind() Kind
	// IP is the agent's client address.
	IP() string
	// UserAgent is the agent's User-Agent header value.
	UserAgent() string
	// Step advances the agent.
	Step(c Client, now time.Time) (next time.Duration, done bool)
}

// identity is who an agent is on the wire — its kind, client address and
// User-Agent — and the GET request it sends as that client. Every agent type
// embeds it.
type identity struct {
	kind Kind
	ip   string
	ua   string
}

// Kind implements Agent.
func (a *identity) Kind() Kind { return a.kind }

// IP implements Agent.
func (a *identity) IP() string { return a.ip }

// UserAgent implements Agent.
func (a *identity) UserAgent() string { return a.ua }

// get sends a GET for path with referer ref ("" for none) at time now.
func (a *identity) get(c Client, now time.Time, path, ref string) Response {
	return c.Do(Request{Time: now, IP: a.ip, UserAgent: a.ua, Method: "GET", Path: path, Referer: ref})
}

// browserAgents are realistic desktop browser User-Agent strings of the
// paper's era, used by human agents and by robots that forge their identity.
var browserAgents = []string{
	"Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) Gecko/20060111 Firefox/1.5.0.1",
	"Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)",
	"Mozilla/5.0 (Macintosh; U; PPC Mac OS X; en) AppleWebKit/418 Safari/417.9.3",
	"Mozilla/5.0 (X11; U; Linux i686; en-US; rv:1.7.12) Gecko/20051010 Firefox/1.0.7",
	"Opera/8.54 (Windows NT 5.1; U; en)",
	"Mozilla/5.0 (Windows; U; Windows NT 5.1; de; rv:1.8) Gecko/20051111 Firefox/1.5",
}

// declaredBotAgents are User-Agent strings of robots that identify
// themselves (used by the well-behaved crawler agent).
var declaredBotAgents = []string{
	"Googlebot/2.1 (+http://www.google.com/bot.html)",
	"Mozilla/5.0 (compatible; Yahoo! Slurp; http://help.yahoo.com/help/us/ysearch/slurp)",
	"msnbot/1.0 (+http://search.msn.com/msnbot.htm)",
	"Teleport Pro/1.29",
}

// CaptchaSolvePath is the well-known pseudo-path an agent requests when it
// chooses to take (and solve) the optional CAPTCHA challenge. Client
// implementations translate it into a challenge issue + verify exchange for
// the requesting session; it never reaches the origin site.
const CaptchaSolvePath = "/__captcha/solve"

// PickBrowserAgent returns a deterministic pseudo-random browser UA string.
func PickBrowserAgent(src *rng.Source) string {
	return browserAgents[src.Intn(len(browserAgents))]
}

// PickDeclaredBotAgent returns a deterministic pseudo-random declared-bot UA.
func PickDeclaredBotAgent(src *rng.Source) string {
	return declaredBotAgents[src.Intn(len(declaredBotAgents))]
}

// absoluteReferer renders a path as an absolute referer URL on the host.
func absoluteReferer(host, path string) string {
	if path == "" {
		return ""
	}
	return "http://" + host + path
}
