// Package jsgen generates the JavaScript that the proxy embeds into
// rewritten HTML pages for human activity detection (Section 2.1).
//
// The generated external script defines an event-handler function that, on
// the first mouse movement or key press, fetches a beacon image whose URL
// carries the real per-page key. To defeat robots that statically extract
// URLs from scripts, the script also contains m decoy functions fetching
// beacon URLs with wrong keys, is lexically obfuscated (randomised
// identifiers, junk declarations, shuffled function order, character-encoded
// string literals), and is served uncacheable so every page view gets fresh
// keys.
//
// Everything emitted is spelled in its shortest equivalent form — one-line
// functions, no comments, no decorative whitespace — because these bytes ride
// on every page view: what a robot has to defeat is the structure above, not
// the formatting.
package jsgen

import (
	"fmt"
	"strings"

	"botdetect/internal/htmlmod"
	"botdetect/internal/rng"
)

// Params controls script generation for one rewritten page.
type Params struct {
	// BeaconBase is the URL prefix for beacon fetches, e.g.
	// "http://www.example.com" or "" for site-relative beacons.
	BeaconBase string
	// BeaconPrefix is the path prefix under which beacon objects live
	// (default "/__bd"). The proxy intercepts requests under this prefix.
	BeaconPrefix string
	// RealKey is the key embedded in the genuine event-handler beacon.
	RealKey string
	// DecoyKeys are the keys embedded in the decoy functions.
	DecoyKeys []string
	// UAReportKey, when non-empty, adds a statement that immediately fetches
	// a "JavaScript executed" beacon carrying this key, so the server learns
	// that the client runs JavaScript even if no input event ever happens.
	UAReportKey string
	// Obfuscate enables lexical obfuscation.
	Obfuscate bool
	// Seed drives identifier randomisation; the same seed yields the same
	// script text.
	Seed uint64
}

// DefaultBeaconPrefix is the path prefix used when Params.BeaconPrefix is empty.
const DefaultBeaconPrefix = "/__bd"

// BeaconPath returns the request path of the beacon image carrying key.
func BeaconPath(prefix, key string) string {
	pre, suf := BeaconPathParts(prefix)
	return pre + key + suf
}

// BeaconPathParts returns the prefix and suffix around the key in
// BeaconPath, so template compilation splices keys into the same URL format
// HandleBeacon parses.
func BeaconPathParts(prefix string) (pre, suf string) {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	return prefix + "/", ".jpg"
}

// ExecBeaconPath returns the request path of the "JavaScript executed"
// beacon carrying key.
func ExecBeaconPath(prefix, key string) string {
	pre, suf := ExecBeaconPathParts(prefix)
	return pre + key + suf
}

// ExecBeaconPathParts returns the prefix and suffix around the key in
// ExecBeaconPath.
func ExecBeaconPathParts(prefix string) (pre, suf string) {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	return prefix + "/js/", ".gif"
}

// CSSPath returns the request path of the uniquely named empty stylesheet.
func CSSPath(prefix, token string) string {
	pre, suf := CSSPathParts(prefix)
	return pre + token + suf
}

// CSSPathParts returns the prefix and suffix around the token in CSSPath,
// so per-deployment callers can precompose them once.
func CSSPathParts(prefix string) (pre, suf string) {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	return prefix + "/", ".css"
}

// HiddenPath returns the request path of the hidden trap link.
func HiddenPath(prefix, token string) string {
	pre, suf := HiddenPathParts(prefix)
	return pre + token + suf
}

// HiddenPathParts returns the prefix and suffix around the token in
// HiddenPath.
func HiddenPathParts(prefix string) (pre, suf string) {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	return prefix + "/hidden/", ".html"
}

// TransparentImagePath returns the request path of the 1x1 transparent image
// that anchors the hidden link.
func TransparentImagePath(prefix string) string {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	return prefix + "/transp_1x1.gif"
}

// ScriptPath returns the request path of the generated external script.
func ScriptPath(prefix, token string) string {
	pre, suf := ScriptPathParts(prefix)
	return pre + token + suf
}

// ScriptPathParts returns the prefix and suffix around the token in
// ScriptPath.
func ScriptPathParts(prefix string) (pre, suf string) {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	return prefix + "/index_", ".js"
}

// Generator produces beacon scripts. It is stateless apart from its
// configuration and safe for concurrent use.
type Generator struct {
	// HandlerName is the global function installed as the event handler.
	// It must match the attribute injected by the HTML rewriter.
	HandlerName string
}

// NewGenerator returns a Generator with the default handler name "__bd_f".
func NewGenerator() *Generator { return &Generator{HandlerName: "__bd_f"} }

// namer allocates deterministic pseudo-random identifiers.
type namer struct {
	src  *rng.Source
	used map[string]bool
}

func newNamer(seed uint64) *namer {
	return &namer{src: rng.New(seed).Fork("jsgen"), used: map[string]bool{}}
}

const identAlphabet = "abcdefghijklmnopqrstuvwxyz"

func (n *namer) next() string {
	for {
		var b strings.Builder
		b.WriteByte('_')
		length := 5 + n.src.Intn(6)
		for i := 0; i < length; i++ {
			b.WriteByte(identAlphabet[n.src.Intn(len(identAlphabet))])
		}
		name := b.String()
		if !n.used[name] {
			n.used[name] = true
			return name
		}
	}
}

// Script returns the external JavaScript file body for one rewritten page.
// It is the compatibility wrapper over the precompiled path: the Params are
// compiled into a one-off Variant and the keys spliced in immediately. Hot
// paths serving many pages per deployment shape should hold a Pool and call
// Render instead, which amortises compilation across page views.
func (g *Generator) Script(p Params) string {
	digits := len(p.RealKey)
	v := g.Compile(TemplateConfig{
		BeaconBase:   p.BeaconBase,
		BeaconPrefix: p.BeaconPrefix,
		KeyDigits:    digits,
		Decoys:       len(p.DecoyKeys),
		UAReport:     p.UAReportKey != "",
		Obfuscate:    p.Obfuscate,
	}, p.Seed)
	return string(v.Render(make([]byte, 0, v.Size()+64), p.RealKey, p.UAReportKey, p.DecoyKeys))
}

// junkStatements emits harmless declarations that vary per page to defeat
// signature matching on the script body.
func junkStatements(nm *namer, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		switch nm.src.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "var %s=%d;", nm.next(), nm.src.Intn(100000))
		case 1:
			fmt.Fprintf(&b, "var %s='%s';", nm.next(), nm.src.HexKey(8))
		default:
			a, c := nm.next(), nm.src.Intn(997)+1
			fmt.Fprintf(&b, "function %s(x){return x*%d%%65537}", a, c)
		}
	}
	return b.String()
}

// InlineUAScriptParts returns the inline <script> body that reports the
// browser's user agent string back to the server by writing a stylesheet
// link, as in Figure 1 of the paper, split around its per-page token: the
// body is pre + token + post, so the engine composes the parts once per
// deployment. The report arrives as a request for
// <prefix>/ua/<token>/<agent>.css (agent: navigator.userAgent lower-cased,
// blanks removed), letting the server compare the JavaScript-visible agent
// with the User-Agent header (the "browser type mismatch" signal in Table 1).
// The written href is bare when base and prefix allow it (htmlmod.AttrSafe)
// and single-quoted otherwise.
func InlineUAScriptParts(base, prefix string) (pre, post string) {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	q := "'"
	if htmlmod.AttrSafe(base + prefix) {
		q = ""
	}
	pre = `document.write("<link rel=stylesheet href=` + q + base + prefix + "/ua/"
	post = `/"+encodeURIComponent(navigator.userAgent.toLowerCase().replace(/ /g,""))+".css` + q + `>")`
	return pre, post
}
