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
//
// A script body comes to exist one way: Generator.Compile builds a Variant for
// a deployment shape (TemplateConfig) once, a Pool holds K of them per
// rotation epoch, and Variant.RenderKeys splices a page's numeric keys in at
// download time. The request paths the script fetches, and every other
// instrumentation URL, are spelled by the *PathParts functions and read back
// by ParsePath.
package jsgen

import (
	"fmt"
	"strings"

	"botdetect/internal/htmlmod"
	"botdetect/internal/rng"
)

// DefaultBeaconPrefix is the path prefix under which beacon objects live when
// a deployment names none (core.Config.BeaconPrefix); the proxy intercepts
// requests under it.
const DefaultBeaconPrefix = "/__bd"

// Object names the kind of generated instrumentation object a request path
// addresses.
type Object uint8

const (
	// ObjectNone is a path that none of the emitters produces.
	ObjectNone Object = iota
	// ObjectBeacon is the mouse/keyboard beacon image (BeaconPathParts); arg
	// is the key.
	ObjectBeacon
	// ObjectExecBeacon is the "JavaScript executed" beacon
	// (ExecBeaconPathParts); arg is the key.
	ObjectExecBeacon
	// ObjectUAReport is the request the inline script (InlineUAScriptParts)
	// makes the browser write: <prefix>/ua/<token>/<agent>.css; arg is
	// "<token>/<agent>".
	ObjectUAReport
	// ObjectHidden is the hidden trap link's target (HiddenPathParts); arg is
	// the token.
	ObjectHidden
	// ObjectTransparentImage is TransparentImagePath; arg is empty.
	ObjectTransparentImage
	// ObjectScript is the generated external script (ScriptPathParts); arg is
	// the token.
	ObjectScript
	// ObjectCSS is the uniquely named empty stylesheet (CSSPathParts); arg is
	// the token.
	ObjectCSS
)

// grammar is the beacon URL grammar: an object's path is
// "<prefix>/" + pre + <key or token> + suf. The emitters below and their
// inverse, ParsePath, read it from here and nowhere else spells it.
var grammar = [...]struct{ pre, suf string }{
	ObjectBeacon:           {"", ".jpg"},
	ObjectExecBeacon:       {"js/", ".gif"},
	ObjectUAReport:         {"ua/", ".css"},
	ObjectHidden:           {"hidden/", ".html"},
	ObjectTransparentImage: {"transp_1x1.gif", ""},
	ObjectScript:           {"index_", ".js"},
	ObjectCSS:              {"", ".css"},
}

// parts returns what surrounds the key or token in obj's path under prefix,
// so per-deployment callers (the engine, template compilation) compose the
// constant parts once and splice keys into the same URL format ParsePath
// reads back.
func parts(obj Object, prefix string) (pre, suf string) {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	return prefix + "/" + grammar[obj].pre, grammar[obj].suf
}

// BeaconPathParts returns the prefix and suffix around the key in the request
// path of the beacon image that carries it.
func BeaconPathParts(prefix string) (pre, suf string) { return parts(ObjectBeacon, prefix) }

// ExecBeaconPathParts returns the prefix and suffix around the key in the
// request path of the "JavaScript executed" beacon.
func ExecBeaconPathParts(prefix string) (pre, suf string) { return parts(ObjectExecBeacon, prefix) }

// CSSPathParts returns the prefix and suffix around the token in the request
// path of the uniquely named empty stylesheet.
func CSSPathParts(prefix string) (pre, suf string) { return parts(ObjectCSS, prefix) }

// HiddenPathParts returns the prefix and suffix around the token in the
// request path of the hidden trap link.
func HiddenPathParts(prefix string) (pre, suf string) { return parts(ObjectHidden, prefix) }

// TransparentImagePath returns the request path of the 1x1 transparent image
// that anchors the hidden link.
func TransparentImagePath(prefix string) string {
	pre, suf := parts(ObjectTransparentImage, prefix)
	return pre + suf
}

// ScriptPathParts returns the prefix and suffix around the token in the
// request path of the generated external script.
func ScriptPathParts(prefix string) (pre, suf string) { return parts(ObjectScript, prefix) }

// parseOrder is the order ParsePath tries the objects in: the families with a
// directory of their own before the two that are told apart by suffix alone.
var parseOrder = [...]Object{
	ObjectExecBeacon, ObjectUAReport, ObjectHidden, ObjectTransparentImage, ObjectScript, ObjectCSS, ObjectBeacon,
}

// ParsePath is the inverse of the emitters above: it splits a request path
// (with or without a query string) into the object it addresses, the key or
// token spliced into it, and the query. ok reports whether the path
// lies under prefix at all — such a request belongs to the engine, not the
// origin, even when obj is ObjectNone. Whenever obj is not ObjectNone, the
// object's parts under prefix, spliced around arg, reproduce the path exactly,
// so nothing but an emitted URL (plus any query) parses. arg and query are
// substrings of path; nothing is allocated.
func ParsePath(prefix, path string) (obj Object, arg, query string, ok bool) {
	if prefix == "" {
		prefix = DefaultBeaconPrefix
	}
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path, query = path[:i], path[i+1:]
	}
	if len(path) <= len(prefix) || path[len(prefix)] != '/' || path[:len(prefix)] != prefix {
		return ObjectNone, "", query, false
	}
	rest := path[len(prefix)+1:]
	for _, obj := range parseOrder {
		g := grammar[obj]
		if !strings.HasPrefix(rest, g.pre) {
			continue
		}
		arg, shaped := strings.CutSuffix(rest[len(g.pre):], g.suf)
		if shaped && (obj != ObjectTransparentImage || arg == "") {
			return obj, arg, query, true
		}
		// ua/… and hidden/… are closed: what does not end the way their
		// emitter ends it is nobody's, not a stylesheet or a key that happens
		// to contain a slash.
		if obj == ObjectUAReport || obj == ObjectHidden {
			break
		}
	}
	return ObjectNone, "", query, true
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
	uaPre, uaSuf := parts(ObjectUAReport, prefix)
	pre = `document.write("<link rel=stylesheet href=` + q + base + uaPre
	post = `/"+encodeURIComponent(navigator.userAgent.toLowerCase().replace(/ /g,""))+"` + uaSuf + q + `>")`
	return pre, post
}
