package htmlmod

import "strings"

// Injection describes the content the rewriter adds to one HTML page. All
// URL fields are request paths or absolute URLs; empty fields disable the
// corresponding injection.
type Injection struct {
	// CSSHref is the uniquely named empty stylesheet (browser test).
	CSSHref string
	// ScriptSrc is the external event-handler script (human activity test).
	ScriptSrc string
	// InlineScript is the inline user-agent reporter body (without tags).
	InlineScript string
	// HandlerName is the JavaScript function invoked by the injected
	// onmousemove/onkeypress attributes; it must match the generated script.
	HandlerName string
	// HiddenHref is the invisible trap link target (browser test).
	HiddenHref string
	// HiddenImgSrc is the 1x1 transparent image anchoring the trap link.
	HiddenImgSrc string
}

// RewriteResult reports what the rewriter managed to inject.
type RewriteResult struct {
	// HTML is the rewritten document.
	HTML []byte
	// InjectedCSS, InjectedScript, InjectedHandlers, InjectedInline and
	// InjectedHidden report which injections were applied.
	InjectedCSS      bool
	InjectedScript   bool
	InjectedHandlers bool
	InjectedInline   bool
	InjectedHidden   bool
	// AddedBytes is the size increase of the document.
	AddedBytes int
}

// InjectionBytes is Injection with byte-slice fields, for callers that
// compose URLs into reusable scratch buffers: Prepared.Compose over an
// InjectionBytes copies from the slices without ever materialising strings,
// so a per-connection Prepared is recomposed per page with zero allocations.
// Empty fields disable the corresponding injection, exactly like Injection.
type InjectionBytes struct {
	CSSHref      []byte
	ScriptSrc    []byte
	InlineScript []byte
	HandlerName  []byte
	HiddenHref   []byte
	HiddenImgSrc []byte
}

// Prepared is an Injection compiled into its literal insertion fragments.
// Callers serving the same logical injection shape (the proxy, the CDN
// simulator) prepare once per page view and stream the page through a
// StreamRewriter with it.
//
// A Prepared is owned by whoever holds it — typically embedded in
// per-connection state (core.PageState) and refilled per page view via
// Compose, which reuses the fragment buffers. The zero value injects nothing.
type Prepared struct {
	headInsert  []byte // after <head> (stylesheet link + external script)
	bodyTop     []byte // after <body> (inline user-agent reporter)
	bodyBottom  []byte // before </body> (hidden trap link)
	handlerCall []byte // "<fn>()" for the body event handlers; empty disables

	cssSet, scriptSet, inlineSet, hiddenSet bool
}

// PrepareInjection compiles an Injection into a fresh Prepared.
func PrepareInjection(inj Injection) *Prepared {
	p := new(Prepared)
	composeInto(p, inj.CSSHref, inj.ScriptSrc, inj.InlineScript, inj.HandlerName, inj.HiddenHref, inj.HiddenImgSrc)
	return p
}

// Compose refills p's insertion fragments from inj, reusing the fragment
// buffers in place: no allocation once they have grown to the working-set
// size. The per-connection serve path composes into one caller-owned
// Prepared per page view.
func (p *Prepared) Compose(inj InjectionBytes) {
	composeInto(p, inj.CSSHref, inj.ScriptSrc, inj.InlineScript, inj.HandlerName, inj.HiddenHref, inj.HiddenImgSrc)
}

// composeInto builds the insertion fragments from either string or byte
// fields; the byte sequences are identical for equal field contents.
func composeInto[T ~string | ~[]byte](p *Prepared, cssHref, scriptSrc, inlineScript, handlerName, hiddenHref, hiddenImgSrc T) {
	p.cssSet = len(cssHref) > 0
	p.scriptSet = len(scriptSrc) > 0
	p.inlineSet = len(inlineScript) > 0
	p.hiddenSet = len(hiddenHref) > 0

	// Head fragment: the stylesheet link first, then the external script.
	b := p.headInsert[:0]
	if p.cssSet {
		b = append(b, "<link rel=stylesheet href="...)
		b = appendAttrValue(b, cssHref)
		b = append(b, '>')
	}
	if p.scriptSet {
		b = append(b, "<script src="...)
		b = appendAttrValue(b, scriptSrc)
		b = append(b, "></script>"...)
	}
	p.headInsert = b

	// Body-top fragment: the inline user-agent reporter script.
	b = p.bodyTop[:0]
	if p.inlineSet {
		b = append(b, "<script>"...)
		b = append(b, inlineScript...)
		b = append(b, "</script>"...)
	}
	p.bodyTop = b

	// Body-bottom fragment: the hidden trap link, a text-less anchor around a
	// 1x1 transparent image.
	b = p.bodyBottom[:0]
	if p.hiddenSet {
		img := hiddenImgSrc
		if len(img) == 0 {
			img = hiddenHref
		}
		b = append(b, "<a href="...)
		b = appendAttrValue(b, hiddenHref)
		b = append(b, "><img src="...)
		b = appendAttrValue(b, img)
		b = append(b, " width=1 height=1 border=0 alt></a>"...)
	}
	p.bodyBottom = b

	b = p.handlerCall[:0]
	if len(handlerName) > 0 {
		b = append(b, handlerName...)
		b = append(b, "()"...)
	}
	p.handlerCall = b
}

// Rewrite injects the instrumentation into the document and returns the
// rewritten copy: PrepareInjection(inj).Rewrite(doc). It never fails:
// documents without a <head> get head-level injections right after <body>
// (or after <html>, or prepended), documents without a <body> get
// body-level injections appended, and non-HTML input is returned with only
// appended content when nothing can be located safely.
func Rewrite(doc []byte, inj Injection) RewriteResult {
	return PrepareInjection(inj).Rewrite(doc)
}

// appendBodyTag rebuilds the original <body ...> tag with the
// onmousemove/onkeypress handler call added. The page's attributes are
// copied as the page spelled them; a handler it already has is kept and
// runs after the call ("<fn>();<page's own>" — no return in front, which
// would make the page's code unreachable).
func appendBodyTag(dst []byte, doc []byte, attrs []rawAttr, selfClosing bool, call []byte) []byte {
	dst = append(dst, "<body"...)
	seenMouse, seenKey := false, false
	for _, a := range attrs {
		name := doc[a.nameStart:a.nameEnd]
		isMouse := foldEq(name, "onmousemove")
		isKey := foldEq(name, "onkeypress")
		seenMouse = seenMouse || isMouse
		seenKey = seenKey || isKey
		// end is where the attribute's source text stops, closing quote
		// included; a zero value range marks an attribute without a value.
		end := a.valEnd
		if a.valStart == 0 {
			end = a.nameEnd
		} else if q := doc[a.valStart-1]; q == '"' || q == '\'' {
			end++
		}
		dst = append(dst, ' ')
		switch {
		case !isMouse && !isKey:
			dst = append(dst, doc[a.nameStart:end]...)
		case a.valStart == 0:
			dst = append(dst, name...)
			dst = append(dst, '=')
			dst = appendAttrValue(dst, call)
		default:
			dst = append(dst, doc[a.nameStart:a.valStart]...)
			dst = append(dst, call...)
			dst = append(dst, ';')
			dst = append(dst, doc[a.valStart:end]...)
		}
	}
	if !seenMouse {
		dst = append(dst, " onmousemove="...)
		dst = appendAttrValue(dst, call)
	}
	if !seenKey {
		dst = append(dst, " onkeypress="...)
		dst = appendAttrValue(dst, call)
	}
	if selfClosing {
		// The blank keeps "/" out of a preceding unquoted value.
		return append(dst, " />"...)
	}
	return append(dst, '>')
}

// AttrSafe reports whether v can be written as an unquoted attribute value:
// non-empty and made only of bytes no HTML parser treats specially there.
// The set is deliberately small — anything else is quoted. Exported for the
// one generator outside this package that spells markup itself (the inline
// reporter's document.write).
func AttrSafe[T ~string | ~[]byte](v T) bool {
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '/', c == '_', c == '.', c == ':', c == '~', c == '-', c == '(', c == ')':
		default:
			return false
		}
	}
	return len(v) > 0
}

// appendAttrValue appends v, a value of the rewriter's own (a URL, the
// handler call), in its shortest spelling: bare when AttrSafe, otherwise
// double-quoted and escaped.
func appendAttrValue[T ~string | ~[]byte](dst []byte, v T) []byte {
	if AttrSafe(v) {
		return append(dst, v...)
	}
	dst = append(dst, '"')
	dst = appendEscaped(dst, v)
	return append(dst, '"')
}

// appendEscaped appends s with the characters that would break out of a
// double-quoted attribute value or element context escaped.
func appendEscaped[T ~string | ~[]byte](dst []byte, s T) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, s[i])
		}
	}
	return dst
}

// PageSummary is the structure of a page as seen by a client: the navigation
// links, embedded objects and event handlers. Traffic agents use it to decide
// what a browser or a robot would fetch next.
type PageSummary struct {
	// Links are anchor targets considered visible to a human user.
	Links []string
	// HiddenLinks are anchor targets wrapped around 1x1/transparent images
	// or styled invisible, which humans cannot see but naive crawlers follow.
	HiddenLinks []string
	// Images are <img> sources.
	Images []string
	// Stylesheets are <link rel=stylesheet> hrefs.
	Stylesheets []string
	// Scripts are external <script src> values.
	Scripts []string
	// BodyMouseHandler reports whether the <body> tag has an onmousemove
	// handler (i.e. the page is instrumented for human activity detection).
	BodyMouseHandler bool
}

// Extract summarises a page. The hidden-link heuristic mirrors the paper's
// construction: an anchor whose only content is an <img> with width and
// height of 1 (or a transparent beacon image) is treated as invisible.
func Extract(doc []byte) PageSummary {
	var sum PageSummary
	w := tagWalk{doc: doc}
	for {
		tok, _, ok := w.next()
		if !ok {
			return sum
		}
		if tok.typ != startTagToken {
			continue
		}
		switch name := w.name(tok); {
		case foldEq(name, "a") || foldEq(name, "area"):
			v, _ := w.attr("href")
			href := string(v)
			if href == "" || strings.HasPrefix(href, "#") ||
				strings.HasPrefix(strings.ToLower(href), "javascript:") ||
				strings.HasPrefix(strings.ToLower(href), "mailto:") {
				continue
			}
			if w.hiddenAnchor() {
				sum.HiddenLinks = append(sum.HiddenLinks, href)
			} else {
				sum.Links = append(sum.Links, href)
			}
		case foldEq(name, "img"):
			if src, _ := w.attr("src"); len(src) > 0 {
				sum.Images = append(sum.Images, string(src))
			}
		case foldEq(name, "link"):
			rel, _ := w.attr("rel")
			if strings.Contains(strings.ToLower(string(rel)), "stylesheet") {
				if href, _ := w.attr("href"); len(href) > 0 {
					sum.Stylesheets = append(sum.Stylesheets, string(href))
				}
			}
		case foldEq(name, "script"):
			if src, _ := w.attr("src"); len(src) > 0 {
				sum.Scripts = append(sum.Scripts, string(src))
			}
		case foldEq(name, "body"):
			if _, ok := w.attr("onmousemove"); ok {
				sum.BodyMouseHandler = true
			}
		}
	}
}

// hiddenAnchor reports whether the anchor w has just read wraps only a 1x1
// or transparent image (and no visible text). It reads ahead on a copy of
// the walk, whose attribute scratch it shares: the caller's tag attributes
// are spent once it is called.
func (w tagWalk) hiddenAnchor() bool {
	sawTinyImage := false
	for {
		tok, text, ok := w.next()
		// Text makes the link visible. Whitespace-only runs are common in
		// real markup and the injected hidden link carries no text at all,
		// so runs of up to six bytes are let through.
		if !ok || text > 6 {
			return false
		}
		name := w.name(tok)
		switch tok.typ {
		case endTagToken:
			if foldEq(name, "a") || foldEq(name, "area") {
				return sawTinyImage
			}
		case startTagToken:
			if !foldEq(name, "img") {
				if !foldEq(name, "br") {
					return false
				}
				continue
			}
			width, _ := w.attr("width")
			height, _ := w.attr("height")
			src, _ := w.attr("src")
			lsrc := strings.ToLower(string(src))
			if !(string(width) == "1" && string(height) == "1") && !strings.Contains(lsrc, "transp") && !strings.Contains(lsrc, "1x1") {
				return false // a real image: the link is visible
			}
			sawTinyImage = true
		}
	}
}
