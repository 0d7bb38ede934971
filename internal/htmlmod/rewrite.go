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
// simulator) prepare once per page view and reuse the result across the
// buffered and streaming rewriters.
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

// Rewrite injects the instrumentation into the document, buffering and
// rebuilding it in one pass. It never fails: documents without a <head> get
// head-level injections right after <body> (or after <html>, or prepended),
// documents without a <body> get body-level injections appended, and
// non-HTML input is returned with only appended content when nothing can be
// located safely.
//
// This is the reference (store-and-forward) path; the streaming rewriter in
// stream.go produces byte-identical output without materialising the
// document and is preferred on hot paths. Rewrite remains the fallback for
// documents whose anchors arrive in a pathological order.
func Rewrite(doc []byte, inj Injection) RewriteResult {
	return PrepareInjection(inj).RewriteBuffered(doc)
}

// RewriteBuffered is the tokenising store-and-forward rewrite path using
// prepared fragments. See Rewrite.
func (p *Prepared) RewriteBuffered(doc []byte) RewriteResult {
	tokens := Tokenize(doc)

	var headStart *Token // the first <head> start tag
	var bodyStart *Token // the first <body> start tag
	var bodyEnd *Token   // the first </body> end tag
	var htmlStart *Token // the first <html> start tag
	for idx := range tokens {
		t := &tokens[idx]
		switch {
		case t.Type == StartTagToken && t.Name == "head" && headStart == nil:
			headStart = t
		case t.Type == StartTagToken && t.Name == "body" && bodyStart == nil:
			bodyStart = t
		case t.Type == EndTagToken && t.Name == "body" && bodyEnd == nil:
			bodyEnd = t
		case t.Type == StartTagToken && t.Name == "html" && htmlStart == nil:
			htmlStart = t
		}
	}

	// Decide insertion offsets in the original document.
	var inserts [3]insertion
	n := 0
	res := RewriteResult{}

	if len(p.headInsert) > 0 {
		switch {
		case headStart != nil:
			inserts[n] = insertion{headStart.End, p.headInsert}
		case bodyStart != nil:
			inserts[n] = insertion{bodyStart.End, p.headInsert}
		case htmlStart != nil:
			inserts[n] = insertion{htmlStart.End, p.headInsert}
		default:
			inserts[n] = insertion{0, p.headInsert}
		}
		n++
		res.InjectedCSS = p.cssSet
		res.InjectedScript = p.scriptSet
	}

	if len(p.bodyTop) > 0 {
		switch {
		case bodyStart != nil:
			inserts[n] = insertion{bodyStart.End, p.bodyTop}
		default:
			inserts[n] = insertion{len(doc), p.bodyTop}
		}
		n++
		res.InjectedInline = p.inlineSet
	}

	if len(p.bodyBottom) > 0 {
		switch {
		case bodyEnd != nil:
			inserts[n] = insertion{bodyEnd.Start, p.bodyBottom}
		default:
			inserts[n] = insertion{len(doc), p.bodyBottom}
		}
		n++
		res.InjectedHidden = p.hiddenSet
	}

	// Event-handler attributes on the <body> tag itself.
	var bodyTagReplacement []byte
	if len(p.handlerCall) > 0 && bodyStart != nil {
		var attrs []rawAttr
		if raw, complete, ok := scanStartTagRaw(doc, bodyStart.Start, &attrs); complete && ok {
			bodyTagReplacement = appendBodyTag(nil, doc, attrs, raw.selfClosing, p.handlerCall)
			res.InjectedHandlers = true
		}
	}

	out := applyEdits(doc, bodyStart, bodyTagReplacement, inserts[:n])
	res.HTML = out
	res.AddedBytes = len(out) - len(doc)
	return res
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

// insertion is one positional text insertion into the original document.
type insertion struct {
	at   int
	text []byte
}

// applyEdits rebuilds the document applying the body-tag replacement and the
// positional insertions in one pass.
func applyEdits(doc []byte, bodyStart *Token, bodyReplacement []byte, inserts []insertion) []byte {
	// Sort insertions by offset (stable for equal offsets: insertion order).
	for i := 1; i < len(inserts); i++ {
		for j := i; j > 0 && inserts[j].at < inserts[j-1].at; j-- {
			inserts[j], inserts[j-1] = inserts[j-1], inserts[j]
		}
	}
	extra := len(bodyReplacement) + 16
	for _, ins := range inserts {
		extra += len(ins.text)
	}
	out := make([]byte, 0, len(doc)+extra)
	pos := 0
	nextInsert := 0
	emitUpTo := func(end int) {
		for nextInsert < len(inserts) && inserts[nextInsert].at <= end {
			at := inserts[nextInsert].at
			if at > pos {
				out = append(out, doc[pos:at]...)
				pos = at
			}
			out = append(out, inserts[nextInsert].text...)
			nextInsert++
		}
		if end > pos {
			out = append(out, doc[pos:end]...)
			pos = end
		}
	}
	if len(bodyReplacement) > 0 && bodyStart != nil {
		emitUpTo(bodyStart.Start)
		out = append(out, bodyReplacement...)
		pos = bodyStart.End
	}
	emitUpTo(len(doc))
	return out
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
	// InlineScripts is the number of inline script blocks.
	InlineScripts int
	// BodyMouseHandler reports whether the <body> tag has an onmousemove
	// handler (i.e. the page is instrumented for human activity detection).
	BodyMouseHandler bool
}

// Extract summarises a page. The hidden-link heuristic mirrors the paper's
// construction: an anchor whose only content is an <img> with width and
// height of 1 (or a transparent beacon image) is treated as invisible.
func Extract(doc []byte) PageSummary {
	tokens := Tokenize(doc)
	var sum PageSummary

	for i := 0; i < len(tokens); i++ {
		t := tokens[i]
		if t.Type != StartTagToken {
			continue
		}
		switch t.Name {
		case "a", "area":
			href, ok := t.Get("href")
			if !ok || href == "" || strings.HasPrefix(href, "#") ||
				strings.HasPrefix(strings.ToLower(href), "javascript:") ||
				strings.HasPrefix(strings.ToLower(href), "mailto:") {
				continue
			}
			if isHiddenAnchor(tokens, i) {
				sum.HiddenLinks = append(sum.HiddenLinks, href)
			} else {
				sum.Links = append(sum.Links, href)
			}
		case "img":
			if src, ok := t.Get("src"); ok && src != "" {
				sum.Images = append(sum.Images, src)
			}
		case "link":
			rel, _ := t.Get("rel")
			if strings.Contains(strings.ToLower(rel), "stylesheet") {
				if href, ok := t.Get("href"); ok && href != "" {
					sum.Stylesheets = append(sum.Stylesheets, href)
				}
			}
		case "script":
			if src, ok := t.Get("src"); ok && src != "" {
				sum.Scripts = append(sum.Scripts, src)
			} else if !t.SelfClosing {
				sum.InlineScripts++
			}
		case "body":
			if _, ok := t.Get("onmousemove"); ok {
				sum.BodyMouseHandler = true
			}
		}
	}
	return sum
}

// isHiddenAnchor reports whether the anchor starting at tokens[i] wraps only
// a 1x1 or transparent image (and no visible text).
func isHiddenAnchor(tokens []Token, i int) bool {
	sawTinyImage := false
	for j := i + 1; j < len(tokens); j++ {
		t := tokens[j]
		switch t.Type {
		case EndTagToken:
			if t.Name == "a" || t.Name == "area" {
				return sawTinyImage
			}
		case StartTagToken:
			if t.Name == "img" {
				w, _ := t.Get("width")
				h, _ := t.Get("height")
				src, _ := t.Get("src")
				lsrc := strings.ToLower(src)
				if (w == "1" && h == "1") || strings.Contains(lsrc, "transp") || strings.Contains(lsrc, "1x1") {
					sawTinyImage = true
				} else {
					return false // a real image: the link is visible
				}
			} else if t.Name != "br" {
				return false
			}
		case TextToken:
			// Any visible text makes the link visible; we cannot see the
			// original bytes here, so treat non-empty ranges conservatively:
			// the caller's injected hidden link carries no text at all, and
			// whitespace-only runs are common in real markup. Ranges longer
			// than a few bytes are assumed to be visible text.
			if t.End-t.Start > 6 {
				return false
			}
		}
	}
	return false
}
