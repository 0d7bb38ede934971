package htmlmod

import "strings"

// The oracles: a whole-document token list, a buffered rewrite that places
// the fragments by the list's offsets, and Extract over the list. They share
// the scanner with production code but none of the streaming rewriter's or
// tagWalk's control flow; the differential tests and fuzz targets hold the
// production code to them byte for byte.

// textToken is character data between tags; the oracle tokenizer is the
// only reader that makes tokens of it.
const textToken tokenType = 0

// token is one scanned region of the document.
type token struct {
	// Type is the token type.
	Type tokenType
	// Name is the lowercase tag name for start/end tags.
	Name string
	// Start and End are byte offsets of the token in the original document
	// (End is exclusive).
	Start, End int
	// SelfClosing reports whether a start tag ends with "/>".
	SelfClosing bool
	// Attrs are the tag's attributes in document order (start tags only).
	Attrs []tokenAttr
}

// tokenAttr is one tag attribute.
type tokenAttr struct {
	// Name is the lowercase attribute name.
	Name string
	// Value is the unquoted attribute value ("" for value-less attributes).
	Value string
}

// get returns the value of the named attribute and whether it is present.
func (t token) get(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// tokenize scans the document and returns its tokens. The scan is
// best-effort: malformed markup never causes an error, the scanner simply
// treats unparseable regions as text, which is the safe behaviour for a
// rewriter (it will inject less rather than corrupt output).
func tokenize(doc []byte) []token {
	var tokens []token
	var attrs []rawAttr
	n := len(doc)
	i := 0
	for i < n {
		raw, _, st := scanNextTag(doc, i, true, &attrs)
		if st == scanEOFText {
			if n > i {
				tokens = append(tokens, token{Type: textToken, Start: i, End: n})
			}
			return tokens
		}
		if raw.start > i {
			tokens = append(tokens, token{Type: textToken, Start: i, End: raw.start})
		}
		tokens = append(tokens, materializeToken(doc, raw, attrs))
		i = raw.end

		// Raw-text elements: skip to their end tag so "<a href=...>" inside a
		// script string is not mistaken for markup.
		if raw.typ == startTagToken && !raw.selfClosing {
			name := doc[raw.nameStart:raw.nameEnd]
			if !isRawTextName(name) {
				continue
			}
			idx := findRawTextClose(doc, i, name)
			if idx < 0 {
				continue
			}
			if idx > i {
				tokens = append(tokens, token{Type: textToken, Start: i, End: idx})
			}
			end := indexFrom(doc, idx, ">")
			if end < 0 {
				// A "</name" with no closing '>': the historical scanner
				// stops here, leaving the tail untokenised.
				return tokens
			}
			tokens = append(tokens, token{
				Type: endTagToken, Name: lowerString(name), Start: idx, End: end + 1,
			})
			i = end + 1
		}
	}
	return tokens
}

// materializeToken converts a raw token into the token form, allocating the
// lowercase name and attribute strings.
func materializeToken(doc []byte, raw rawToken, attrs []rawAttr) token {
	t := token{Type: raw.typ, Start: raw.start, End: raw.end, SelfClosing: raw.selfClosing}
	switch raw.typ {
	case startTagToken:
		t.Name = lowerString(doc[raw.nameStart:raw.nameEnd])
		if len(attrs) > 0 {
			t.Attrs = make([]tokenAttr, len(attrs))
			for k, a := range attrs {
				t.Attrs[k] = tokenAttr{
					Name:  lowerString(doc[a.nameStart:a.nameEnd]),
					Value: string(doc[a.valStart:a.valEnd]),
				}
			}
		}
	case endTagToken:
		t.Name = lowerString(doc[raw.nameStart:raw.nameEnd])
	}
	return t
}

// lowerString allocates the ASCII-lowercased string of b.
func lowerString(b []byte) string {
	for k := 0; k < len(b); k++ {
		if b[k] >= 'A' && b[k] <= 'Z' {
			goto convert
		}
	}
	return string(b)
convert:
	out := make([]byte, len(b))
	for k := 0; k < len(b); k++ {
		c := b[k]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[k] = c
	}
	return string(out)
}

// rewriteBuffered is the tokenising store-and-forward rewrite: it finds the
// first <head>, <body>, </body> and <html> in the token list and rebuilds
// the document with the fragments at the offsets Rewrite documents.
func (p *Prepared) rewriteBuffered(doc []byte) RewriteResult {
	tokens := tokenize(doc)

	var headStart *token // the first <head> start tag
	var bodyStart *token // the first <body> start tag
	var bodyEnd *token   // the first </body> end tag
	var htmlStart *token // the first <html> start tag
	for idx := range tokens {
		t := &tokens[idx]
		switch {
		case t.Type == startTagToken && t.Name == "head" && headStart == nil:
			headStart = t
		case t.Type == startTagToken && t.Name == "body" && bodyStart == nil:
			bodyStart = t
		case t.Type == endTagToken && t.Name == "body" && bodyEnd == nil:
			bodyEnd = t
		case t.Type == startTagToken && t.Name == "html" && htmlStart == nil:
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

// insertion is one positional text insertion into the original document.
type insertion struct {
	at   int
	text []byte
}

// applyEdits rebuilds the document applying the body-tag replacement and the
// positional insertions in one pass.
func applyEdits(doc []byte, bodyStart *token, bodyReplacement []byte, inserts []insertion) []byte {
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

// extractTokens is Extract over the materialised token list.
func extractTokens(doc []byte) PageSummary {
	tokens := tokenize(doc)
	var sum PageSummary

	for i := 0; i < len(tokens); i++ {
		t := tokens[i]
		if t.Type != startTagToken {
			continue
		}
		switch t.Name {
		case "a", "area":
			href, ok := t.get("href")
			if !ok || href == "" || strings.HasPrefix(href, "#") ||
				strings.HasPrefix(strings.ToLower(href), "javascript:") ||
				strings.HasPrefix(strings.ToLower(href), "mailto:") {
				continue
			}
			if isHiddenAnchorToken(tokens, i) {
				sum.HiddenLinks = append(sum.HiddenLinks, href)
			} else {
				sum.Links = append(sum.Links, href)
			}
		case "img":
			if src, ok := t.get("src"); ok && src != "" {
				sum.Images = append(sum.Images, src)
			}
		case "link":
			rel, _ := t.get("rel")
			if strings.Contains(strings.ToLower(rel), "stylesheet") {
				if href, ok := t.get("href"); ok && href != "" {
					sum.Stylesheets = append(sum.Stylesheets, href)
				}
			}
		case "script":
			if src, ok := t.get("src"); ok && src != "" {
				sum.Scripts = append(sum.Scripts, src)
			}
		case "body":
			if _, ok := t.get("onmousemove"); ok {
				sum.BodyMouseHandler = true
			}
		}
	}
	return sum
}

// isHiddenAnchorToken reports whether the anchor starting at tokens[i]
// wraps only a 1x1 or transparent image (and no visible text).
func isHiddenAnchorToken(tokens []token, i int) bool {
	sawTinyImage := false
	for j := i + 1; j < len(tokens); j++ {
		t := tokens[j]
		switch t.Type {
		case endTagToken:
			if t.Name == "a" || t.Name == "area" {
				return sawTinyImage
			}
		case startTagToken:
			if t.Name == "img" {
				w, _ := t.get("width")
				h, _ := t.get("height")
				src, _ := t.get("src")
				lsrc := strings.ToLower(src)
				if (w == "1" && h == "1") || strings.Contains(lsrc, "transp") || strings.Contains(lsrc, "1x1") {
					sawTinyImage = true
				} else {
					return false // a real image: the link is visible
				}
			} else if t.Name != "br" {
				return false
			}
		case textToken:
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
