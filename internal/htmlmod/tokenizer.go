// Package htmlmod provides the HTML scanning and rewriting machinery behind
// the paper's dynamic page modification (Sections 2.1 and 2.2): locating the
// head and body of a served page, injecting the beacon stylesheet, the
// external event-handler script, the inline user-agent reporter, the
// onmousemove/onkeypress attributes, and the hidden trap link.
//
// The same scanner also powers link and embedded-object extraction, which
// the synthetic traffic agents use to browse pages exactly the way the
// detector observes real clients browsing them.
//
// The scanner is deliberately not a full HTML5 parser: the rewriter only
// needs tag boundaries, attribute lists, comments and raw-text elements
// (script/style), and it must never reorder or re-serialise untouched
// content, so it operates on byte offsets into the original document.
//
// One scanning core serves every reader. scanNextTag classifies regions by
// byte offset without allocating: the streaming rewriter (stream.go) drives
// it incrementally as response bytes flow through the proxy, and Extract
// walks it over a whole document (tagWalk) for the link-extraction consumers
// in internal/agents.
package htmlmod

import (
	"bytes"
)

// tokenType identifies a scanned non-text token. Text is never a token: it
// is the bytes between one token's end and the next one's start.
type tokenType uint8

const (
	// startTagToken is an opening tag, possibly self-closing.
	startTagToken tokenType = iota + 1
	// endTagToken is a closing tag.
	endTagToken
	// commentToken is an HTML comment.
	commentToken
	// declToken is a <!DOCTYPE ...> or similar declaration.
	declToken
)

// --- raw scanning core ------------------------------------------------------

// rawAttr is one attribute described purely by offsets into the document.
// Quoted values exclude their quotes; value-less attributes have a zero
// value range, so their value reads as empty, like `x=""`.
type rawAttr struct {
	nameStart, nameEnd int
	valStart, valEnd   int
}

// rawToken is one scanned non-text region described purely by offsets, so
// scanning never allocates. Text is implicit: the bytes between the caller's
// scan position and the token's start.
type rawToken struct {
	typ                tokenType
	start, end         int
	nameStart, nameEnd int
	selfClosing        bool
}

// scanStatus reports the outcome of one scanNextTag call.
type scanStatus int

const (
	// scanTok: a non-text token was found; bytes before it are text.
	scanTok scanStatus = iota
	// scanEOFText: no further tokens; everything from pos on is text.
	// Only returned when atEOF is true.
	scanEOFText
	// scanNeedMore: the tail starting at the returned offset cannot be
	// classified without more input. Bytes before that offset are text.
	// Only returned when atEOF is false.
	scanNeedMore
)

// scanNextTag finds the next non-text token at or after pos. attrs is a
// reusable scratch slice filled with the attribute offsets of a start tag.
//
// When atEOF is false the scanner is conservative: any construct that could
// still change meaning with more input (an open tag, a comment without its
// terminator, a "<!" that may yet become "<!--") yields scanNeedMore with
// the offset of the earliest ambiguous byte. When atEOF is true it
// reproduces the historical whole-document behaviour exactly: malformed
// regions degrade to text, an unterminated comment swallows the rest of the
// document.
func scanNextTag(doc []byte, pos int, atEOF bool, attrs *[]rawAttr) (rawToken, int, scanStatus) {
	n := len(doc)
	i := pos
	for i < n {
		if doc[i] != '<' {
			i++
			continue
		}
		if i+1 >= n {
			if atEOF {
				i++
				continue
			}
			return rawToken{}, i, scanNeedMore
		}
		switch c := doc[i+1]; {
		case c == '!' || c == '?':
			// Comment?
			if hasPrefixAt(doc, i, "<!--") {
				end := indexFrom(doc, i+4, "-->")
				if end >= 0 {
					return rawToken{typ: commentToken, start: i, end: end + 3}, i, scanTok
				}
				if atEOF {
					// Unterminated comment: the rest of the document.
					return rawToken{typ: commentToken, start: i, end: n}, i, scanTok
				}
				return rawToken{}, i, scanNeedMore
			}
			// "<!" or "<!-" could still become a comment opener.
			if !atEOF && c == '!' && n-i < 4 && prefixCompatible(doc[i:n], "<!--") {
				return rawToken{}, i, scanNeedMore
			}
			// Declaration (<!DOCTYPE ...>, <![CDATA[..., <?xml ...).
			end := indexFrom(doc, i+1, ">")
			if end < 0 {
				if atEOF {
					i++
					continue
				}
				return rawToken{}, i, scanNeedMore
			}
			return rawToken{typ: declToken, start: i, end: end + 1}, i, scanTok
		case c == '/':
			end := indexFrom(doc, i+2, ">")
			if end < 0 {
				if atEOF {
					i++
					continue
				}
				return rawToken{}, i, scanNeedMore
			}
			ns, ne := endTagName(doc, i+2, end)
			return rawToken{typ: endTagToken, start: i, end: end + 1, nameStart: ns, nameEnd: ne}, i, scanTok
		default:
			tok, complete, ok := scanStartTagRaw(doc, i, attrs)
			if !complete {
				if atEOF {
					i++
					continue
				}
				return rawToken{}, i, scanNeedMore
			}
			if !ok {
				i++
				continue
			}
			return tok, i, scanTok
		}
	}
	if atEOF {
		return rawToken{}, n, scanEOFText
	}
	return rawToken{}, n, scanNeedMore
}

// scanStartTagRaw scans an opening tag beginning at doc[i] == '<'. complete
// is false when the scanner ran out of bytes mid-tag (the caller decides
// whether that means "need more input" or "treat as text"); ok is false when
// the bytes can never form a start tag.
func scanStartTagRaw(doc []byte, i int, attrs *[]rawAttr) (tok rawToken, complete, ok bool) {
	*attrs = (*attrs)[:0]
	n := len(doc)
	j := i + 1
	nameStart := j
	for j < n && isNameByte(doc[j]) {
		j++
	}
	if j == nameStart {
		if j >= n {
			return rawToken{}, false, false
		}
		return rawToken{}, true, false // "<" not followed by a tag name
	}
	tok = rawToken{typ: startTagToken, start: i, nameStart: nameStart, nameEnd: j}

	// Scan attributes respecting quotes.
	for j < n {
		// Skip whitespace.
		for j < n && isSpaceByte(doc[j]) {
			j++
		}
		if j >= n {
			return rawToken{}, false, false
		}
		if doc[j] == '>' {
			tok.end = j + 1
			return tok, true, true
		}
		if doc[j] == '/' && j+1 < n && doc[j+1] == '>' {
			tok.selfClosing = true
			tok.end = j + 2
			return tok, true, true
		}
		// Attribute name.
		attrStart := j
		for j < n && doc[j] != '=' && doc[j] != '>' && doc[j] != '/' && !isSpaceByte(doc[j]) {
			j++
		}
		if j >= n {
			return rawToken{}, false, false
		}
		if j == attrStart {
			j++
			continue
		}
		a := rawAttr{nameStart: attrStart, nameEnd: j}
		// Optional value.
		for j < n && isSpaceByte(doc[j]) {
			j++
		}
		if j < n && doc[j] == '=' {
			j++
			for j < n && isSpaceByte(doc[j]) {
				j++
			}
			if j < n && (doc[j] == '"' || doc[j] == '\'') {
				quote := doc[j]
				j++
				valStart := j
				for j < n && doc[j] != quote {
					j++
				}
				if j >= n {
					return rawToken{}, false, false
				}
				a.valStart, a.valEnd = valStart, j
				*attrs = append(*attrs, a)
				j++
			} else {
				valStart := j
				for j < n && !isSpaceByte(doc[j]) && doc[j] != '>' {
					j++
				}
				a.valStart, a.valEnd = valStart, j
				*attrs = append(*attrs, a)
			}
		} else {
			*attrs = append(*attrs, a)
		}
	}
	return rawToken{}, false, false
}

// endTagName locates the tag name inside an end tag's "</" .. ">" span:
// ASCII whitespace is trimmed from both ends and the name stops at the first
// interior whitespace byte.
func endTagName(doc []byte, s, e int) (int, int) {
	for s < e && isSpaceByte(doc[s]) {
		s++
	}
	for e > s && isSpaceByte(doc[e-1]) {
		e--
	}
	for j := s; j < e; j++ {
		if isSpaceByte(doc[j]) {
			e = j
			break
		}
	}
	return s, e
}

// prefixCompatible reports whether got is a prefix of want (byte-exact).
func prefixCompatible(got []byte, want string) bool {
	if len(got) > len(want) {
		return false
	}
	return string(got) == want[:len(got)]
}

// foldEq reports whether name equals lower under ASCII case folding; lower
// must already be lowercase.
func foldEq(name []byte, lower string) bool {
	if len(name) != len(lower) {
		return false
	}
	for k := 0; k < len(name); k++ {
		c := name[k]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[k] {
			return false
		}
	}
	return true
}

// isRawTextName reports whether the tag name (any case) is an element whose
// content is scanned as raw text up to the matching end tag.
func isRawTextName(name []byte) bool {
	switch len(name) {
	case 5:
		return foldEq(name, "style") || foldEq(name, "title")
	case 6:
		return foldEq(name, "script")
	case 8:
		return foldEq(name, "textarea")
	}
	return false
}

// findRawTextClose finds the "</name" closing sequence case-insensitively at
// or after pos. name carries the element name in its original case.
func findRawTextClose(doc []byte, pos int, name []byte) int {
	for j := pos; j+2+len(name) <= len(doc); j++ {
		if doc[j] != '<' || doc[j+1] != '/' {
			continue
		}
		match := true
		for k := 0; k < len(name); k++ {
			c, d := doc[j+2+k], name[k]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if d >= 'A' && d <= 'Z' {
				d += 'a' - 'A'
			}
			if c != d {
				match = false
				break
			}
		}
		if match {
			return j
		}
	}
	return -1
}

// tagWalk reads a whole document's non-text tokens in order under the
// scanner's end-of-input rules, the way the rewriter meets them at Close. A
// raw-text element's content is skipped to its end tag, so "<a href=...>"
// inside a script string is not mistaken for markup; a raw-text element
// that is never closed is read on as markup, and a "</name" with no closing
// '>' ends the walk.
type tagWalk struct {
	doc   []byte
	pos   int
	attrs []rawAttr // the last start tag's attributes
	raw   []byte    // the open raw-text element's name, while its content is skipped
}

// next returns the next token and the number of text bytes before it;
// ok is false at the end of the walk.
func (w *tagWalk) next() (tok rawToken, text int, ok bool) {
	if name := w.raw; name != nil {
		w.raw = nil
		if idx := findRawTextClose(w.doc, w.pos, name); idx >= 0 {
			gt := indexFrom(w.doc, idx, ">")
			if gt < 0 {
				w.pos = len(w.doc)
				return rawToken{}, 0, false
			}
			tok = rawToken{typ: endTagToken, start: idx, end: gt + 1, nameStart: idx + 2, nameEnd: idx + 2 + len(name)}
			text, w.pos = idx-w.pos, gt+1
			return tok, text, true
		}
	}
	tok, _, st := scanNextTag(w.doc, w.pos, true, &w.attrs)
	if st == scanEOFText {
		return rawToken{}, 0, false
	}
	text, w.pos = tok.start-w.pos, tok.end
	if name := w.doc[tok.nameStart:tok.nameEnd]; tok.typ == startTagToken && !tok.selfClosing && isRawTextName(name) {
		w.raw = name
	}
	return tok, text, true
}

// name returns the token's tag name as the document spells it.
func (w *tagWalk) name(tok rawToken) []byte { return w.doc[tok.nameStart:tok.nameEnd] }

// attr returns the value of the last start tag's first attribute named
// name (lowercase; the document's spelling is folded) and whether it has one.
func (w *tagWalk) attr(name string) ([]byte, bool) {
	for _, a := range w.attrs {
		if foldEq(w.doc[a.nameStart:a.nameEnd], name) {
			return w.doc[a.valStart:a.valEnd], true
		}
	}
	return nil, false
}

func isNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '-' || b == ':'
}

func isSpaceByte(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}

func hasPrefixAt(doc []byte, i int, prefix string) bool {
	if i+len(prefix) > len(doc) {
		return false
	}
	return string(doc[i:i+len(prefix)]) == prefix
}

func indexFrom(doc []byte, i int, sub string) int {
	idx := bytes.Index(doc[i:], []byte(sub))
	if idx < 0 {
		return -1
	}
	return i + idx
}
