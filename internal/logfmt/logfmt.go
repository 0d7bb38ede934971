// Package logfmt defines the canonical HTTP request record used throughout
// the repository and its on-disk representation, an extended Combined Log
// Format (CLF). The same Entry type flows through the live proxy, the
// CoDeeN-scale simulator, the session tracker, and the offline feature
// extractor, so results from the online and offline paths are directly
// comparable.
//
// The serialized format is the Apache "combined" log with the client
// User-Agent and Referer, which is what the paper's offline analysis (and the
// Tan & Kumar baseline it cites) consumes.
package logfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Entry is one HTTP request/response observation.
type Entry struct {
	// Time is when the request was received.
	Time time.Time
	// ClientIP is the remote address without port.
	ClientIP string
	// Method is the HTTP method (GET, HEAD, POST, ...).
	Method string
	// Path is the request path including any query string.
	Path string
	// Protocol is the HTTP version string, e.g. "HTTP/1.1".
	Protocol string
	// Status is the HTTP response status code.
	Status int
	// Bytes is the number of response body bytes sent.
	Bytes int64
	// Referer is the Referer request header ("" if absent).
	Referer string
	// UserAgent is the User-Agent request header ("" if absent).
	UserAgent string
	// ContentType is the response Content-Type ("" if unknown). It is not
	// part of classic CLF; it is carried in the extension position.
	ContentType string
}

// CLF timestamp layout: [10/Oct/2000:13:55:36 -0700]
const clfTimeLayout = "02/Jan/2006:15:04:05 -0700"

// String renders the entry as one extended combined-log line.
func (e Entry) String() string { return string(e.AppendLine(nil)) }

// AppendLine appends the entry's extended combined-log line (no trailing
// newline) to dst and returns the extended slice. The output is byte-for-byte
// what String returns; with a reused dst the encoder allocates nothing for
// the plain-ASCII fields real access logs consist of, which is what keeps
// Writer allocation-free per entry.
func (e Entry) AppendLine(dst []byte) []byte {
	dst = append(dst, emptyDash(e.ClientIP)...)
	dst = append(dst, " - - ["...)
	dst = e.Time.AppendFormat(dst, clfTimeLayout)
	dst = append(dst, "] \""...)
	dst = appendQuotedBody(dst, e.Method)
	dst = append(dst, ' ')
	dst = appendQuotedBody(dst, e.Path)
	dst = append(dst, ' ')
	dst = appendQuotedBody(dst, protocolOrDefault(e.Protocol))
	dst = append(dst, "\" "...)
	dst = strconv.AppendInt(dst, int64(e.Status), 10)
	dst = append(dst, ' ')
	if e.Bytes > 0 || e.Status != 0 {
		dst = strconv.AppendInt(dst, e.Bytes, 10)
	} else {
		dst = append(dst, '-')
	}
	dst = append(dst, ' ')
	dst = appendQuoted(dst, emptyDash(e.Referer))
	dst = append(dst, ' ')
	dst = appendQuoted(dst, emptyDash(e.UserAgent))
	dst = append(dst, ' ')
	return appendQuoted(dst, emptyDash(e.ContentType))
}

// quotePlain reports whether %q renders s as just "s": printable ASCII with
// no quote or backslash. Log fields are almost always in this set.
func quotePlain(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendQuoted appends s %q-quoted.
func appendQuoted(dst []byte, s string) []byte {
	if quotePlain(s) {
		dst = append(dst, '"')
		dst = append(dst, s...)
		return append(dst, '"')
	}
	return strconv.AppendQuote(dst, s)
}

// appendQuotedBody appends s escaped as %q would inside surrounding quotes
// the caller already emitted. Escaping is per-rune, so quoting the request
// line piecewise around its literal spaces matches quoting it whole.
func appendQuotedBody(dst []byte, s string) []byte {
	if quotePlain(s) {
		return append(dst, s...)
	}
	q := strconv.Quote(s)
	return append(dst, q[1:len(q)-1]...)
}

func emptyDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func protocolOrDefault(p string) string {
	if p == "" {
		return "HTTP/1.1"
	}
	return p
}

// ParseLine parses one extended combined-log line produced by Entry.String.
// It tolerates the plain combined format (without the trailing content-type
// field).
func ParseLine(line string) (Entry, error) {
	var e Entry
	line = strings.TrimSpace(line)
	if line == "" {
		return e, fmt.Errorf("logfmt: empty line")
	}
	// host ident user [time] "request" status bytes "referer" "agent" ["ctype"]
	rest := line
	var err error

	host, rest, err := nextToken(rest)
	if err != nil {
		return e, fmt.Errorf("logfmt: missing host: %w", err)
	}
	if host != "-" {
		e.ClientIP = host
	}
	if _, rest, err = nextToken(rest); err != nil { // ident
		return e, fmt.Errorf("logfmt: missing ident: %w", err)
	}
	if _, rest, err = nextToken(rest); err != nil { // authuser
		return e, fmt.Errorf("logfmt: missing user: %w", err)
	}

	// [timestamp]
	rest = strings.TrimLeft(rest, " ")
	if !strings.HasPrefix(rest, "[") {
		return e, fmt.Errorf("logfmt: missing timestamp bracket in %q", line)
	}
	end := strings.Index(rest, "]")
	if end < 0 {
		return e, fmt.Errorf("logfmt: unterminated timestamp in %q", line)
	}
	ts, err := time.Parse(clfTimeLayout, rest[1:end])
	if err != nil {
		return e, fmt.Errorf("logfmt: bad timestamp: %w", err)
	}
	e.Time = ts
	rest = rest[end+1:]

	// "METHOD path proto"
	req, rest, err := nextQuoted(rest)
	if err != nil {
		return e, fmt.Errorf("logfmt: bad request field: %w", err)
	}
	parts := strings.SplitN(req, " ", 3)
	if len(parts) >= 1 {
		e.Method = parts[0]
	}
	if len(parts) >= 2 {
		e.Path = parts[1]
	}
	if len(parts) >= 3 {
		e.Protocol = parts[2]
	}

	statusStr, rest, err := nextToken(rest)
	if err != nil {
		return e, fmt.Errorf("logfmt: missing status: %w", err)
	}
	status, err := strconv.Atoi(statusStr)
	if err != nil {
		return e, fmt.Errorf("logfmt: bad status %q: %w", statusStr, err)
	}
	e.Status = status

	bytesStr, rest, err := nextToken(rest)
	if err != nil {
		return e, fmt.Errorf("logfmt: missing bytes: %w", err)
	}
	if bytesStr != "-" {
		b, err := strconv.ParseInt(bytesStr, 10, 64)
		if err != nil {
			return e, fmt.Errorf("logfmt: bad bytes %q: %w", bytesStr, err)
		}
		e.Bytes = b
	}

	ref, rest, err := nextQuoted(rest)
	if err != nil {
		return e, fmt.Errorf("logfmt: bad referer: %w", err)
	}
	if ref != "-" {
		e.Referer = ref
	}
	ua, rest, err := nextQuoted(rest)
	if err != nil {
		return e, fmt.Errorf("logfmt: bad user-agent: %w", err)
	}
	if ua != "-" {
		e.UserAgent = ua
	}
	// Optional extension: content type.
	if ct, _, err := nextQuoted(rest); err == nil && ct != "-" {
		e.ContentType = ct
	}
	return e, nil
}

// nextToken returns the next space-delimited token and the remainder.
func nextToken(s string) (token, rest string, err error) {
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return "", "", fmt.Errorf("unexpected end of line")
	}
	idx := strings.IndexByte(s, ' ')
	if idx < 0 {
		return s, "", nil
	}
	return s[:idx], s[idx+1:], nil
}

// nextQuoted returns the next double-quoted field (supporting \" escapes as
// produced by %q) and the remainder.
func nextQuoted(s string) (field, rest string, err error) {
	s = strings.TrimLeft(s, " ")
	if !strings.HasPrefix(s, "\"") {
		return "", "", fmt.Errorf("expected quoted field in %q", s)
	}
	// Use strconv to honour escapes produced by %q.
	val, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", fmt.Errorf("unterminated quoted field: %w", err)
	}
	unq, err := strconv.Unquote(val)
	if err != nil {
		return "", "", fmt.Errorf("bad quoting: %w", err)
	}
	return unq, s[len(val):], nil
}

// Writer serializes entries to an io.Writer, one line per entry. Lines are
// encoded through Entry.AppendLine into a reused buffer, so steady-state
// writes allocate nothing.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	n   int64
	err error
}

// NewWriter returns a Writer emitting extended combined-log lines to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one entry. Once an error has occurred, subsequent writes are
// no-ops returning that error.
func (lw *Writer) Write(e Entry) error {
	if lw.err != nil {
		return lw.err
	}
	lw.buf = e.AppendLine(lw.buf[:0])
	lw.buf = append(lw.buf, '\n')
	if _, err := lw.w.Write(lw.buf); err != nil {
		lw.err = err
		return err
	}
	lw.n++
	return nil
}

// Count returns the number of entries written successfully.
func (lw *Writer) Count() int64 { return lw.n }

// Flush flushes buffered output.
func (lw *Writer) Flush() error {
	if lw.err != nil {
		return lw.err
	}
	return lw.w.Flush()
}

// Reader parses entries from an io.Reader.
type Reader struct {
	s       *bufio.Scanner
	lineNum int
}

// NewReader returns a Reader over r. Lines up to 1 MiB are supported.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Reader{s: s}
}

// Read returns the next entry, io.EOF at end of input, or a parse error
// annotated with the line number. Blank lines and lines starting with '#'
// are skipped.
func (lr *Reader) Read() (Entry, error) {
	for lr.s.Scan() {
		lr.lineNum++
		line := strings.TrimSpace(lr.s.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := ParseLine(line)
		if err != nil {
			return Entry{}, fmt.Errorf("line %d: %w", lr.lineNum, err)
		}
		return e, nil
	}
	if err := lr.s.Err(); err != nil {
		return Entry{}, err
	}
	return Entry{}, io.EOF
}

// ReadEach streams entries from r to fn, one at a time, in bounded memory:
// nothing beyond the current line is retained. It stops at EOF (returning
// nil), on the first parse error, or on the first error returned by fn
// (which is returned verbatim, so callers can abort a replay early).
func ReadEach(r io.Reader, fn func(Entry) error) error {
	lr := NewReader(r)
	for {
		e, err := lr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
}

// --- request classification -------------------------------------------------
//
// Entry.Kind tells the detector and the feature extractor what kind of object
// a request refers to, once per request, from the path's extension (after its
// last '.' past its last '/') and, when there is one, the response content
// type, mirroring how the CoDeeN implementation keyed on file names it had
// itself generated. Letter case folds as strings.ToLower folds it, without
// building the lowered string: ASCII letters fold to lowercase, U+0130 (İ) to
// i and U+212A (the Kelvin sign) to k, the only non-ASCII runes whose
// lowercase is ASCII; no other rune, nor invalid UTF-8, matches an ASCII
// letter. So /FAVİCON.ICO is a favicon, and Kind allocates nothing.

// PathOnly strips any query string from the path.
func (e Entry) PathOnly() string {
	if i := strings.IndexByte(e.Path, '?'); i >= 0 {
		return e.Path[:i]
	}
	return e.Path
}

// Kind is the class of object a request asks for, as a bit set of the
// request classes the session counters and the Table 2 attributes count.
type Kind uint8

// The request classes. kindCSS and kindJS only feed KindEmbedded.
const (
	KindHTML     Kind = 1 << iota // an HTML page
	KindImage                     // an image
	KindCGI                       // a dynamic, CGI-style resource
	KindFavicon                   // favicon.ico
	KindEmbedded                  // a page dependency: image, CSS, JS, favicon, font, media
	kindCSS
	kindJS
)

// IsHTMLType reports whether a content type begins with text/html in any
// letter case: the HTML test of Kind and of both serving surfaces.
func IsHTMLType(contentType string) bool { return foldPrefix(contentType, "text/html") >= 0 }

// Kind classifies the request's object. A content type beginning with
// text/html is HTML and any other vetoes HTML; without one, an HTML or
// server-page extension is HTML, and so is an extension-less path that ends
// in '/' or holds no '.' at all. CGI is /cgi-bin/ or /cgi/ in the path, a
// script extension or a non-empty query; a script's content type names
// javascript or ecmascript anywhere.
func (e Entry) Kind() Kind {
	p, query, _ := strings.Cut(e.Path, "?")
	slash := strings.LastIndexByte(p, '/')
	dot := strings.LastIndexByte(p, '.')

	var k Kind
	if dot > slash {
		var buf [len(".shtml")]byte
		k = extKind(foldExt(&buf, p[dot:]))
	} else if dot < 0 || strings.HasSuffix(p, "/") {
		k = KindHTML
	}
	if ct := e.ContentType; ct != "" {
		k &^= KindHTML
		if IsHTMLType(ct) {
			k |= KindHTML
		}
		if foldPrefix(ct, "image/") >= 0 {
			k |= KindImage
		}
		if foldPrefix(ct, "text/css") >= 0 {
			k |= kindCSS
		}
		if containsFold(ct, "javascript") || containsFold(ct, "ecmascript") {
			k |= kindJS
		}
	}
	if query != "" || containsFold(p, "/cgi-bin/") || containsFold(p, "/cgi/") {
		k |= KindCGI
	}
	if slash >= 0 && foldPrefix(p[slash:], "/favicon.ico") == len(p)-slash || foldPrefix(p, "favicon.ico") == len(p) {
		k |= KindFavicon
	}
	if k&(KindImage|kindCSS|kindJS|KindFavicon) != 0 {
		k |= KindEmbedded
	}
	return k
}

// extKind classifies a lowercase extension.
func extKind(ext []byte) Kind {
	switch string(ext) {
	case ".html", ".htm", ".shtml":
		return KindHTML
	case ".php", ".asp", ".aspx", ".jsp":
		return KindHTML | KindCGI
	case ".cgi", ".pl":
		return KindCGI
	case ".gif", ".jpg", ".jpeg", ".png", ".bmp", ".ico", ".webp":
		return KindImage
	case ".css":
		return kindCSS
	case ".js":
		return kindJS
	case ".woff", ".woff2", ".ttf", ".swf", ".mp3", ".wav":
		return KindEmbedded
	}
	return 0
}

// foldExt lowercases ext into buf, or returns nil when ext cannot be one
// extKind names: longer than buf, or holding a rune whose lowercase is not
// ASCII.
func foldExt(buf *[len(".shtml")]byte, ext string) []byte {
	n := 0
	for i := 0; i < len(ext); n++ {
		c, w := foldByte(ext[i:])
		if w == 0 || n == len(buf) {
			return nil
		}
		buf[n], i = c, i+w
	}
	return buf[:n]
}

// foldByte returns the lowercase of the rune s begins with and the rune's
// width in s, or a width of 0 when s is empty or that lowercase is not ASCII.
func foldByte(s string) (byte, int) {
	switch {
	case s == "":
	case 'A' <= s[0] && s[0] <= 'Z':
		return s[0] + 'a' - 'A', 1
	case s[0] < utf8.RuneSelf:
		return s[0], 1
	case strings.HasPrefix(s, "İ"):
		return 'i', len("İ")
	case strings.HasPrefix(s, "K"):
		return 'k', len("K")
	}
	return 0, 0
}

// foldPrefix returns how many bytes of s lowercase to the lowercase ASCII t
// when s begins with it, or -1.
func foldPrefix(s, t string) int {
	i := 0
	for j := 0; j < len(t); j++ {
		c, w := foldByte(s[i:])
		if w == 0 || c != t[j] {
			return -1
		}
		i += w
	}
	return i
}

// containsFold reports whether s lowercased contains the lowercase ASCII t.
// Every byte offset may be tried: a match begins at an ASCII byte or a UTF-8
// leading byte, which never sits inside another rune.
func containsFold(s, t string) bool {
	for i := 0; i+len(t) <= len(s); i++ {
		if foldPrefix(s[i:], t) >= 0 {
			return true
		}
	}
	return false
}

// IsHead reports whether the request used the HEAD method.
func (e Entry) IsHead() bool { return strings.EqualFold(e.Method, "HEAD") }

// StatusClass returns the hundreds class of the status code (2 for 2xx, ...).
func (e Entry) StatusClass() int { return e.Status / 100 }
