package logfmt

import "strings"

// The oracle: the per-class methods Entry.Kind replaced, as they stood, each
// lowering the entry's strings again. FuzzKind holds Kind to them bit for
// bit.

// oracleKind assembles the oracle's answers into a Kind.
func oracleKind(e Entry) Kind {
	var k Kind
	for _, c := range []struct {
		is  bool
		bit Kind
	}{
		{e.IsHTML(), KindHTML}, {e.IsImage(), KindImage}, {e.IsCGI(), KindCGI},
		{e.IsFavicon(), KindFavicon}, {e.IsEmbedded(), KindEmbedded},
		{e.IsCSS(), kindCSS}, {e.IsJS(), kindJS},
	} {
		if c.is {
			k |= c.bit
		}
	}
	return k
}

// Query returns the query string without the '?', or "".
func (e Entry) Query() string {
	if i := strings.IndexByte(e.Path, '?'); i >= 0 {
		return e.Path[i+1:]
	}
	return ""
}

// Ext returns the lowercase path extension including the dot, or "".
func (e Entry) Ext() string {
	p := e.PathOnly()
	slash := strings.LastIndexByte(p, '/')
	dot := strings.LastIndexByte(p, '.')
	if dot < 0 || dot < slash {
		return ""
	}
	return strings.ToLower(p[dot:])
}

// IsHTML reports whether the request is for an HTML page (by content type or
// by extension / extension-less path).
func (e Entry) IsHTML() bool {
	ct := strings.ToLower(e.ContentType)
	if strings.HasPrefix(ct, "text/html") {
		return true
	}
	if ct != "" && !strings.HasPrefix(ct, "text/html") {
		return false
	}
	switch e.Ext() {
	case ".html", ".htm", ".shtml", ".php", ".asp", ".aspx", ".jsp":
		return true
	case "":
		// Directory-style URL.
		return strings.HasSuffix(e.PathOnly(), "/") || !strings.Contains(e.PathOnly(), ".")
	}
	return false
}

// IsImage reports whether the request is for an image object.
func (e Entry) IsImage() bool {
	if strings.HasPrefix(strings.ToLower(e.ContentType), "image/") {
		return true
	}
	switch e.Ext() {
	case ".gif", ".jpg", ".jpeg", ".png", ".bmp", ".ico", ".webp":
		return true
	}
	return false
}

// IsCSS reports whether the request is for a stylesheet.
func (e Entry) IsCSS() bool {
	if strings.HasPrefix(strings.ToLower(e.ContentType), "text/css") {
		return true
	}
	return e.Ext() == ".css"
}

// IsJS reports whether the request is for a JavaScript file.
func (e Entry) IsJS() bool {
	ct := strings.ToLower(e.ContentType)
	if strings.Contains(ct, "javascript") || strings.Contains(ct, "ecmascript") {
		return true
	}
	return e.Ext() == ".js"
}

// IsCGI reports whether the request targets a dynamic/CGI-style resource
// (cgi-bin paths, script extensions, or any request carrying a query string).
func (e Entry) IsCGI() bool {
	p := strings.ToLower(e.PathOnly())
	if strings.Contains(p, "/cgi-bin/") || strings.Contains(p, "/cgi/") {
		return true
	}
	switch e.Ext() {
	case ".cgi", ".pl", ".php", ".asp", ".aspx", ".jsp":
		return true
	}
	return e.Query() != ""
}

// IsFavicon reports whether the request is for favicon.ico.
func (e Entry) IsFavicon() bool {
	return strings.HasSuffix(strings.ToLower(e.PathOnly()), "/favicon.ico") ||
		strings.ToLower(e.PathOnly()) == "favicon.ico"
}

// IsEmbedded reports whether the object is one a browser fetches as a page
// dependency rather than a navigation target: images, CSS, JS, favicon,
// fonts, media.
func (e Entry) IsEmbedded() bool {
	if e.IsImage() || e.IsCSS() || e.IsJS() || e.IsFavicon() {
		return true
	}
	switch e.Ext() {
	case ".woff", ".woff2", ".ttf", ".swf", ".mp3", ".wav":
		return true
	}
	return false
}
