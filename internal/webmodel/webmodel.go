// Package webmodel generates and serves a synthetic Web site used as the
// origin content behind the instrumenting proxy.
//
// The paper's evaluation ran against live origin servers reached through the
// CoDeeN network; this package substitutes a deterministic site whose pages
// have the structure the detector cares about: visible links between pages,
// embedded images, a stylesheet, a JavaScript file, CGI endpoints that
// redirect or fail, a robots.txt, and a favicon. Page and object sizes follow
// heavy-tailed draws, so the synthetic traffic resembles Web traffic at the
// level of observable request streams; which pages a client asks for is the
// client's business (internal/agents follows links).
package webmodel

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"botdetect/internal/rng"
)

// SiteConfig controls synthetic site generation.
type SiteConfig struct {
	// NumPages is the number of HTML pages (at least 1; the first is "/").
	NumPages int
	// Seed drives all randomness in generation.
	Seed uint64
}

// The shape of every generated site; only its size and seed vary.
const (
	// host is the site's host name, used in absolute URLs.
	host = "www.example.com"
	// linksPerPage is the mean number of visible links from each page.
	linksPerPage = 8
	// imagesPerPage is the mean number of embedded images per page.
	imagesPerPage = 4
	// cgiEndpoints is the number of distinct CGI scripts on the site.
	cgiEndpoints = 5
	// maxImageBytes caps the heavy-tailed image size draw.
	maxImageBytes = 200000
)

// withDefaults returns a copy of the config with zero fields replaced by
// sensible defaults.
func (c SiteConfig) withDefaults() SiteConfig {
	if c.NumPages <= 0 {
		c.NumPages = 100
	}
	return c
}

// Page is one HTML page on the synthetic site.
type Page struct {
	// Path is the page's request path, e.g. "/page17.html".
	Path string
	// Links are paths of pages this page links to with visible anchors.
	Links []string
	// Images are paths of embedded images on the page.
	Images []string
	// CSS is the path of the page's stylesheet.
	CSS string
	// Script is the path of the page's JavaScript file.
	Script string
	// CGILinks are dynamic links (forms/search) present on the page.
	CGILinks []string
	// TextBytes is the amount of filler text in the page body.
	TextBytes int
}

// Object is a servable site object.
type Object struct {
	// Status is the HTTP status the origin returns for this object.
	Status int
	// ContentType is the response content type.
	ContentType string
	// Body is the response body.
	Body []byte
	// RedirectTo is set for 3xx responses.
	RedirectTo string
}

// Site is a generated synthetic web site. All methods are safe for
// concurrent use after generation. Object bodies are read-only: the image
// bodies of one site are slices of a single shared buffer.
type Site struct {
	pages   []*Page
	objects map[string]Object
}

// Generate builds a synthetic site from the configuration.
func Generate(cfg SiteConfig) *Site {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed).Fork("webmodel")
	s := &Site{
		objects: make(map[string]Object, cfg.NumPages*(1+imagesPerPage)+16),
	}

	cgis := make([]string, cgiEndpoints)
	for i := range cgis {
		cgis[i] = fmt.Sprintf("/cgi-bin/app%d.cgi", i)
	}
	// Every page, stylesheet and script path is one string, shared by the
	// pages that name it. Numbered names are built in scratch and copied out
	// once.
	var scratch []byte
	pagePaths := make([]string, cfg.NumPages)
	for i := range pagePaths {
		scratch = strconv.AppendInt(append(scratch[:0], "/page"...), int64(i), 10)
		scratch = append(scratch, ".html"...)
		pagePaths[i] = string(scratch)
	}
	pagePaths[0] = "/"
	var cssPaths [7]string
	for i := range cssPaths {
		cssPaths[i] = fmt.Sprintf("/static/site%d.css", i)
	}
	var scriptPaths [5]string
	for i := range scriptPaths {
		scriptPaths[i] = fmt.Sprintf("/static/site%d.js", i)
	}

	s.pages = make([]*Page, 0, cfg.NumPages)
	for i, path := range pagePaths {
		p := &Page{
			Path:      path,
			CSS:       cssPaths[i%len(cssPaths)],
			Script:    scriptPaths[i%len(scriptPaths)],
			TextBytes: int(src.Pareto(800, 1.3)),
		}
		p.Links = make([]string, 1+src.Poisson(linksPerPage-1))
		for j := range p.Links {
			p.Links[j] = pagePaths[src.Intn(cfg.NumPages)]
		}
		p.Images = make([]string, src.Poisson(imagesPerPage))
		for j := range p.Images {
			scratch = strconv.AppendInt(append(scratch[:0], "/img/photo"...), int64(i), 10)
			scratch = strconv.AppendInt(append(scratch, '_'), int64(j), 10)
			scratch = append(scratch, ".jpg"...)
			p.Images[j] = string(scratch)
		}
		if src.Bool(0.4) && len(cgis) > 0 {
			scratch = append(append(scratch[:0], cgis[src.Intn(len(cgis))]...), "?page="...)
			scratch = strconv.AppendInt(scratch, int64(i), 10)
			p.CGILinks = []string{string(scratch)}
		}
		s.pages = append(s.pages, p)
	}

	// Pre-render static objects. Nothing reads an image but its length, so
	// every image body is a slice of one filler, capped at its own length.
	jpeg := bytes.Repeat([]byte{'j'}, maxImageBytes)
	for _, p := range s.pages {
		scratch = appendHTML(scratch[:0], host, p)
		s.objects[p.Path] = Object{Status: http.StatusOK, ContentType: "text/html; charset=utf-8", Body: bytes.Clone(scratch)}
		for _, img := range p.Images {
			if _, ok := s.objects[img]; !ok {
				size := min(int(src.Pareto(2000, 1.2)), maxImageBytes)
				s.objects[img] = Object{Status: http.StatusOK, ContentType: "image/jpeg", Body: jpeg[:size:size]}
			}
		}
		if _, ok := s.objects[p.CSS]; !ok {
			s.objects[p.CSS] = Object{Status: http.StatusOK, ContentType: "text/css", Body: []byte(renderCSS(p.CSS, int(src.Pareto(500, 1.5))))}
		}
		if _, ok := s.objects[p.Script]; !ok {
			s.objects[p.Script] = Object{Status: http.StatusOK, ContentType: "application/javascript", Body: []byte(renderJS(p.Script, int(src.Pareto(400, 1.5))))}
		}
	}
	s.objects["/favicon.ico"] = Object{Status: http.StatusOK, ContentType: "image/x-icon", Body: bytes.Repeat([]byte{'i'}, 318)}
	s.objects["/robots.txt"] = Object{Status: http.StatusOK, ContentType: "text/plain",
		Body: []byte("User-agent: *\nDisallow: /cgi-bin/\nCrawl-delay: 10\n")}
	return s
}

// Host returns the configured host name.
func (s *Site) Host() string { return host }

// NumPages returns the number of HTML pages on the site.
func (s *Site) NumPages() int { return len(s.pages) }

// Pages returns all pages in index order. The returned slice must not be
// modified.
func (s *Site) Pages() []*Page { return s.pages }

// Lookup resolves a request path (query string allowed) to an object.
// Unknown paths yield a 404 object; CGI paths yield dynamic objects:
// roughly 30% respond with a redirect (302) back to a static page and a
// small fraction fail with 5xx, mimicking real dynamic endpoints so that
// response-code distributions are realistic.
func (s *Site) Lookup(path string) Object {
	clean := path
	if i := strings.IndexByte(clean, '?'); i >= 0 {
		clean = clean[:i]
	}
	if obj, ok := s.objects[clean]; ok {
		return obj
	}
	if strings.HasPrefix(clean, "/cgi-bin/") {
		return s.cgiResponse(path)
	}
	return Object{Status: http.StatusNotFound, ContentType: "text/html",
		Body: []byte("<html><head><title>404 Not Found</title></head><body><h1>Not Found</h1></body></html>")}
}

// cgiResponse deterministically derives a dynamic response from the request
// path so repeated requests to the same URL behave consistently.
func (s *Site) cgiResponse(path string) Object {
	h := uint64(14695981039346656037)
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	switch h % 10 {
	case 0, 1, 2: // redirect back into the static site
		target := s.pages[int(h/10)%len(s.pages)].Path
		return Object{Status: http.StatusFound, ContentType: "text/html", RedirectTo: target,
			Body: []byte("<html><body>Moved <a href=\"" + target + "\">here</a></body></html>")}
	case 3: // server error
		return Object{Status: http.StatusInternalServerError, ContentType: "text/html",
			Body: []byte("<html><body><h1>500 Internal Server Error</h1></body></html>")}
	default:
		body := fmt.Sprintf("<html><head><title>Results</title></head><body><h1>Query results</h1><p>for %s</p></body></html>", path)
		return Object{Status: http.StatusOK, ContentType: "text/html; charset=utf-8", Body: []byte(body)}
	}
}

// Handler returns an http.Handler serving the site, usable as the origin in
// integration tests and in the example programs.
func (s *Site) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obj := s.Lookup(r.URL.RequestURI())
		if obj.RedirectTo != "" {
			w.Header().Set("Location", obj.RedirectTo)
		}
		w.Header().Set("Content-Type", obj.ContentType)
		w.WriteHeader(obj.Status)
		if r.Method != http.MethodHead {
			_, _ = w.Write(obj.Body)
		}
	})
}

// appendHTML appends the page markup to dst: head with CSS link and script,
// body with visible anchors, embedded images, CGI links and filler text.
func appendHTML(dst []byte, host string, p *Page) []byte {
	dst = append(dst, "<!DOCTYPE html>\n<html>\n<head>\n<title>"...)
	dst = append(append(append(dst, host...), ' '), p.Path...)
	dst = append(append(dst, "</title>\n<link rel=\"stylesheet\" type=\"text/css\" href=\""...), p.CSS...)
	dst = append(append(dst, "\">\n<script type=\"text/javascript\" src=\""...), p.Script...)
	dst = append(append(dst, "\"></script>\n</head>\n<body>\n<h1>Page "...), p.Path...)
	dst = append(dst, "</h1>\n<ul>\n"...)
	for i, l := range p.Links {
		dst = append(append(dst, "<li><a href=\""...), l...)
		dst = strconv.AppendInt(append(dst, "\">Link "...), int64(i), 10)
		dst = append(dst, "</a></li>\n"...)
	}
	dst = append(dst, "</ul>\n"...)
	for _, img := range p.Images {
		dst = append(append(append(dst, "<img src=\""...), img...), "\" alt=\"photo\">\n"...)
	}
	for _, cgi := range p.CGILinks {
		dst = append(append(append(dst, "<a href=\""...), cgi...), "\">Search</a>\n"...)
	}
	dst = appendFillerText(append(dst, "<p>"...), p.TextBytes)
	return append(dst, "</p>\n</body>\n</html>\n"...)
}

func renderCSS(path string, size int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "/* %s */\nbody { font-family: sans-serif; margin: 2em; }\n", path)
	for b.Len() < size {
		fmt.Fprintf(&b, ".c%d { color: #%06x; padding: %dpx; }\n", b.Len(), b.Len()*2654435761%0xffffff, b.Len()%17)
	}
	return b.String()
}

func renderJS(path string, size int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s\nfunction init() { return true; }\n", path)
	for b.Len() < size {
		fmt.Fprintf(&b, "var v%d = %d;\n", b.Len(), b.Len()*31)
	}
	return b.String()
}

const loremChunk = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do eiusmod tempor incididunt ut labore et dolore magna aliqua "

// appendFillerText appends n bytes of repeated loremChunk to dst.
func appendFillerText(dst []byte, n int) []byte {
	for ; n >= len(loremChunk); n -= len(loremChunk) {
		dst = append(dst, loremChunk...)
	}
	if n > 0 {
		dst = append(dst, loremChunk[:n]...)
	}
	return dst
}
