// Package webmodel generates and serves a synthetic Web site used as the
// origin content behind the instrumenting proxy.
//
// The paper's evaluation ran against live origin servers reached through the
// CoDeeN network; this package substitutes a deterministic site whose pages
// have the structure the detector cares about: visible links between pages,
// embedded images, a stylesheet, a JavaScript file, CGI endpoints that
// redirect or fail, a robots.txt, and a favicon. Page popularity follows a
// Zipf distribution, and page/object sizes follow heavy-tailed draws, so the
// synthetic traffic resembles Web traffic at the level of observable request
// streams.
package webmodel

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

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
	// popularitySkew is the Zipf skew of page popularity.
	popularitySkew = 0.9
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
// concurrent use after generation.
type Site struct {
	pages   []*Page
	byPath  map[string]*Page
	objects map[string]Object

	popMu sync.Mutex
	pop   *rng.Zipf
}

// Generate builds a synthetic site from the configuration.
func Generate(cfg SiteConfig) *Site {
	cfg = cfg.withDefaults()
	src := rng.New(cfg.Seed).Fork("webmodel")
	s := &Site{
		byPath:  make(map[string]*Page),
		objects: make(map[string]Object),
	}

	cgis := make([]string, cgiEndpoints)
	for i := range cgis {
		cgis[i] = fmt.Sprintf("/cgi-bin/app%d.cgi", i)
	}

	for i := 0; i < cfg.NumPages; i++ {
		path := fmt.Sprintf("/page%d.html", i)
		if i == 0 {
			path = "/"
		}
		p := &Page{
			Path:      path,
			CSS:       fmt.Sprintf("/static/site%d.css", i%7),
			Script:    fmt.Sprintf("/static/site%d.js", i%5),
			TextBytes: int(src.Pareto(800, 1.3)),
		}
		nLinks := 1 + src.Poisson(linksPerPage-1)
		for j := 0; j < nLinks; j++ {
			target := src.Intn(cfg.NumPages)
			tp := fmt.Sprintf("/page%d.html", target)
			if target == 0 {
				tp = "/"
			}
			p.Links = append(p.Links, tp)
		}
		nImgs := src.Poisson(imagesPerPage)
		for j := 0; j < nImgs; j++ {
			p.Images = append(p.Images, fmt.Sprintf("/img/photo%d_%d.jpg", i, j))
		}
		if src.Bool(0.4) && len(cgis) > 0 {
			p.CGILinks = append(p.CGILinks, cgis[src.Intn(len(cgis))]+fmt.Sprintf("?page=%d", i))
		}
		s.pages = append(s.pages, p)
		s.byPath[p.Path] = p
	}

	// Pre-render static objects.
	for _, p := range s.pages {
		s.objects[p.Path] = Object{Status: http.StatusOK, ContentType: "text/html; charset=utf-8", Body: []byte(renderHTML(host, p))}
		for _, img := range p.Images {
			if _, ok := s.objects[img]; !ok {
				size := int(src.Pareto(2000, 1.2))
				if size > 200000 {
					size = 200000
				}
				s.objects[img] = Object{Status: http.StatusOK, ContentType: "image/jpeg", Body: fillerBytes(size, byte('j'))}
			}
		}
		if _, ok := s.objects[p.CSS]; !ok {
			s.objects[p.CSS] = Object{Status: http.StatusOK, ContentType: "text/css", Body: []byte(renderCSS(p.CSS, int(src.Pareto(500, 1.5))))}
		}
		if _, ok := s.objects[p.Script]; !ok {
			s.objects[p.Script] = Object{Status: http.StatusOK, ContentType: "application/javascript", Body: []byte(renderJS(p.Script, int(src.Pareto(400, 1.5))))}
		}
	}
	s.objects["/favicon.ico"] = Object{Status: http.StatusOK, ContentType: "image/x-icon", Body: fillerBytes(318, 'i')}
	s.objects["/robots.txt"] = Object{Status: http.StatusOK, ContentType: "text/plain",
		Body: []byte("User-agent: *\nDisallow: /cgi-bin/\nCrawl-delay: 10\n")}

	s.pop = rng.NewZipf(src.Split(), len(s.pages), popularitySkew)
	return s
}

// Host returns the configured host name.
func (s *Site) Host() string { return host }

// NumPages returns the number of HTML pages on the site.
func (s *Site) NumPages() int { return len(s.pages) }

// Pages returns all pages in index order. The returned slice must not be
// modified.
func (s *Site) Pages() []*Page { return s.pages }

// Page returns the page with the given path, or nil.
func (s *Site) Page(path string) *Page { return s.byPath[path] }

// HomePage returns the site's root page.
func (s *Site) HomePage() *Page { return s.pages[0] }

// PopularPage draws a page according to the Zipf popularity distribution.
func (s *Site) PopularPage() *Page {
	s.popMu.Lock()
	idx := s.pop.Next()
	s.popMu.Unlock()
	return s.pages[idx]
}

// Paths returns all servable object paths in sorted order.
func (s *Site) Paths() []string {
	out := make([]string, 0, len(s.objects))
	for p := range s.objects {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

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

// renderHTML produces the page markup: head with CSS link and script, body
// with visible anchors, embedded images, CGI links and filler text.
func renderHTML(host string, p *Page) string {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n")
	fmt.Fprintf(&b, "<title>%s %s</title>\n", host, p.Path)
	fmt.Fprintf(&b, "<link rel=\"stylesheet\" type=\"text/css\" href=\"%s\">\n", p.CSS)
	fmt.Fprintf(&b, "<script type=\"text/javascript\" src=\"%s\"></script>\n", p.Script)
	b.WriteString("</head>\n<body>\n")
	fmt.Fprintf(&b, "<h1>Page %s</h1>\n", p.Path)
	b.WriteString("<ul>\n")
	for i, l := range p.Links {
		fmt.Fprintf(&b, "<li><a href=\"%s\">Link %d</a></li>\n", l, i)
	}
	b.WriteString("</ul>\n")
	for _, img := range p.Images {
		fmt.Fprintf(&b, "<img src=\"%s\" alt=\"photo\">\n", img)
	}
	for _, cgi := range p.CGILinks {
		fmt.Fprintf(&b, "<a href=\"%s\">Search</a>\n", cgi)
	}
	b.WriteString("<p>")
	b.WriteString(fillerText(p.TextBytes))
	b.WriteString("</p>\n</body>\n</html>\n")
	return b.String()
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

func fillerText(n int) string {
	if n <= 0 {
		return ""
	}
	var b strings.Builder
	for b.Len() < n {
		b.WriteString(loremChunk)
	}
	return b.String()[:n]
}

func fillerBytes(n int, fill byte) []byte {
	if n <= 0 {
		return nil
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = fill
	}
	return buf
}
