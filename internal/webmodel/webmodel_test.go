package webmodel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// paths returns all servable object paths in sorted order.
func (s *Site) paths() []string {
	out := make([]string, 0, len(s.objects))
	for p := range s.objects {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// isPage reports whether the site serves path as an HTML page.
func isPage(s *Site, path string) bool {
	obj := s.Lookup(path)
	return obj.Status == http.StatusOK && strings.HasPrefix(obj.ContentType, "text/html")
}

func TestGenerateDefaults(t *testing.T) {
	s := Generate(SiteConfig{Seed: 1})
	if s.Host() != "www.example.com" {
		t.Fatalf("Host = %q", s.Host())
	}
	if s.NumPages() != 100 {
		t.Fatalf("NumPages = %d", s.NumPages())
	}
	if s.Pages()[0].Path != "/" {
		t.Fatalf("home path = %q", s.Pages()[0].Path)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SiteConfig{Seed: 42, NumPages: 20})
	b := Generate(SiteConfig{Seed: 42, NumPages: 20})
	if len(a.paths()) != len(b.paths()) {
		t.Fatal("same seed produced different object sets")
	}
	for i, p := range a.Pages() {
		q := b.Pages()[i]
		if p.Path != q.Path || len(p.Links) != len(q.Links) || len(p.Images) != len(q.Images) {
			t.Fatalf("page %d differs between same-seed sites", i)
		}
	}
	c := Generate(SiteConfig{Seed: 43, NumPages: 20})
	diff := false
	for i := range a.Pages() {
		if len(a.Pages()[i].Links) != len(c.Pages()[i].Links) || len(a.Pages()[i].Images) != len(c.Pages()[i].Images) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced structurally identical sites")
	}
}

func TestEveryPageHasStructure(t *testing.T) {
	s := Generate(SiteConfig{Seed: 7, NumPages: 50})
	for _, p := range s.Pages() {
		if len(p.Links) == 0 {
			t.Fatalf("page %s has no links", p.Path)
		}
		if p.CSS == "" || p.Script == "" {
			t.Fatalf("page %s missing CSS or script", p.Path)
		}
		for _, l := range p.Links {
			if !isPage(s, l) {
				t.Fatalf("page %s links to unknown page %s", p.Path, l)
			}
		}
	}
}

func TestLookupPagesAndObjects(t *testing.T) {
	s := Generate(SiteConfig{Seed: 11, NumPages: 10})
	home := s.Lookup("/")
	if home.Status != http.StatusOK || !strings.Contains(home.ContentType, "text/html") {
		t.Fatalf("home lookup = %+v", home)
	}
	body := string(home.Body)
	if !strings.Contains(body, "<link rel=\"stylesheet\"") || !strings.Contains(body, "<script") ||
		!strings.Contains(body, "<a href=") {
		t.Fatal("home page markup missing expected elements")
	}
	p := s.Pages()[1]
	css := s.Lookup(p.CSS)
	if css.Status != http.StatusOK || css.ContentType != "text/css" || len(css.Body) == 0 {
		t.Fatalf("css lookup = %+v", css)
	}
	js := s.Lookup(p.Script)
	if js.Status != http.StatusOK || js.ContentType != "application/javascript" {
		t.Fatalf("js lookup = %+v", js)
	}
	if len(p.Images) > 0 {
		img := s.Lookup(p.Images[0])
		if img.Status != http.StatusOK || img.ContentType != "image/jpeg" {
			t.Fatalf("image lookup = %+v", img)
		}
	}
	if s.Lookup("/no/such/path.html").Status != http.StatusNotFound {
		t.Fatal("unknown path should 404")
	}
	if s.Lookup("/robots.txt").Status != http.StatusOK {
		t.Fatal("robots.txt missing")
	}
	if s.Lookup("/favicon.ico").Status != http.StatusOK {
		t.Fatal("favicon missing")
	}
}

func TestCGIBehaviourDeterministic(t *testing.T) {
	s := Generate(SiteConfig{Seed: 13, NumPages: 10})
	a := s.Lookup("/cgi-bin/app0.cgi?page=3")
	b := s.Lookup("/cgi-bin/app0.cgi?page=3")
	if a.Status != b.Status || a.RedirectTo != b.RedirectTo {
		t.Fatal("CGI responses not deterministic for identical URLs")
	}
	// Over many distinct CGI URLs we should observe 200s, 3xx and 5xx.
	var ok200, redir, fail int
	for i := 0; i < 200; i++ {
		obj := s.Lookup("/cgi-bin/app1.cgi?q=" + strings.Repeat("x", i%7) + string(rune('a'+i%26)))
		switch {
		case obj.Status == http.StatusOK:
			ok200++
		case obj.Status/100 == 3:
			redir++
			if obj.RedirectTo == "" {
				t.Fatal("redirect object missing target")
			}
			if !isPage(s, obj.RedirectTo) {
				t.Fatalf("redirect target %q is not a site page", obj.RedirectTo)
			}
		case obj.Status/100 == 5:
			fail++
		}
	}
	if ok200 == 0 || redir == 0 || fail == 0 {
		t.Fatalf("CGI status mix degenerate: 200=%d 3xx=%d 5xx=%d", ok200, redir, fail)
	}
}

func TestHandlerServesSite(t *testing.T) {
	s := Generate(SiteConfig{Seed: 19, NumPages: 5})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatalf("GET /: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}

	headReq, _ := http.NewRequest(http.MethodHead, srv.URL+"/", nil)
	headResp, err := http.DefaultClient.Do(headReq)
	if err != nil {
		t.Fatalf("HEAD /: %v", err)
	}
	headResp.Body.Close()
	if headResp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD status = %d", headResp.StatusCode)
	}

	missing, err := http.Get(srv.URL + "/definitely-missing.html")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("missing page status = %d", missing.StatusCode)
	}
}

func TestFillerHelpers(t *testing.T) {
	if appendFillerText(nil, 0) != nil || appendFillerText(nil, -5) != nil {
		t.Fatal("appendFillerText should append nothing for non-positive sizes")
	}
	for _, n := range []int{1, 100, len(loremChunk), 3*len(loremChunk) + 7} {
		got := string(appendFillerText([]byte("<p>"), n))
		if want := "<p>" + strings.Repeat(loremChunk, 4)[:n]; got != want {
			t.Fatalf("appendFillerText(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestPathsSortedAndComplete(t *testing.T) {
	s := Generate(SiteConfig{Seed: 23, NumPages: 10})
	paths := s.paths()
	for i := 1; i < len(paths); i++ {
		if paths[i-1] >= paths[i] {
			t.Fatal("paths not sorted or contains duplicates")
		}
	}
	found := map[string]bool{}
	for _, p := range paths {
		found[p] = true
	}
	for _, want := range []string{"/", "/robots.txt", "/favicon.ico"} {
		if !found[want] {
			t.Fatalf("paths missing %q", want)
		}
	}
}

// siteDigest hashes every (path, status, content type, body) the site serves,
// in path order, length-prefixed so field boundaries cannot shift.
func siteDigest(s *Site) string {
	h := sha256.New()
	for _, p := range s.paths() {
		obj := s.Lookup(p)
		fmt.Fprintf(h, "%d:%s %d %d:%s %d:", len(p), p, obj.Status, len(obj.ContentType), obj.ContentType, len(obj.Body))
		h.Write(obj.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigest pins the benchmark's site byte for byte: the fixture may
// be built any way that is cheap, but what it serves is part of every
// workload's wire bytes. The digest was computed before image bodies were
// sliced off one shared filler and pages rendered straight into their bodies.
// The budget keeps Generate a small share of a workload's set-up: it was
// 10.7 MB in 13,054 allocations when every image had its own filled buffer.
func TestGenerateDigest(t *testing.T) {
	cfg := SiteConfig{Seed: 2006, NumPages: 200}
	const want = "d48d1df1dc907efa3b78e022645a1a0cd5bf94c91b95d6c966f7295fae21265e"
	if got := siteDigest(Generate(cfg)); got != want {
		t.Fatalf("site digest = %s, want %s", got, want)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	site := Generate(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(site)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("Generate: %d B in %d allocations", bytes, allocs)
	if raceEnabled {
		t.Skip("alloc budget not meaningful under -race")
	}
	if bytes > 2<<20 || allocs > 3000 {
		t.Errorf("Generate allocated %d B in %d allocations, budget 2 MB in 3,000", bytes, allocs)
	}
}

// BenchmarkGenerate builds the benchmark's site.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Generate(SiteConfig{Seed: 2006, NumPages: 200})
	}
}
