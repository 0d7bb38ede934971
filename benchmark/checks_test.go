package main

import (
	"bytes"
	"testing"

	"botdetect/internal/htmlmod"
)

var testInjection = htmlmod.Injection{
	CSSHref:      "/__bd/1234567890.css",
	ScriptSrc:    "/__bd/index_2345678901.js",
	InlineScript: "document.write(\"<link rel='stylesheet' href='/__bd/ua/2345678901/x.css'>\");\n",
	HandlerName:  "__bd_f",
	HiddenHref:   "/__bd/hidden/3456789012.html",
	HiddenImgSrc: "/__bd/transp_1x1.gif",
}

// Every origin document the wire workloads use must come back from the real
// rewriter as "origin plus at most four insertions".
func TestStripInsertionsAcceptsRealRewrites(t *testing.T) {
	var docs [][]byte
	site := builtinSite()
	for _, p := range site.Pages() {
		docs = append(docs, site.Lookup(p.Path).Body)
	}
	docs = append(docs, site.Lookup("/cgi-bin/app0.cgi?page=60").Body) // <head> and <body> on one line
	html, _ := buildCorpus()
	for _, d := range html {
		docs = append(docs, d.want.body)
	}
	for i, doc := range docs {
		got := htmlmod.Rewrite(doc, testInjection).HTML
		inserted, ok := stripInsertions(got, doc, maxInsertions)
		if !ok {
			t.Fatalf("document %d: rewrite not recognised as origin plus insertions", i)
		}
		if len(inserted) != len(got)-len(doc) {
			t.Fatalf("document %d: %d inserted bytes, size grew by %d", i, len(inserted), len(got)-len(doc))
		}
		if !bytes.Contains(inserted, []byte("/__bd/")) {
			t.Fatalf("document %d: insertions carry no beacon marker", i)
		}
	}
}

func TestStripInsertionsRejectsDamage(t *testing.T) {
	doc := builtinSite().Lookup("/").Body
	good := htmlmod.Rewrite(doc, testInjection).HTML
	mid := bytes.Index(good, []byte("<h1>Page")) + 2 // inside the origin's own markup
	for name, bad := range map[string][]byte{
		"byte changed":  append(append(append([]byte{}, good[:mid]...), good[mid]^1), good[mid+1:]...),
		"byte dropped":  append(append([]byte{}, good[:mid]...), good[mid+1:]...),
		"tail missing":  good[:len(good)-5],
		"origin itself": nil,
	} {
		if name == "origin itself" {
			if inserted, ok := stripInsertions(doc, doc, maxInsertions); !ok || len(inserted) != 0 {
				t.Errorf("an unmodified document should pass with nothing inserted")
			}
			continue
		}
		if _, ok := stripInsertions(bad, doc, maxInsertions); ok {
			t.Errorf("%s: accepted", name)
		}
	}
	// Five scattered insertions are one too many.
	var many []byte
	step := len(doc) / 6
	for i := 0; i < 5; i++ {
		many = append(many, doc[i*step:(i+1)*step]...)
		many = append(many, "<!-- /__bd/ extra -->"...)
	}
	many = append(many, doc[5*step:]...)
	if _, ok := stripInsertions(many, doc, maxInsertions); ok {
		t.Error("five insertions accepted with a budget of four")
	}
}

func TestCheckerOriginAndBeacon(t *testing.T) {
	doc := builtinSite().Lookup("/").Body
	page := expected{status: 200, contentType: "text/html; charset=utf-8", body: doc, instrumented: true}
	good := wireResp{status: 200, contentType: page.contentType, noStore: true, body: htmlmod.Rewrite(doc, testInjection).HTML}

	c := newChecker("/__bd")
	if !c.origin(page, &good) {
		t.Fatalf("good page rejected: %v", c.reasons)
	}
	for name, mutate := range map[string]func(r *wireResp){
		"status":                func(r *wireResp) { r.status = 500 },
		"refused by policy":     func(r *wireResp) { r.status = 429 },
		"page cacheable":        func(r *wireResp) { r.noStore = false },
		"page not instrumented": func(r *wireResp) { r.body = doc },
	} {
		r := good
		mutate(&r)
		c := newChecker("/__bd")
		if c.origin(page, &r) || c.reasons[name] != 1 {
			t.Errorf("%s: reasons %v", name, c.reasons)
		}
	}

	object := expected{status: 200, contentType: "image/jpeg", body: []byte("jjjjjj")}
	c = newChecker("/__bd")
	if !c.origin(object, &wireResp{status: 200, body: []byte("jjjjjj")}) {
		t.Error("identical object rejected")
	}
	if c.origin(object, &wireResp{status: 200, body: []byte("jjjjjJ")}) || c.reasons["body differs from origin"] != 1 {
		t.Errorf("altered object accepted: %v", c.reasons)
	}

	for path, ct := range map[string]string{
		"/__bd/123.css": "text/css", "/__bd/index_9.js": "application/javascript",
		"/__bd/js/9.gif?ua=x": "image/gif", "/__bd/42.jpg": "image/jpeg", "/__bd/hidden/7.html": "text/html",
	} {
		c := newChecker("/__bd")
		if !c.beacon(path, &wireResp{status: 200, contentType: ct, noStore: true}) {
			t.Errorf("%s: good beacon rejected: %v", path, c.reasons)
		}
		if c.beacon(path, &wireResp{status: 200, contentType: "text/plain", noStore: true}) {
			t.Errorf("%s: wrong content type accepted", path)
		}
	}
}
