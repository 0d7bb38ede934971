package htmlmod

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const samplePage = `<!DOCTYPE html>
<html>
<head>
<title>Sample</title>
<link rel="stylesheet" type="text/css" href="/static/site0.css">
<script type="text/javascript" src="/static/site0.js"></script>
</head>
<body class="main">
<h1>Hello</h1>
<ul>
<li><a href="/page1.html">One</a></li>
<li><a href="/page2.html">Two</a></li>
</ul>
<img src="/img/photo0_0.jpg" alt="photo">
<a href="/cgi-bin/app0.cgi?page=0">Search</a>
<!-- a comment with <a href="/not-a-link.html"> inside -->
<script>var s = "<a href='/also-not-a-link.html'>";</script>
</body>
</html>
`

func stdInjection() Injection {
	return Injection{
		CSSHref:      "/__bd/2031464296.css",
		ScriptSrc:    "/__bd/index_0729395150.js",
		InlineScript: "document.write('x');\n",
		HandlerName:  "__bd_f",
		HiddenHref:   "/__bd/hidden/5551112222.html",
		HiddenImgSrc: "/__bd/transp_1x1.gif",
	}
}

// TestComposeMatchesPrepareInjection pins the byte-field compose path to the
// string one: a caller-owned Prepared refilled via Compose must rewrite
// identically to a fresh Prepared from PrepareInjection.
func TestComposeMatchesPrepareInjection(t *testing.T) {
	inj := stdInjection()
	want := Rewrite([]byte(samplePage), inj)

	var own Prepared
	own.Compose(InjectionBytes{
		CSSHref:      []byte(inj.CSSHref),
		ScriptSrc:    []byte(inj.ScriptSrc),
		InlineScript: []byte(inj.InlineScript),
		HandlerName:  []byte(inj.HandlerName),
		HiddenHref:   []byte(inj.HiddenHref),
		HiddenImgSrc: []byte(inj.HiddenImgSrc),
	})
	got := own.Rewrite([]byte(samplePage))
	if string(got.HTML) != string(want.HTML) {
		t.Fatal("Compose output diverged from PrepareInjection")
	}
	// Recompose with different content reuses the same buffers.
	own.Compose(InjectionBytes{CSSHref: []byte("/__bd/other.css")})
	got2 := own.Rewrite([]byte(samplePage))
	if string(got2.HTML) == string(want.HTML) {
		t.Fatal("recompose did not take effect")
	}
}

func TestTokenizeBasic(t *testing.T) {
	toks := tokenize([]byte(samplePage))
	var names []string
	for _, tk := range toks {
		if tk.Type == startTagToken {
			names = append(names, tk.Name)
		}
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"html", "head", "title", "link", "script", "body", "h1", "ul", "li", "a", "img"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing start tag %q in %q", want, joined)
		}
	}
}

func TestTokenizeOffsetsCoverDocument(t *testing.T) {
	toks := tokenize([]byte(samplePage))
	prevEnd := 0
	for _, tk := range toks {
		if tk.Start < prevEnd {
			t.Fatalf("token %v overlaps previous end %d", tk, prevEnd)
		}
		if tk.End < tk.Start {
			t.Fatalf("token with negative extent: %+v", tk)
		}
		prevEnd = tk.End
	}
	if prevEnd != len(samplePage) {
		t.Fatalf("tokens end at %d, document length %d", prevEnd, len(samplePage))
	}
}

func TestTokenizeAttributes(t *testing.T) {
	doc := `<a href="/x.html" class='big' disabled data-v=37>link</a>`
	toks := tokenize([]byte(doc))
	if toks[0].Type != startTagToken || toks[0].Name != "a" {
		t.Fatalf("first token %+v", toks[0])
	}
	if v, ok := toks[0].get("href"); !ok || v != "/x.html" {
		t.Fatalf("href = %q, %v", v, ok)
	}
	if v, ok := toks[0].get("class"); !ok || v != "big" {
		t.Fatalf("class = %q", v)
	}
	if _, ok := toks[0].get("disabled"); !ok {
		t.Fatal("valueless attribute missing")
	}
	if v, _ := toks[0].get("data-v"); v != "37" {
		t.Fatalf("unquoted attribute = %q", v)
	}
	if _, ok := toks[0].get("absent"); ok {
		t.Fatal("absent attribute reported present")
	}
}

func TestTokenizeSelfClosingAndComments(t *testing.T) {
	doc := `<br/><!-- hidden <b>not a tag</b> --><img src="/a.png"/>`
	toks := tokenize([]byte(doc))
	if !toks[0].SelfClosing || toks[0].Name != "br" {
		t.Fatalf("br token %+v", toks[0])
	}
	if toks[1].Type != commentToken {
		t.Fatalf("comment token %+v", toks[1])
	}
	if toks[2].Name != "img" || !toks[2].SelfClosing {
		t.Fatalf("img token %+v", toks[2])
	}
}

const scriptRawTextDoc = `<script>if (a < b) { document.write("<a href='/fake.html'>x</a>"); }</script><a href="/real.html">r</a>`

func TestTokenizeScriptRawText(t *testing.T) {
	sum := Extract([]byte(scriptRawTextDoc))
	if len(sum.Links) != 1 || sum.Links[0] != "/real.html" {
		t.Fatalf("links = %v; script content leaked into extraction", sum.Links)
	}
}

var malformedDocs = []string{
	"", "<", "<>", "<a", "<a href=", `<a href="unterminated`, "<!-- unterminated",
	"<<<>>>", "</>", "<a href='x'", "plain text only", "<ScRiPt>var x = 1;",
}

func TestTokenizeMalformedNeverPanics(t *testing.T) {
	for _, c := range malformedDocs {
		_ = tokenize([]byte(c))
		_ = Extract([]byte(c))
		_ = Rewrite([]byte(c), stdInjection())
	}
}

func TestRewriteInjectsEverything(t *testing.T) {
	res := Rewrite([]byte(samplePage), stdInjection())
	out := string(res.HTML)
	if !res.InjectedCSS || !strings.Contains(out, `<link rel=stylesheet href=/__bd/2031464296.css>`) {
		t.Fatal("CSS beacon not injected")
	}
	if !res.InjectedScript || !strings.Contains(out, `<script src=/__bd/index_0729395150.js></script>`) {
		t.Fatal("external script not injected")
	}
	if !res.InjectedHandlers || !strings.Contains(out, ` onmousemove=__bd_f() `) {
		t.Fatal("mouse handler not injected")
	}
	if !strings.Contains(out, ` onkeypress=__bd_f()>`) {
		t.Fatal("key handler not injected")
	}
	if !res.InjectedInline || !strings.Contains(out, "<script>document.write('x');\n</script>") {
		t.Fatal("inline script not injected")
	}
	if !res.InjectedHidden || !strings.Contains(out,
		`<a href=/__bd/hidden/5551112222.html><img src=/__bd/transp_1x1.gif width=1 height=1 border=0 alt></a>`) {
		t.Fatal("hidden link not injected")
	}
	if res.AddedBytes != len(res.HTML)-len(samplePage) {
		t.Fatal("AddedBytes inconsistent")
	}
	// The original body class attribute must be preserved.
	if !strings.Contains(out, `class="main"`) {
		t.Fatal("original body attributes lost")
	}
	// Original content still present and before/after structure kept.
	if !strings.Contains(out, "<h1>Hello</h1>") || !strings.Contains(out, "</html>") {
		t.Fatal("original content damaged")
	}
	// Injections in the head section must appear before </head>.
	headEnd := strings.Index(out, "</head>")
	if cssAt := strings.Index(out, "/__bd/2031464296.css"); cssAt > headEnd {
		t.Fatal("CSS beacon injected outside head")
	}
	// The hidden link must appear before </body>.
	bodyEnd := strings.LastIndex(out, "</body>")
	if hidAt := strings.Index(out, "/__bd/hidden/"); hidAt > bodyEnd {
		t.Fatal("hidden link injected after </body>")
	}
}

// TestRewritePreservesExistingHandlers: a handler the page already has must
// still run after instrumentation — its text follows the injected call, with
// no return in front that would make it dead code — whatever the case of the
// attribute name or the quoting, and byte for byte as the page spelled it.
func TestRewritePreservesExistingHandlers(t *testing.T) {
	doc := `<html><head></head><body onMouseMove="trackme(a &amp;&amp; b);" id="b" ONKEYPRESS='k("x")' data-x><p>x</p></body></html>`
	res := Rewrite([]byte(doc), stdInjection())
	out := string(res.HTML)
	if !strings.Contains(out, `<body onMouseMove="__bd_f();trackme(a &amp;&amp; b);" id="b" ONKEYPRESS='__bd_f();k("x")' data-x>`) {
		t.Fatalf("existing handlers not chained in place: %s", out)
	}
	if strings.Contains(out, "return") {
		t.Fatalf("a return in front of the page's handler disables it: %s", out)
	}
	if strings.Count(strings.ToLower(out), "onmousemove") != 1 || strings.Count(strings.ToLower(out), "onkeypress") != 1 {
		t.Fatalf("duplicate handler attributes: %s", out)
	}
	var sb strings.Builder
	p := PrepareInjection(stdInjection())
	if _, err := RewriteStream([]byte(doc), &sb, p); err != nil || sb.String() != out {
		t.Fatalf("stream diverged from buffered on chained handlers (err %v): %s", err, sb.String())
	}

	// Unquoted, value-less and self-closing spellings.
	for in, want := range map[string]string{
		`<body onmousemove=track() onkeypress>`: `<body onmousemove=__bd_f();track() onkeypress=__bd_f()>`,
		`<body onkeypress="" class='a'/>`:       `<body onkeypress="__bd_f();" class='a' onmousemove=__bd_f() />`,
	} {
		if got := string(Rewrite([]byte(in), Injection{HandlerName: "__bd_f"}).HTML); got != want {
			t.Fatalf("%s rewritten to %s, want %s", in, got, want)
		}
	}
}

func TestRewriteNoHead(t *testing.T) {
	doc := `<html><body><p>content</p></body></html>`
	res := Rewrite([]byte(doc), stdInjection())
	out := string(res.HTML)
	if !strings.Contains(out, "/__bd/2031464296.css") {
		t.Fatal("CSS not injected for head-less page")
	}
	if !strings.Contains(out, "onmousemove") {
		t.Fatal("handler not injected for head-less page")
	}
}

func TestRewriteNoBody(t *testing.T) {
	doc := `<html><head><title>t</title></head><p>loose content</p></html>`
	res := Rewrite([]byte(doc), stdInjection())
	out := string(res.HTML)
	if !strings.Contains(out, "/__bd/2031464296.css") {
		t.Fatal("CSS not injected")
	}
	if !strings.Contains(out, "/__bd/hidden/") {
		t.Fatal("hidden link not appended for body-less page")
	}
	if res.InjectedHandlers {
		t.Fatal("cannot claim handler injection without a body tag")
	}
}

func TestRewriteFragmentOnly(t *testing.T) {
	doc := `<p>just a fragment</p>`
	res := Rewrite([]byte(doc), stdInjection())
	out := string(res.HTML)
	if !strings.Contains(out, "just a fragment") {
		t.Fatal("fragment content lost")
	}
	if !strings.Contains(out, "/__bd/2031464296.css") {
		t.Fatal("CSS not injected into fragment")
	}
}

func TestRewriteEmptyInjection(t *testing.T) {
	res := Rewrite([]byte(samplePage), Injection{})
	if string(res.HTML) != samplePage {
		t.Fatal("empty injection should leave the document unchanged")
	}
	if res.AddedBytes != 0 {
		t.Fatalf("AddedBytes = %d", res.AddedBytes)
	}
}

func TestRewritePartialInjection(t *testing.T) {
	res := Rewrite([]byte(samplePage), Injection{CSSHref: "/__bd/x.css"})
	out := string(res.HTML)
	if !strings.Contains(out, "/__bd/x.css") {
		t.Fatal("CSS missing")
	}
	if strings.Contains(out, "onmousemove") || strings.Contains(out, "/__bd/hidden/") {
		t.Fatal("unrequested injections present")
	}
}

func TestRewriteEscapesAttributeValues(t *testing.T) {
	inj := stdInjection()
	inj.CSSHref = `/__bd/weird"><script>alert(1)</script>.css`
	res := Rewrite([]byte(samplePage), inj)
	out := string(res.HTML)
	if strings.Contains(out, `weird"><script>alert(1)`) {
		t.Fatal("attribute value not escaped")
	}
	if !strings.Contains(out, "&quot;&gt;") {
		t.Fatal("expected escaped quotes in injected href")
	}
}

func TestRewriteIdempotentStructure(t *testing.T) {
	// Rewriting an already rewritten page must keep exactly one handler call
	// chain on the body tag per pass and never corrupt the document.
	res1 := Rewrite([]byte(samplePage), stdInjection())
	res2 := Rewrite(res1.HTML, stdInjection())
	out := string(res2.HTML)
	if strings.Count(out, "<body") != 1 {
		t.Fatal("body tag duplicated")
	}
	if strings.Count(out, "</html>") != strings.Count(samplePage, "</html>") {
		t.Fatal("html end tag count changed")
	}
}

func TestExtractSamplePage(t *testing.T) {
	sum := Extract([]byte(samplePage))
	if len(sum.Links) != 3 {
		t.Fatalf("links = %v", sum.Links)
	}
	if len(sum.Images) != 1 || sum.Images[0] != "/img/photo0_0.jpg" {
		t.Fatalf("images = %v", sum.Images)
	}
	if len(sum.Stylesheets) != 1 || sum.Stylesheets[0] != "/static/site0.css" {
		t.Fatalf("stylesheets = %v", sum.Stylesheets)
	}
	if len(sum.Scripts) != 1 || sum.Scripts[0] != "/static/site0.js" {
		t.Fatalf("scripts = %v", sum.Scripts)
	}
	if sum.BodyMouseHandler {
		t.Fatal("unrewritten page should not report a mouse handler")
	}
}

func TestExtractRewrittenPage(t *testing.T) {
	res := Rewrite([]byte(samplePage), stdInjection())
	sum := Extract(res.HTML)
	if !sum.BodyMouseHandler {
		t.Fatal("rewritten page should report the mouse handler")
	}
	foundCSS := false
	for _, s := range sum.Stylesheets {
		if s == "/__bd/2031464296.css" {
			foundCSS = true
		}
	}
	if !foundCSS {
		t.Fatalf("injected stylesheet not extracted: %v", sum.Stylesheets)
	}
	foundScript := false
	for _, s := range sum.Scripts {
		if s == "/__bd/index_0729395150.js" {
			foundScript = true
		}
	}
	if !foundScript {
		t.Fatalf("injected script not extracted: %v", sum.Scripts)
	}
	if len(sum.HiddenLinks) != 1 || sum.HiddenLinks[0] != "/__bd/hidden/5551112222.html" {
		t.Fatalf("hidden links = %v", sum.HiddenLinks)
	}
	// The hidden link must not be classified as a visible link.
	for _, l := range sum.Links {
		if strings.Contains(l, "/__bd/hidden/") {
			t.Fatal("hidden link leaked into visible links")
		}
	}
}

const nonNavigableDoc = `<body>
<a href="#top">top</a>
<a href="javascript:void(0)">js</a>
<a href="mailto:user@example.com">mail</a>
<a href="/ok.html">ok</a>
<a href="">empty</a>
</body>`

func TestExtractSkipsNonNavigableAnchors(t *testing.T) {
	sum := Extract([]byte(nonNavigableDoc))
	if len(sum.Links) != 1 || sum.Links[0] != "/ok.html" {
		t.Fatalf("links = %v", sum.Links)
	}
}

const hiddenVariantsDoc = `<body>
<a href="/hidden1.html"><img src="/transp_1x1.gif"></a>
<a href="/hidden2.html"><img width="1" height="1" src="/dot.gif"></a>
<a href="/visible.html"><img src="/big-photo.jpg"></a>
<a href="/textual.html">Some visible anchor text</a>
</body>`

func TestExtractHiddenLinkVariants(t *testing.T) {
	sum := Extract([]byte(hiddenVariantsDoc))
	if len(sum.HiddenLinks) != 2 {
		t.Fatalf("hidden links = %v", sum.HiddenLinks)
	}
	if len(sum.Links) != 2 {
		t.Fatalf("visible links = %v", sum.Links)
	}
}

// FuzzExtract: Extract, which walks the raw scanner, summarises every
// document exactly as the token-list oracle does, and the walk meets the
// oracle's tags — offsets, names, attributes — in the same order.
func FuzzExtract(f *testing.F) {
	seeds := append([]string{
		samplePage, string(Rewrite([]byte(samplePage), stdInjection()).HTML),
		nonNavigableDoc, hiddenVariantsDoc, scriptRawTextDoc,
		`<title><a href=/t.html></title><textarea><a href=/x.html></TEXTAREA><style>a{}</style ><a href=/s.html>s</a>`,
		`<a href=/in.html><script>x</script >  <img width=1 height=1></a>`,
		`<a href=/x.html>x</a><script>var s = "</script"<a href=/y.html>y</a>`,
		`<a href=/x.html><script>x</script`,
		`<script><a href=/z.html>z</a>`,
		`<A HREF=/u.html><BR><IMG SRC=/TRANSP.GIF></A><AREA href=JavaScript:x><LINK REL="Alternate StyleSheet" HREF=/a.css>`,
		`<a href="javascr` + "İ" + `pt:x">u</a><img src=/1X1.png><a href=/o.html><!-- c --><img width=1 height=1 src=/d.gif><b>x</b></a>`,
		`<body ONMOUSEMOVE><script src=/s.js/><script/></body>`,
	}, malformedDocs...)
	for _, doc := range seeds {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if len(doc) > 1<<16 {
			t.Skip()
		}
		if got, want := Extract(doc), extractTokens(doc); !reflect.DeepEqual(got, want) {
			t.Fatalf("Extract(%q)\n got %+v\nwant %+v", doc, got, want)
		}
		w := tagWalk{doc: doc}
		for _, want := range tokenize(doc) {
			if want.Type == textToken {
				continue
			}
			tok, _, ok := w.next()
			if !ok {
				t.Fatalf("%q: walk ended before %+v", doc, want)
			}
			if got := materializeToken(doc, tok, w.attrs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: walk read %+v, oracle %+v", doc, got, want)
			}
		}
		if tok, _, ok := w.next(); ok {
			t.Fatalf("%q: walk read %+v past the oracle's last token", doc, tok)
		}
	})
}

func TestRewritePropertyNeverLosesContent(t *testing.T) {
	f := func(pre, post string) bool {
		pre = sanitize(pre)
		post = sanitize(post)
		doc := "<html><head><title>t</title></head><body><p>" + pre + "</p><p>" + post + "</p></body></html>"
		res := Rewrite([]byte(doc), stdInjection())
		out := string(res.HTML)
		return strings.Contains(out, pre) && strings.Contains(out, post) &&
			strings.Contains(out, "/__bd/2031464296.css") &&
			len(res.HTML) >= len(doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sanitize keeps property inputs inside element text so the property tests
// exercise arbitrary text content rather than arbitrary (possibly invalid)
// markup, which is covered by the malformed-input test.
func sanitize(s string) string {
	r := strings.NewReplacer("<", "", ">", "", "&", "", "\x00", "")
	out := r.Replace(s)
	if len(out) > 64 {
		out = out[:64]
	}
	return out
}

func TestRewriteLargePagePerformanceSanity(t *testing.T) {
	var b strings.Builder
	b.WriteString("<html><head></head><body>")
	for i := 0; i < 5000; i++ {
		b.WriteString(`<p>paragraph with <a href="/p.html">link</a> and <img src="/i.jpg"></p>`)
	}
	b.WriteString("</body></html>")
	res := Rewrite([]byte(b.String()), stdInjection())
	if !res.InjectedCSS || !res.InjectedHidden {
		t.Fatal("large page injection failed")
	}
	sum := Extract(res.HTML)
	if len(sum.Links) != 5000 {
		t.Fatalf("links = %d", len(sum.Links))
	}
}
