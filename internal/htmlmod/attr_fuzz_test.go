package htmlmod

import (
	"bytes"
	"html"
	"strings"
	"testing"
)

// FuzzAttrValueRoundTrip: whatever bytes an operator configures as beacon
// URLs (an exotic BeaconBase) and whatever handler a page already carries,
// the rewritten document reads back — through the same scanner the agents
// use — as exactly one stylesheet, one external script, one hidden link and
// its image, with the values that went in, and it is the origin plus the
// insertions and nothing else. This is what lets appendAttrValue drop the
// quotes when it can: the property is checked, not assumed.
func FuzzAttrValueRoundTrip(f *testing.F) {
	f.Add("/__bd/2031464296.css", "/__bd/index_0729395150.js", "/__bd/hidden/5551112222.html", "/__bd/transp_1x1.gif", "trackme();")
	f.Add("http://cdn.example.com:8080/__bd/1.css", "/b/index_1.js", "/b/hidden/1.html", "/b/t.gif", "")
	f.Add("/a b.css", "/s>x.js", `/h"q.html`, "/i'm.gif", "if(a<b&&c>d){go('x')}")
	f.Add("/a`b.css", "/s=1.js", "/h?a=1&b=2", "/dir/", `say("hi")`)
	f.Add("/dir/", "/trailing/", "/x/", "/", "a &amp;&amp; b")
	f.Add("&amp;", "&lt;script&gt;", "/h\n.html", "/\t.gif", "\"'`=&/")
	f.Fuzz(func(t *testing.T, css, script, hidden, img, own string) {
		if len(css)+len(script)+len(hidden)+len(img)+len(own) > 1<<12 || css == "" || script == "" || hidden == "" || img == "" {
			t.Skip() // an empty field switches its injection off
		}
		if l := strings.ToLower(hidden); strings.HasPrefix(l, "#") || strings.HasPrefix(l, "javascript:") || strings.HasPrefix(l, "mailto:") {
			t.Skip() // Extract does not count these as navigable links
		}
		inj := Injection{CSSHref: css, ScriptSrc: script, InlineScript: "var i=1", HandlerName: "__bd_f", HiddenHref: hidden, HiddenImgSrc: img}
		p := PrepareInjection(inj)

		// The page spells its own handler the way an author would: escaped,
		// in double quotes.
		ownAttr := string(appendEscaped(nil, own)) + `"`
		origin := `<html><head><title>t</title></head><body onmousemove="` + ownAttr + `><p>x</p></body></html>`
		want := `<html><head>` + string(p.headInsert) + `<title>t</title></head><body onmousemove="__bd_f();` + ownAttr + ` onkeypress=__bd_f()>` +
			string(p.bodyTop) + `<p>x</p>` + string(p.bodyBottom) + `</body></html>`
		got := p.rewriteBuffered([]byte(origin)).HTML
		if string(got) != want {
			t.Fatalf("not the origin plus insertions:\n got %q\nwant %q", got, want)
		}
		if streamed, _ := streamChunked(t, []byte(origin), p, 5); !bytes.Equal(streamed, got) {
			t.Fatalf("stream diverged from buffered:\n%q\n%q", streamed, got)
		}

		sum := Extract(got)
		one := func(what string, vals []string, in string) {
			t.Helper()
			if len(vals) != 1 || html.UnescapeString(vals[0]) != in {
				t.Fatalf("%s: extracted %q, put in %q\n%s", what, vals, in, got)
			}
		}
		one("stylesheet", sum.Stylesheets, css)
		one("script", sum.Scripts, script)
		one("hidden link", sum.HiddenLinks, hidden)
		one("hidden image", sum.Images, img)
		if len(sum.Links) != 0 || !sum.BodyMouseHandler {
			t.Fatalf("summary %+v\n%s", sum, got)
		}
		wantMouse := "__bd_f();" + own
		for _, tok := range tokenize(got) {
			if tok.Type == startTagToken && tok.Name == "body" {
				mouse, _ := tok.get("onmousemove")
				key, _ := tok.get("onkeypress")
				if html.UnescapeString(mouse) != wantMouse || key != "__bd_f()" {
					t.Fatalf("handlers: onmousemove=%q (want %q) onkeypress=%q\n%s", mouse, wantMouse, key, got)
				}
			}
		}
	})
}
