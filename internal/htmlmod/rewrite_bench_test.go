package htmlmod

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// benchPage builds a deterministic page of roughly the requested body size
// with the structure of the corpus sites: a head with presentation objects,
// a body of paragraphs, links, images and inline scripts.
func benchPage(paragraphs int) []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<title>bench</title>\n")
	b.WriteString("<link rel=\"stylesheet\" type=\"text/css\" href=\"/static/site.css\">\n")
	b.WriteString("<script type=\"text/javascript\" src=\"/static/site.js\"></script>\n")
	b.WriteString("</head>\n<body class=\"main\" onload=\"init();\">\n")
	for i := 0; i < paragraphs; i++ {
		fmt.Fprintf(&b, "<p id=\"p%d\">paragraph %d with <a href=\"/page%d.html\">a link</a>, "+
			"an <img src=\"/img/photo%d.jpg\" alt=\"photo\"> and some filler text to pad the line out.</p>\n", i, i, i%50, i%20)
		if i%10 == 9 {
			fmt.Fprintf(&b, "<script>var s%d = \"<a href='/fake%d.html'>not a link</a>\";</script>\n", i, i)
		}
		if i%25 == 24 {
			fmt.Fprintf(&b, "<!-- section %d boundary <b>with markup</b> -->\n", i)
		}
	}
	b.WriteString("</body>\n</html>\n")
	return []byte(b.String())
}

var benchCorpus = []struct {
	name       string
	paragraphs int
}{
	{"small", 8},    // ~1.3 KB: a landing page
	{"medium", 120}, // ~19 KB: a typical article page
	{"large", 1500}, // ~240 KB: a heavy listing page
}

// BenchmarkRewriteStream measures the single-pass streaming injector over
// the corpus, feeding the page in transport-sized chunks into a reused
// sink the way the proxy's response path does.
func BenchmarkRewriteStream(b *testing.B) {
	prep := PrepareInjection(stdInjection())
	const chunk = 8 << 10
	for _, c := range benchCorpus {
		page := benchPage(c.paragraphs)
		b.Run(c.name, func(b *testing.B) {
			var out bytes.Buffer
			out.Grow(len(page) + 1024)
			b.SetBytes(int64(len(page)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out.Reset()
				r := NewStreamRewriter(&out, prep)
				for off := 0; off < len(page); off += chunk {
					end := off + chunk
					if end > len(page) {
						end = len(page)
					}
					_, _ = r.Write(page[off:end])
				}
				if err := r.Close(); err != nil {
					b.Fatal(err)
				}
				if !r.Result().InjectedHidden {
					b.Fatal("injection incomplete")
				}
				r.Release()
			}
		})
	}
}

// BenchmarkRewriteStreamDiscard isolates the scanner/injector cost from the
// sink by streaming into io.Discard.
func BenchmarkRewriteStreamDiscard(b *testing.B) {
	prep := PrepareInjection(stdInjection())
	page := benchPage(120)
	b.SetBytes(int64(len(page)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewStreamRewriter(io.Discard, prep)
		_, _ = r.Write(page)
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		r.Release()
	}
}

// BenchmarkPrepareInjection measures compiling an Injection into fragments
// (paid once per page view by the engine).
func BenchmarkPrepareInjection(b *testing.B) {
	inj := stdInjection()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PrepareInjection(inj)
	}
}
