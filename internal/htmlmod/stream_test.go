package htmlmod

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
)

// diffCorpus is the document corpus the streaming rewriter must reproduce
// byte-for-byte against the buffered oracle (rewriteBuffered): well-formed
// markup plus the malformed shapes a proxy sees in the wild.
var diffCorpus = []struct {
	name string
	doc  string
}{
	{"well-formed", samplePage},
	{"empty", ""},
	{"plain-text", "just some text, no markup at all"},
	{"fragment", "<p>just a fragment</p>"},
	{"no-head", "<html><body><p>content</p></body></html>"},
	{"no-body", "<html><head><title>t</title></head><p>loose content</p></html>"},
	{"html-only", "<html><p>no head, no body</p></html>"},
	{"head-only", "<html><head><title>t</title></head></html>"},
	{"body-before-head", "<html><body><p>x</p></body><head><title>late</title></head></html>"},
	{"bodyend-before-head", "</body><head><title>weird</title></head>"},
	{"bodyend-before-body", "<html><head></head></body><p>x</p><body><p>y</p></body></html>"},
	{"two-bodies", "<html><head></head><body>a</body><body>b</body></html>"},
	{"two-body-ends", "<html><head></head><body>a</body>x</body></html>"},
	{"self-closing-body", "<html><head></head><body/></html>"},
	{"uppercase", "<HTML><HEAD><TITLE>T</TITLE></HEAD><BODY CLASS='M'>x</BODY></HTML>"},
	{"spaced-end-tag", "<html><head></head><body>x</ body ></html>"},
	{"body-attrs", `<html><head></head><body onmousemove="track();" onkeypress='k()' id=main data-x disabled>x</body></html>`},
	{"body-attr-gt", `<html><head></head><body title="a>b" onclick="if(a<b){}">x</body></html>`},
	{"comment-fake-tags", "<html><head><!-- <body>not real</body> --></head><body>x</body></html>"},
	{"unterminated-comment", "<html><head><!-- never closed <body>y</body>"},
	{"script-fake-body", `<html><head><script>var s = "</body><body>";</script></head><body>x</body></html>`},
	{"script-unterminated", `<html><head></head><body>a<script>var x = "<b>";`},
	{"script-close-no-gt", `<html><head></head><body>a<script>x</script`},
	{"script-uppercase-close", "<html><head><SCRIPT>x</SCRIPT></head><body>y</body></html>"},
	{"style-textarea-title", "<html><head><title>a<b</title><style>p{}</style></head><body><textarea></body></textarea>z</body></html>"},
	{"decl-doctype", "<!DOCTYPE html>\n<html><head></head><body>x</body></html>"},
	{"decl-unterminated", "<html><head></head><body>x<!unfinished"},
	{"processing-instruction", "<?xml version=\"1.0\"?><html><head></head><body>x</body></html>"},
	{"open-tag-at-eof", `<html><head></head><body>x<a href="unclosed`},
	{"open-quote-hides-body", `<html><head></head><a title="<body>x</body>`},
	{"lone-lt", "<html><head></head><body>a < b</body></html>"},
	{"lt-at-eof", "<html><head></head><body>x</body></html><"},
	{"nested-unterminated-script", "<html><head></head><body><script>a<script>b"},
	{"head-inside-comment-only", "<!-- <head></head> --><p>no real head</p>"},
	{"attr-empty-values", `<html><head></head><body onmousemove="" foo="">x</body></html>`},
	{"weird-end-tags", "<html><head></head><body>x</></body ext></html>"},
	{"form-feed-spaces", "<html><head></head><body\fclass=x>y</body></html>"},
}

func diffInjections() []Injection {
	return []Injection{
		stdInjection(),
		{},
		{CSSHref: "/__bd/x.css"},
		{HandlerName: "__bd_f"},
		{HiddenHref: "/__bd/hidden/1.html"},
		{InlineScript: "document.write('x');\n"},
		{CSSHref: "/__bd/a.css", HandlerName: "__bd_f"},
		{ScriptSrc: "/__bd/index_1.js", HiddenHref: "/__bd/hidden/2.html", HiddenImgSrc: "/__bd/transp_1x1.gif"},
	}
}

// streamChunked runs doc through a StreamRewriter in chunks of at most size
// bytes and returns the output and result.
func streamChunked(t testing.TB, doc []byte, p *Prepared, size int) ([]byte, StreamResult) {
	var out bytes.Buffer
	r := NewStreamRewriter(&out, p)
	for off := 0; off < len(doc); off += size {
		end := off + size
		if end > len(doc) {
			end = len(doc)
		}
		if _, err := r.Write(doc[off:end]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := r.Result()
	r.Release()
	return out.Bytes(), res
}

// TestStreamMatchesBufferedRewrite is the differential guarantee: for every
// corpus document, injection shape and chunking, the streaming rewriter's
// gathered output is byte-identical to the buffered reference path —
// including the chunkings that force carry-buffer rebasing, which is exactly
// where a mis-ordered flush would emit overwritten spans.
func TestStreamMatchesBufferedRewrite(t *testing.T) {
	chunkSizes := []int{1, 2, 3, 7, 16, 64, 1 << 20}
	for _, tc := range diffCorpus {
		for ij, inj := range diffInjections() {
			prep := PrepareInjection(inj)
			want := prep.rewriteBuffered([]byte(tc.doc))
			for _, size := range chunkSizes {
				got, res := streamChunked(t, []byte(tc.doc), prep, size)
				if !bytes.Equal(got, want.HTML) {
					t.Errorf("%s/inj%d/chunk%d: output diverged\n  buffered: %q\n  streamed: %q",
						tc.name, ij, size, want.HTML, got)
					break
				}
				if res.AddedBytes != want.AddedBytes {
					t.Errorf("%s/inj%d/chunk%d: AddedBytes = %d, buffered %d", tc.name, ij, size, res.AddedBytes, want.AddedBytes)
				}
				if res.InjectedCSS != want.InjectedCSS || res.InjectedScript != want.InjectedScript ||
					res.InjectedHandlers != want.InjectedHandlers || res.InjectedInline != want.InjectedInline ||
					res.InjectedHidden != want.InjectedHidden {
					t.Errorf("%s/inj%d/chunk%d: flags = %+v, buffered %+v", tc.name, ij, size, res, want)
				}
			}
			// The whole-document entry points must agree too.
			if whole := Rewrite([]byte(tc.doc), inj); !bytes.Equal(whole.HTML, want.HTML) || whole.AddedBytes != want.AddedBytes {
				t.Errorf("%s/inj%d: Rewrite diverged from buffered", tc.name, ij)
			}
		}
	}
}

// streamChunkedReused is streamChunked with the caller's read loop of a
// proxy: every chunk is copied into one reused buffer, which is scribbled
// over as soon as Write returns. Gathered spans alias that buffer, so any span
// still queued after Write would reach the output as scribble.
func streamChunkedReused(t testing.TB, doc []byte, p *Prepared, size int) ([]byte, StreamResult) {
	var out bytes.Buffer
	r := NewStreamRewriter(&out, p)
	buf := make([]byte, size)
	for off := 0; off < len(doc); off += size {
		n := copy(buf, doc[off:])
		if _, err := r.Write(buf[:n]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		for i := range buf {
			buf[i] = '#'
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	res := r.Result()
	r.Release()
	return out.Bytes(), res
}

// TestStreamVectoredMatchesBuffered is the gathered-write differential
// guarantee under buffer reuse: with the caller overwriting its chunk buffer
// after every Write, the output must still be byte-identical to the buffered
// reference on every corpus document, injection shape and chunking. It fails
// if a feed returns with spans queued that alias the caller's chunk.
func TestStreamVectoredMatchesBuffered(t *testing.T) {
	chunkSizes := []int{1, 2, 3, 7, 16, 64, 1 << 20}
	for _, tc := range diffCorpus {
		for ij, inj := range diffInjections() {
			prep := PrepareInjection(inj)
			want := prep.rewriteBuffered([]byte(tc.doc))
			for _, size := range chunkSizes {
				got, res := streamChunkedReused(t, []byte(tc.doc), prep, size)
				if !bytes.Equal(got, want.HTML) {
					t.Errorf("%s/inj%d/chunk%d: gathered output diverged under buffer reuse\n  buffered: %q\n  gathered: %q",
						tc.name, ij, size, want.HTML, got)
					break
				}
				if res.AddedBytes != want.AddedBytes {
					t.Errorf("%s/inj%d/chunk%d: AddedBytes = %d, buffered %d", tc.name, ij, size, res.AddedBytes, want.AddedBytes)
				}
			}
		}
	}
}

// TestStreamVectoredOverTCP proves the writev path over a real TCP socket
// (net.Buffers only takes the gathered-write syscall on a net.Conn): the
// bytes arriving at the peer must equal the buffered rewrite.
func TestStreamVectoredOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	doc := []byte(samplePage)
	prep := PrepareInjection(stdInjection())
	want := prep.rewriteBuffered(doc)

	type recv struct {
		data []byte
		err  error
	}
	got := make(chan recv, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- recv{nil, err}
			return
		}
		defer conn.Close()
		data, err := io.ReadAll(conn)
		got <- recv{data, err}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	r := NewStreamRewriter(conn, prep)
	for off := 0; off < len(doc); off += 512 {
		end := off + 512
		if end > len(doc) {
			end = len(doc)
		}
		if _, err := r.Write(doc[off:end]); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r.Release()
	conn.Close()

	rx := <-got
	if rx.err != nil {
		t.Fatalf("peer read: %v", rx.err)
	}
	if !bytes.Equal(rx.data, want.HTML) {
		t.Fatalf("bytes over TCP differ from buffered rewrite:\n  want %d bytes\n  got  %d bytes", len(want.HTML), len(rx.data))
	}
}

// TestStreamEmitsHeadFragmentEarly verifies the time-to-first-byte property:
// once the bytes through <head> have been written, the head fragment is
// already on the wire even though the rest of the document never arrives.
func TestStreamEmitsHeadFragmentEarly(t *testing.T) {
	var out bytes.Buffer
	r := NewStreamRewriter(&out, PrepareInjection(stdInjection()))
	defer r.Release()
	if _, err := r.Write([]byte("<html><head><meta charset=\"utf-8\">")); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "/__bd/2031464296.css") {
		t.Fatalf("head fragment not emitted before document end: %q", got)
	}
	if strings.Contains(got, "<meta") {
		// The meta tag is complete, so it should have streamed through too.
		t.Logf("meta streamed as expected")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamHoldLimit verifies bounded memory: a head-less document larger
// than the hold limit is forwarded verbatim instead of buffered for the
// fallback pass.
func TestStreamHoldLimit(t *testing.T) {
	doc := []byte("<p>" + strings.Repeat("x", 4096) + "</p>")
	var out bytes.Buffer
	r := NewStreamRewriter(&out, PrepareInjection(stdInjection()))
	defer r.Release()
	r.SetHoldLimit(1024)
	for off := 0; off < len(doc); off += 256 {
		end := off + 256
		if end > len(doc) {
			end = len(doc)
		}
		if _, err := r.Write(doc[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	res := r.Result()
	if !res.Truncated {
		t.Fatal("expected Truncated result")
	}
	if !bytes.Equal(out.Bytes(), doc) {
		t.Fatal("truncated document was not forwarded verbatim")
	}
	if res.InjectedCSS || res.InjectedHidden {
		t.Fatalf("truncated stream claims injections: %+v", res)
	}
}

// TestStreamPlacesHeadlessAnchors: a page with a <head> and one without
// stream to the oracle's bytes, the second with its head fragment after
// <body> and nothing before <html> held back from its anchors.
func TestStreamPlacesHeadlessAnchors(t *testing.T) {
	prep := PrepareInjection(stdInjection())
	for _, doc := range []string{samplePage, "<html><body>no head</body></html>"} {
		var out bytes.Buffer
		res, err := RewriteStream([]byte(doc), &out, prep)
		want := prep.rewriteBuffered([]byte(doc))
		if err != nil || !bytes.Equal(out.Bytes(), want.HTML) || res.AddedBytes != want.AddedBytes {
			t.Fatalf("%q streamed to %q (err %v), oracle %q", doc, out.Bytes(), err, want.HTML)
		}
	}
	out := string(Rewrite([]byte("<html><body>no head</body></html>"), stdInjection()).HTML)
	if !strings.HasPrefix(out, "<html><body onmousemove=__bd_f() onkeypress=__bd_f()><link rel=stylesheet") {
		t.Fatalf("head fragment not after the head-less page's <body>: %s", out)
	}
}

// TestStreamHeadlessPageZeroAlloc: a head-less page, held whole and then
// streamed again with its anchors placed, costs a reused rewriter nothing
// at steady state.
func TestStreamHeadlessPageZeroAlloc(t *testing.T) {
	doc := []byte("<html><body><p>no head here</p><script>var a = '<body>';</script></body></html>")
	prep := PrepareInjection(stdInjection())
	var out bytes.Buffer
	var r StreamRewriter
	run := func() {
		out.Reset()
		r.Reset(&out, prep)
		_, _ = r.Write(doc[:20])
		_, _ = r.Write(doc[20:])
		_ = r.Close()
	}
	run()
	if want := prep.rewriteBuffered(doc).HTML; !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("streamed %q, oracle %q", out.Bytes(), want)
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("head-less page: %.1f allocs/op, want 0", n)
	}
}

// TestStreamWriteAfterClose ensures the rewriter refuses input once closed.
func TestStreamWriteAfterClose(t *testing.T) {
	var out bytes.Buffer
	r := NewStreamRewriter(&out, PrepareInjection(stdInjection()))
	defer r.Release()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write([]byte("late")); err == nil {
		t.Fatal("Write after Close succeeded")
	}
}

// FuzzStreamVsBuffered fuzzes the differential property over arbitrary
// documents: chunked streaming output must equal the buffered oracle.
func FuzzStreamVsBuffered(f *testing.F) {
	for _, tc := range diffCorpus {
		f.Add([]byte(tc.doc), 7)
	}
	f.Add([]byte("<script>"), 1)
	f.Add([]byte("<head><head><body><body></body></body>"), 3)
	injections := diffInjections()
	f.Fuzz(func(t *testing.T, doc []byte, chunk int) {
		if len(doc) > 1<<16 {
			t.Skip()
		}
		if chunk <= 0 {
			chunk = 1
		}
		inj := injections[(chunk+len(doc))%len(injections)]
		want := PrepareInjection(inj).rewriteBuffered(doc)
		got, res := streamChunked(t, doc, PrepareInjection(inj), chunk)
		if !bytes.Equal(got, want.HTML) {
			t.Fatalf("diverged for %q chunk=%d:\n  buffered: %q\n  streamed: %q", doc, chunk, want.HTML, got)
		}
		if res.AddedBytes != want.AddedBytes {
			t.Fatalf("AddedBytes %d != %d for %q", res.AddedBytes, want.AddedBytes, doc)
		}
	})
}
