package core

import (
	"bytes"
	"testing"

	"botdetect/internal/htmlmod"
	"botdetect/internal/jsgen"
)

// TestInjectedBytesBudget pins what instrumentation adds to every page at the
// default shape (default prefix, 10-digit keys): at most 400 bytes, the
// rewriter's AddedBytes equal to the growth on the wire and to the
// whole-document Rewrite's, and a degraded page — fewer decoys, same markup
// — no larger.
func TestInjectedBytesBudget(t *testing.T) {
	e := New(Config{Seed: 31, ObfuscateJS: true})
	added := func(prep *htmlmod.Prepared) int {
		t.Helper()
		var buf bytes.Buffer
		sres, err := htmlmod.RewriteStream([]byte(pageDoc), &buf, prep)
		if err != nil {
			t.Fatal(err)
		}
		whole := prep.Rewrite([]byte(pageDoc))
		if sres.AddedBytes != buf.Len()-len(pageDoc) || sres.AddedBytes != whole.AddedBytes || !bytes.Equal(buf.Bytes(), whole.HTML) {
			t.Fatalf("stream added %d (%d on the wire), whole-document Rewrite added %d", sres.AddedBytes, buf.Len()-len(pageDoc), whole.AddedBytes)
		}
		if !sres.InjectedCSS || !sres.InjectedScript || !sres.InjectedHandlers || !sres.InjectedInline || !sres.InjectedHidden {
			t.Fatalf("not everything injected: %+v", sres)
		}
		return sres.AddedBytes
	}
	var ps, psDeg PageState
	full := added(prepareFor(e, AdmitFull, "10.8.0.1", "Firefox/1.5", &ps))
	if full > 400 {
		t.Errorf("a full page gains %d bytes, budget 400", full)
	}
	if deg := added(prepareFor(e, AdmitDegraded, "10.8.0.2", "Firefox/1.5", &psDeg)); deg > full {
		t.Errorf("a degraded page gains %d bytes, a full one %d", deg, full)
	}
}

// TestAddedBytesCountsEveryGeneratedBody: Stats.AddedBytes is the HTML growth
// plus the body of every generated object served — the script and the CSS
// beacon, but also the exec GIF, the mouse JPEG, the UA stylesheet, the
// transparent image and the hidden page — counted once each, so the overhead
// experiment and /__bd/metrics see the bytes a client downloads.
func TestAddedBytesCountsEveryGeneratedBody(t *testing.T) {
	e := New(Config{Seed: 33, ObfuscateJS: true})
	const ip, ua = "10.8.1.1", "Firefox/1.5"
	html, inst := instrumentPage(e, ip, ua, []byte(pageDoc))
	want := int64(len(html) - len(pageDoc))
	prefix := e.Config().BeaconPrefix
	for _, path := range []string{
		inst.CSSPath,
		inst.ScriptPath,
		objectPath(jsgen.ExecBeaconPathParts, prefix, inst.Issued.ScriptToken) + "?ua=firefox/1.5",
		prefix + "/ua/" + inst.Issued.ScriptToken + "/firefox%2F1.5.css",
		objectPath(jsgen.BeaconPathParts, prefix, inst.Issued.Key),
		jsgen.TransparentImagePath(prefix),
		inst.HiddenPath,
	} {
		resp, ok := e.HandleBeacon(ip, ua, path)
		if !ok || resp.Status != 200 || len(resp.Body) == 0 {
			t.Fatalf("%s: ok=%v status=%d body=%d bytes", path, ok, resp.Status, len(resp.Body))
		}
		want += int64(len(resp.Body))
		if path == inst.ScriptPath {
			// instrumentPage downloaded the same bytes once already: that is
			// how it learned the key.
			want += int64(len(resp.Body))
		}
		resp.Done()
	}
	// Not generated content: a 404 under the prefix adds nothing.
	if resp, _ := e.HandleBeacon(ip, ua, prefix+"/nothing-here"); resp.Status != 404 {
		t.Fatalf("unknown path: status %d", resp.Status)
	}
	if got := e.Stats().AddedBytes; got != want {
		t.Fatalf("Stats.AddedBytes = %d, want %d (HTML growth + every generated body)", got, want)
	}
}
