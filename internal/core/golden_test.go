package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"botdetect/internal/htmlmod"
)

// goldenPage and the request sequence below must not change: the test proves
// the instrumentation path issues the same tokens, draws the same keys and
// emits byte-identical pages from a fixed seed. The capture was taken twice.
// PR 15 respelled the injected fragments compactly (added= 635 -> 396; keys,
// tokens and paths did not move). PR 17 moved the key draw from page issue to
// script download, so in each shard's draw stream the three tokens now come
// first and the real key follows when the script is asked for (key= is read
// out of that download): every digit run of a key or token changed, and
// nothing else — every added= value and every non-digit byte is as before.
// Deriving every token and key from a keyed permutation of the page view's
// number, instead of drawing it, again changed every digit run of a key or
// token, and nothing else.
var goldenPage = []byte(`<html>
<head><title>golden</title><style>body { color: #000; }</style></head>
<body class="main">
<p>hello <a href="/a.html">next</a></p>
<script>var inline = 1;</script>
</body>
</html>`)

// TestInstrumentPageGoldenBytes replays a fixed-seed instrumentation
// sequence and compares every rewritten page (and the token paths, and the
// key each page's script download hands out) against the checked-in capture.
// Any drift in the keystore's derivation of tokens and keys, the injection
// composition or the rewriter shows up here as a byte diff. The shard count
// autotunes from GOMAXPROCS, and nothing in the capture may depend on it: a
// token or key is a function of the seed, the client's address, its
// incarnation (the order clients are first seen in, store-wide) and its
// page-view number, and the script variant a function of the token and the
// seed. So the sequence runs at the capture-time 32 shards and at 1, and
// both must give the capture's bytes. It runs both ways a page is prepared:
// the surfaces' one verdict read and Prepare, and the PreparePage wrapper
// the benchmark's shadow engine calls.
func TestInstrumentPageGoldenBytes(t *testing.T) {
	path := filepath.Join("testdata", "instrumented_golden.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	const ua = "Firefox/1.5"
	for _, way := range []struct {
		name    string
		prepare func(e *Engine, ip, pagePath string, ps *PageState) *htmlmod.Prepared
	}{
		{"Decide+Prepare", func(e *Engine, ip, _ string, ps *PageState) *htmlmod.Prepared {
			return prepareFor(e, AdmitFull, ip, ua, ps)
		}},
		{"PreparePage", func(e *Engine, ip, pagePath string, ps *PageState) *htmlmod.Prepared {
			return e.PreparePage(ip, ua, pagePath, ps)
		}},
	} {
		for _, shards := range []int{32, 1} {
			e := New(Config{Seed: 7, ObfuscateJS: true, Shards: shards})
			var got []byte
			for _, c := range []struct{ ip, pagePath string }{
				{"10.1.2.3", "/"},
				{"10.1.2.3", "/a.html"},
				{"10.9.8.7", "/"},
			} {
				var ps PageState
				html, inst := instrumentPrepared(e, c.ip, ua, goldenPage, way.prepare(e, c.ip, c.pagePath, &ps), &ps)
				got = append(got, fmt.Sprintf("=== %s %s key=%s css=%s script=%s hidden=%s added=%d\n",
					c.ip, c.pagePath, inst.Issued.Key, inst.CSSPath, inst.ScriptPath, inst.HiddenPath, inst.AddedBytes)...)
				got = append(got, html...)
				got = append(got, '\n')
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, %d shards: instrumented output drifted from the golden capture\n--- got (%d bytes):\n%s\n--- want (%d bytes):\n%s",
					way.name, shards, len(got), firstDiffContext(got, want), len(want), firstDiffContext(want, got))
			}
		}
	}
}

// firstDiffContext returns a window of a around its first difference from b.
func firstDiffContext(a, b []byte) []byte {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo, hi := i-80, i+80
	if lo < 0 {
		lo = 0
	}
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}
