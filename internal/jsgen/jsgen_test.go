package jsgen

import (
	"strings"
	"testing"
	"testing/quick"
)

// The keys the script tests splice: the paper's example beacon number (its
// leading zero is significant on the wire), four decoys and the exec key.
const (
	testRealKey = 729395160
	testRealStr = "0729395160"
	testUAKey   = 9999999999
)

var testDecoys = []uint64{1111111111, 2222222222, 3333333333, 4444444444}

// testScript compiles cfg at seed and renders it with the test keys, the way
// the engine serves a script download.
func testScript(g *Generator, cfg TemplateConfig, seed uint64) string {
	return string(g.Compile(cfg, seed).RenderKeys(nil, testRealKey, testUAKey, testDecoys, cfg.KeyDigits))
}

// beaconURL is the site-relative beacon path carrying key, composed from the
// parts the template compiler splices around it.
func beaconURL(key string) string {
	pre, suf := BeaconPathParts("")
	return pre + key + suf
}

func TestScriptPlainContainsRealBeacon(t *testing.T) {
	cfg := testTemplateConfig()
	cfg.Obfuscate = false
	js := testScript(NewGenerator(), cfg, 1)
	if !strings.Contains(js, "function __bd_f()") {
		t.Fatal("handler function missing")
	}
	if !strings.Contains(js, beaconURL(testRealStr)) {
		t.Fatal("real beacon URL missing in plain script")
	}
	for _, d := range []string{"1111111111", "2222222222", "3333333333", "4444444444"} {
		if !strings.Contains(js, beaconURL(d)) {
			t.Fatalf("decoy %s missing", d)
		}
	}
	if !strings.Contains(js, "navigator.userAgent") {
		t.Fatal("JS-exec beacon missing")
	}
	if !strings.Contains(js, "new Image()") {
		t.Fatal("image fetch missing")
	}
}

func TestScriptObfuscationHidesURLs(t *testing.T) {
	js := testScript(NewGenerator(), testTemplateConfig(), 1)
	if strings.Contains(js, testRealStr) {
		t.Fatal("obfuscated script leaks the real key verbatim")
	}
	if strings.Contains(js, "/__bd/") {
		t.Fatal("obfuscated script leaks the beacon URL verbatim")
	}
	if !strings.Contains(js, "String.fromCharCode(") {
		t.Fatal("expected character-encoded strings under obfuscation")
	}
	if !strings.Contains(js, "function __bd_f()") {
		t.Fatal("handler name must stay stable so the HTML attribute can call it")
	}
}

func TestScriptDeterministicPerSeed(t *testing.T) {
	g := NewGenerator()
	a := testScript(g, testTemplateConfig(), 1)
	if testScript(g, testTemplateConfig(), 1) != a {
		t.Fatal("same seed should generate identical script")
	}
	if testScript(g, testTemplateConfig(), 2) == a {
		t.Fatal("different seed should change the obfuscated script")
	}
}

func TestScriptsDifferAcrossKeys(t *testing.T) {
	v := NewGenerator().Compile(testTemplateConfig(), 1)
	a := string(v.RenderKeys(nil, testRealKey, testUAKey, testDecoys, 10))
	b := string(v.RenderKeys(nil, 42, testUAKey, testDecoys, 10))
	if a == b {
		t.Fatal("different keys should produce different script bodies from one variant")
	}
	if len(a) != len(b) {
		t.Fatalf("bodies of one variant differ in length (%d vs %d): keys are fixed-width", len(a), len(b))
	}
}

func TestScriptWithoutUAReport(t *testing.T) {
	cfg := testTemplateConfig()
	cfg.UAReport = false
	if js := testScript(NewGenerator(), cfg, 1); strings.Contains(js, "navigator.userAgent") {
		t.Fatal("UA report should be absent when the shape has none")
	}
}

func TestCustomHandlerName(t *testing.T) {
	js := testScript(&Generator{HandlerName: "myhandler"}, testTemplateConfig(), 1)
	if !strings.Contains(js, "function myhandler()") {
		t.Fatal("custom handler name not used")
	}
	js = testScript(&Generator{}, testTemplateConfig(), 1)
	if !strings.Contains(js, "function __bd_f()") {
		t.Fatal("empty handler name should default")
	}
}

func TestPathHelpers(t *testing.T) {
	around := func(parts func(string) (string, string), prefix, arg string) string {
		pre, suf := parts(prefix)
		return pre + arg + suf
	}
	for _, c := range []struct{ got, want string }{
		{around(BeaconPathParts, "", "k"), "/__bd/k.jpg"},
		{around(BeaconPathParts, "/x", "k"), "/x/k.jpg"},
		{around(ExecBeaconPathParts, "", "k"), "/__bd/js/k.gif"},
		{around(CSSPathParts, "", "t"), "/__bd/t.css"},
		{around(HiddenPathParts, "", "t"), "/__bd/hidden/t.html"},
		{TransparentImagePath(""), "/__bd/transp_1x1.gif"},
		{around(ScriptPathParts, "", "0729395150"), "/__bd/index_0729395150.js"},
	} {
		if c.got != c.want {
			t.Errorf("path = %q, want %q", c.got, c.want)
		}
	}
}

func TestInlineUAScript(t *testing.T) {
	pre, post := InlineUAScriptParts("http://www.example.com", "")
	want := `document.write("<link rel=stylesheet href=http://www.example.com/__bd/ua/tok123/"+` +
		`encodeURIComponent(navigator.userAgent.toLowerCase().replace(/ /g,""))+".css>")`
	if got := pre + "tok123" + post; got != want {
		t.Fatalf("inline UA script:\n got %s\nwant %s", got, want)
	}
	// A base the written link cannot carry bare keeps its quotes.
	pre, post = InlineUAScriptParts("http://h/p?a=1&b=", "")
	if !strings.Contains(pre, `href='http://h/p?a=1&b=/__bd/ua/`) || !strings.HasSuffix(post, `+".css'>")`) {
		t.Fatalf("exotic base not quoted: %s|%s", pre, post)
	}
}

func TestObfuscatedScriptStructureProperty(t *testing.T) {
	g := NewGenerator()
	f := func(seed uint64, nDecoys uint8) bool {
		cfg := TemplateConfig{KeyDigits: 10, Decoys: int(nDecoys % 8), Obfuscate: true}
		js := testScript(g, cfg, seed)
		// Exactly one genuine handler definition, decoy count + 1 total
		// "new Image()" allocations at minimum, balanced braces.
		if strings.Count(js, "function __bd_f()") != 1 {
			return false
		}
		if strings.Count(js, "new Image()") < cfg.Decoys+1 {
			return false
		}
		return strings.Count(js, "{") == strings.Count(js, "}")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScriptSizeReasonable(t *testing.T) {
	js := testScript(NewGenerator(), testTemplateConfig(), 1)
	// Paper quotes ~1 KB of fake JavaScript; with encoding overhead we allow
	// a few KB, but it must not balloon.
	if len(js) < 500 || len(js) > 16*1024 {
		t.Fatalf("script size %d out of expected range", len(js))
	}
}
