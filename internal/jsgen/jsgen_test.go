package jsgen

import (
	"strings"
	"testing"
	"testing/quick"
)

func baseParams() Params {
	return Params{
		BeaconBase:  "http://www.example.com",
		RealKey:     "0729395160",
		DecoyKeys:   []string{"1111111111", "2222222222", "3333333333"},
		UAReportKey: "9999999999",
		Seed:        1,
	}
}

func TestScriptPlainContainsRealBeacon(t *testing.T) {
	g := NewGenerator()
	p := baseParams()
	p.Obfuscate = false
	js := g.Script(p)
	if !strings.Contains(js, "function __bd_f()") {
		t.Fatal("handler function missing")
	}
	if !strings.Contains(js, BeaconPath(DefaultBeaconPrefix, p.RealKey)) {
		t.Fatal("real beacon URL missing in plain script")
	}
	for _, d := range p.DecoyKeys {
		if !strings.Contains(js, BeaconPath(DefaultBeaconPrefix, d)) {
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
	g := NewGenerator()
	p := baseParams()
	p.Obfuscate = true
	js := g.Script(p)
	if strings.Contains(js, p.RealKey) {
		t.Fatal("obfuscated script leaks the real key verbatim")
	}
	if strings.Contains(js, "/__bd/"+p.RealKey) {
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
	p := baseParams()
	p.Obfuscate = true
	a := g.Script(p)
	b := g.Script(p)
	if a != b {
		t.Fatal("same seed should generate identical script")
	}
	p2 := p
	p2.Seed = 2
	if g.Script(p2) == a {
		t.Fatal("different seed should change the obfuscated script")
	}
}

func TestScriptsDifferAcrossKeys(t *testing.T) {
	g := NewGenerator()
	p := baseParams()
	p.Obfuscate = true
	a := g.Script(p)
	p.RealKey = "0000000042"
	p.Seed = 77
	b := g.Script(p)
	if a == b {
		t.Fatal("different keys/seeds should produce different script bodies")
	}
}

func TestScriptWithoutUAReport(t *testing.T) {
	g := NewGenerator()
	p := baseParams()
	p.UAReportKey = ""
	js := g.Script(p)
	if strings.Contains(js, "navigator.userAgent") {
		t.Fatal("UA report should be absent when no key is provided")
	}
}

func TestCustomHandlerName(t *testing.T) {
	g := &Generator{HandlerName: "myhandler"}
	js := g.Script(baseParams())
	if !strings.Contains(js, "function myhandler()") {
		t.Fatal("custom handler name not used")
	}
	empty := &Generator{}
	js = empty.Script(baseParams())
	if !strings.Contains(js, "function __bd_f()") {
		t.Fatal("empty handler name should default")
	}
}

func TestPathHelpers(t *testing.T) {
	if BeaconPath("", "k") != "/__bd/k.jpg" {
		t.Fatalf("BeaconPath = %q", BeaconPath("", "k"))
	}
	if BeaconPath("/x", "k") != "/x/k.jpg" {
		t.Fatalf("BeaconPath custom = %q", BeaconPath("/x", "k"))
	}
	if ExecBeaconPath("", "k") != "/__bd/js/k.gif" {
		t.Fatalf("ExecBeaconPath = %q", ExecBeaconPath("", "k"))
	}
	if CSSPath("", "t") != "/__bd/t.css" {
		t.Fatalf("CSSPath = %q", CSSPath("", "t"))
	}
	if HiddenPath("", "t") != "/__bd/hidden/t.html" {
		t.Fatalf("HiddenPath = %q", HiddenPath("", "t"))
	}
	if TransparentImagePath("") != "/__bd/transp_1x1.gif" {
		t.Fatalf("TransparentImagePath = %q", TransparentImagePath(""))
	}
	if ScriptPath("", "0729395150") != "/__bd/index_0729395150.js" {
		t.Fatalf("ScriptPath = %q", ScriptPath("", "0729395150"))
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
		p := Params{
			RealKey:   "1234567890",
			Obfuscate: true,
			Seed:      seed,
		}
		for i := 0; i < int(nDecoys%8); i++ {
			p.DecoyKeys = append(p.DecoyKeys, strings.Repeat("9", 5)+strings.Repeat("0", 5))
		}
		js := g.Script(p)
		// Exactly one genuine handler definition, decoy count + 1 total
		// "new Image()" allocations at minimum, balanced braces.
		if strings.Count(js, "function __bd_f()") != 1 {
			return false
		}
		if strings.Count(js, "new Image()") < len(p.DecoyKeys)+1 {
			return false
		}
		return strings.Count(js, "{") == strings.Count(js, "}")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScriptSizeReasonable(t *testing.T) {
	g := NewGenerator()
	p := baseParams()
	p.Obfuscate = true
	js := g.Script(p)
	// Paper quotes ~1 KB of fake JavaScript; with encoding overhead we allow
	// a few KB, but it must not balloon.
	if len(js) < 500 || len(js) > 16*1024 {
		t.Fatalf("script size %d out of expected range", len(js))
	}
}
