package jsgen

import (
	"strconv"
	"strings"
	"testing"
)

func testTemplateConfig() TemplateConfig {
	return TemplateConfig{
		BeaconBase: "http://www.example.com",
		KeyDigits:  10,
		Decoys:     4,
		UAReport:   true,
		Obfuscate:  true,
	}
}

// charCodes renders s the way the obfuscated template encodes it inside
// String.fromCharCode: comma-separated decimal byte codes.
func charCodes(s string) string {
	parts := make([]string, len(s))
	for i := 0; i < len(s); i++ {
		parts[i] = strconv.Itoa(int(s[i]))
	}
	return strings.Join(parts, ",")
}

func TestScriptMatchesCompiledVariant(t *testing.T) {
	g := NewGenerator()
	p := baseParams()
	p.Obfuscate = true
	v := g.Compile(TemplateConfig{
		BeaconBase: p.BeaconBase,
		KeyDigits:  len(p.RealKey),
		Decoys:     len(p.DecoyKeys),
		UAReport:   true,
		Obfuscate:  true,
	}, p.Seed)
	rendered := string(v.Render(nil, p.RealKey, p.UAReportKey, p.DecoyKeys))
	if got := g.Script(p); got != rendered {
		t.Fatal("Script wrapper and Compile+Render disagree for the same seed")
	}
}

func TestVariantRenderSplicesAllKeys(t *testing.T) {
	g := NewGenerator()
	real := "1234567890"
	ua := "5556667778"
	decoys := []string{"1111111111", "2222222222", "3333333333", "4444444444"}

	for _, obf := range []bool{false, true} {
		cfg := testTemplateConfig()
		cfg.Obfuscate = obf
		v := g.Compile(cfg, 42)
		js := string(v.Render(nil, real, ua, decoys))
		find := func(dir, key, suffix string) string {
			if obf {
				return charCodes(dir + key + suffix)
			}
			return dir + key + suffix
		}
		if !strings.Contains(js, find("/__bd/", real, ".jpg")) {
			t.Fatalf("obf=%v: real key not spliced", obf)
		}
		for _, d := range decoys {
			if !strings.Contains(js, find("/__bd/", d, ".jpg")) {
				t.Fatalf("obf=%v: decoy %s not spliced", obf, d)
			}
		}
		if !strings.Contains(js, find("/__bd/js/", ua, ".gif")) {
			t.Fatalf("obf=%v: UA-report key not spliced", obf)
		}
		if obf && strings.Contains(js, real) {
			t.Fatal("obfuscated render leaks the real key verbatim")
		}
		if strings.Count(js, "{") != strings.Count(js, "}") {
			t.Fatalf("obf=%v: unbalanced braces", obf)
		}
		if strings.Count(js, "function __bd_f()") != 1 {
			t.Fatalf("obf=%v: handler count wrong", obf)
		}
	}
}

// TestRenderKeysMatchesRender pins the numeric splice path to the string
// one: for every variant shape, RenderKeys over uint64 keys must produce
// byte-identical output to Render over the equivalent fixed-width strings,
// leading zeros included.
func TestRenderKeysMatchesRender(t *testing.T) {
	g := NewGenerator()
	realV, uaV := uint64(42), uint64(9876543210)
	decoyV := []uint64{1, 2222222222, 303, 4444444444}
	const digits = 10
	pad := func(v uint64) string {
		s := strconv.FormatUint(v, 10)
		return strings.Repeat("0", digits-len(s)) + s
	}
	realS, uaS := pad(realV), pad(uaV)
	decoyS := make([]string, len(decoyV))
	for i, d := range decoyV {
		decoyS[i] = pad(d)
	}
	for _, obf := range []bool{false, true} {
		for _, ua := range []bool{false, true} {
			cfg := testTemplateConfig()
			cfg.Obfuscate = obf
			cfg.UAReport = ua
			v := g.Compile(cfg, 99)
			want := v.Render(nil, realS, uaS, decoyS)
			got := v.RenderKeys(nil, realV, uaV, decoyV, digits)
			if string(got) != string(want) {
				t.Fatalf("obf=%v ua=%v: RenderKeys differs from Render", obf, ua)
			}
		}
	}
}

// TestRenderKeysZeroAlloc pins the numeric render at zero allocations when
// the destination buffer is reused at the variant's size.
func TestRenderKeysZeroAlloc(t *testing.T) {
	g := NewGenerator()
	v := g.Compile(testTemplateConfig(), 11)
	dst := make([]byte, 0, v.Size())
	decoys := []uint64{1, 2, 3, 4}
	allocs := testing.AllocsPerRun(100, func() {
		dst = v.RenderKeys(dst[:0], 123, 456, decoys, 10)
	})
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("RenderKeys allocated %.1f/op, want 0", allocs)
	}
}

func TestVariantRenderFixedWidthSize(t *testing.T) {
	g := NewGenerator()
	v := g.Compile(testTemplateConfig(), 7)
	js := v.Render(nil, "0123456789", "9876543210",
		[]string{"0000000001", "0000000002", "0000000003", "0000000004"})
	if len(js) != v.Size() {
		t.Fatalf("rendered %d bytes, Size() = %d: keys of the compiled digit length must be fixed-width", len(js), v.Size())
	}
}

func TestVariantRenderVariableLengthKeys(t *testing.T) {
	// The compatibility wrapper can splice keys whose length differs from the
	// compiled placeholder width; output must stay structurally sound.
	g := NewGenerator()
	cfg := testTemplateConfig()
	cfg.Decoys = 1
	v := g.Compile(cfg, 3)
	js := string(v.Render(nil, "42", "123456789012345", []string{"7"}))
	if !strings.Contains(js, charCodes("/__bd/42.jpg")) {
		t.Fatal("short real key not spliced")
	}
	if strings.Count(js, "{") != strings.Count(js, "}") {
		t.Fatal("unbalanced braces with variable-length keys")
	}
}

func TestCompileDeterministicPerSeed(t *testing.T) {
	g := NewGenerator()
	cfg := testTemplateConfig()
	a := g.Compile(cfg, 99)
	b := g.Compile(cfg, 99)
	if string(a.tmpl) != string(b.tmpl) {
		t.Fatal("same seed must compile the same template")
	}
	c := g.Compile(cfg, 100)
	if string(a.tmpl) == string(c.tmpl) {
		t.Fatal("different seeds must compile different templates")
	}
}

func TestPoolPickAndRotate(t *testing.T) {
	g := NewGenerator()
	pool := NewPool(g, testTemplateConfig(), 4, 11)
	if pool.Variants() != 4 {
		t.Fatalf("Variants() = %d", pool.Variants())
	}
	// Distinct picks should (at 4 variants) hit distinct templates.
	seen := map[string]bool{}
	for pick := uint64(0); pick < 4; pick++ {
		seen[string(pool.Pick(pick).tmpl)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("expected 4 distinct variants, got %d", len(seen))
	}
	before := string(pool.Pick(0).tmpl)
	pool.Rotate(12)
	if string(pool.Pick(0).tmpl) == before {
		t.Fatal("Rotate must replace the variant set")
	}
}

func TestVariantRenderZeroAlloc(t *testing.T) {
	g := NewGenerator()
	pool := NewPool(g, testTemplateConfig(), 4, 21)
	real := "0123456789"
	ua := "9876543210"
	decoys := []string{"0000000001", "0000000002", "0000000003", "0000000004"}
	size := 0
	for pick := uint64(0); pick < 4; pick++ {
		size = max(size, pool.Pick(pick).Size())
	}
	dst := make([]byte, 0, size)
	pick := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		dst = pool.Pick(pick).Render(dst[:0], real, ua, decoys)
		pick++
	})
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("pool render into a reused buffer allocated %.1f/op, want 0", allocs)
	}
}

// TestRenderShortDecoysCycles: a degraded page issues fewer decoys than the
// variant has slots. Every slot must still carry a plausible beacon URL —
// the issued set cycles — and never the fingerprintable empty splice
// ('/__bd/.jpg' would advertise that the page is degraded and which URLs
// are worth avoiding).
func TestRenderShortDecoysCycles(t *testing.T) {
	g := NewGenerator()
	cfg := testTemplateConfig()
	cfg.Obfuscate = false // keep URLs greppable
	v := g.Compile(cfg, 7)

	out := string(v.RenderKeys(nil, 1111111111, 456, []uint64{2222222222}, 10))
	if strings.Contains(out, "/.jpg") {
		t.Fatal("short decoy set rendered an empty beacon URL")
	}
	if !strings.Contains(out, "2222222222") {
		t.Fatal("issued decoy missing from rendered script")
	}
	// String and numeric paths must stay byte-identical in the short case too.
	outS := string(v.Render(nil, "1111111111", "0000000456", []string{"2222222222"}))
	if out != outS {
		t.Fatal("RenderKeys differs from Render for a short decoy set")
	}
	// And an empty decoy set must not panic (mod-by-zero guard).
	_ = v.RenderKeys(nil, 1111111111, 456, nil, 10)
}
