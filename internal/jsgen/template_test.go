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

func TestVariantRenderSplicesAllKeys(t *testing.T) {
	// Leading zeros are part of a key: "0000000042" and "42" are different
	// beacons on the wire.
	real, ua := "0000000042", "5556667778"
	decoys := []string{"1111111111", "0222222222", "3333333333", "4444444444"}

	for _, obf := range []bool{false, true} {
		cfg := testTemplateConfig()
		cfg.Obfuscate = obf
		v := NewGenerator().Compile(cfg, 42)
		js := string(v.RenderKeys(nil, 42, 5556667778, []uint64{1111111111, 222222222, 3333333333, 4444444444}, 10))
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
	js := v.RenderKeys(nil, 123456789, 9876543210, []uint64{1, 2, 3, 4}, 10)
	if len(js) != v.Size() {
		t.Fatalf("rendered %d bytes, Size() = %d: keys of the compiled digit length must be fixed-width", len(js), v.Size())
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
	decoys := []uint64{1, 2, 3, 4}
	size := 0
	for pick := uint64(0); pick < 4; pick++ {
		size = max(size, pool.Pick(pick).Size())
	}
	dst := make([]byte, 0, size)
	pick := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		dst = pool.Pick(pick).RenderKeys(dst[:0], 123456789, 9876543210, decoys, 10)
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
	if n := strings.Count(out, "2222222222.jpg"); n != cfg.Decoys {
		t.Fatalf("the one issued decoy fills %d of %d slots", n, cfg.Decoys)
	}
	// And an empty decoy set must not panic (mod-by-zero guard).
	_ = v.RenderKeys(nil, 1111111111, 456, nil, 10)
}

// TestRenderKeysClampsDigits: a key is a uint64, so no shape asking for more
// than MaxTokenDigits digits can be honoured — the compile and the render both
// clamp, as the keystore does, instead of indexing past the digit buffer.
func TestRenderKeysClampsDigits(t *testing.T) {
	const wide = 25
	for _, obf := range []bool{false, true} {
		cfg := TemplateConfig{KeyDigits: wide, Decoys: 2, UAReport: true, Obfuscate: obf}
		v := NewGenerator().Compile(cfg, 5)
		js := string(v.RenderKeys(nil, 42, 7, []uint64{8, 9}, wide))
		if len(js) != v.Size() {
			t.Fatalf("obf=%v: rendered %d bytes, Size() = %d", obf, len(js), v.Size())
		}
		want := "/__bd/" + strings.Repeat("0", MaxTokenDigits-2) + "42.jpg"
		if obf {
			want = charCodes(want)
		}
		if !strings.Contains(js, want) {
			t.Fatalf("obf=%v: real key not spliced as %d digits:\n%s", obf, MaxTokenDigits, js)
		}
	}
}
