package jsgen

import (
	"regexp"
	"strings"
	"testing"
)

// TestScriptBytesBudget pins what the external script costs on the wire at
// the default shape (10-digit keys, 4 decoys, exec beacon, obfuscated) and,
// on the same 200 compiles, everything that may not be traded for bytes:
// what a robot has to defeat is the structure, and it is all still there.
func TestScriptBytesBudget(t *testing.T) {
	const (
		n      = 200
		decoys = 4
	)
	cfg := TemplateConfig{KeyDigits: 10, Decoys: decoys, UAReport: true, Obfuscate: true}
	var (
		beaconFn  = regexp.MustCompile(`var (_[a-z]+)=0;function ([_a-z]+)\(\)\{if\((_[a-z]+)\)return false;(_[a-z]+)=1;var (_[a-z]+)=new Image\(\);(_[a-z]+)\.src=String\.fromCharCode\([0-9,]+\);return true\}`)
		execStmt  = regexp.MustCompile(`var (_[a-z]+)=new Image\(\);(_[a-z]+)\.src=String\.fromCharCode\([0-9,]+\)\+'\?ua='\+encodeURIComponent\(navigator\.userAgent\.toLowerCase\(\)\.replace\(/ /g,''\)\)$`)
		junkStmt  = regexp.MustCompile(`var _[a-z]+=[0-9]+;|var _[a-z]+='[0-9a-f]{8}';|function _[a-z]+\(x\)\{return x\*[0-9]+%65537\}`)
		ident     = regexp.MustCompile(`\b_[a-z]+\b`)
		digitsRun = regexp.MustCompile(`[0-9]{10}`)
	)

	g := NewGenerator()
	total, largest := 0, 0
	handlerRanks := map[int]bool{}
	identLens := map[int]bool{}
	junkTotal := 0
	var common map[string]bool // lines present in every body so far
	for seed := uint64(1); seed <= n; seed++ {
		v := g.Compile(cfg, seed)
		js := string(v.RenderKeys(nil, testRealKey, testUAKey, testDecoys, cfg.KeyDigits))
		if len(js) != v.Size() {
			t.Fatalf("seed %d: rendered %d bytes, Size() %d", seed, len(js), v.Size())
		}
		total += len(js)
		largest = max(largest, len(js))

		// Decoys+1 guarded once-only functions, each with its own guard and
		// image, exactly one of them the handler; one exec statement.
		fns := beaconFn.FindAllStringSubmatch(js, -1)
		if len(fns) != decoys+1 || strings.Count(js, ".src=") != decoys+2 || strings.Count(js, "new Image()") != decoys+2 {
			t.Fatalf("seed %d: %d beacon functions, want %d:\n%s", seed, len(fns), decoys+1, js)
		}
		guards := map[string]bool{}
		handlers := 0
		for rank, m := range fns {
			if m[1] != m[3] || m[1] != m[4] || m[5] != m[6] || guards[m[1]] {
				t.Fatalf("seed %d: function %s does not own its guard/image: %v", seed, m[2], m[1:])
			}
			guards[m[1]] = true
			if m[2] == "__bd_f" {
				handlers++
				handlerRanks[rank] = true
			}
		}
		if m := execStmt.FindStringSubmatch(js); handlers != 1 || m == nil || m[1] != m[2] {
			t.Fatalf("seed %d: %d handlers, exec statement %v:\n%s", seed, handlers, m, js)
		}

		// Junk statements: 3-6 up front plus 0-3 after each function.
		junk := len(junkStmt.FindAllString(js, -1)) - (decoys + 1) // the guards match the first form
		if junk < 3 || junk > 6+3*(decoys+1) {
			t.Fatalf("seed %d: %d junk statements", seed, junk)
		}
		junkTotal += junk
		for _, id := range ident.FindAllString(js, -1) {
			if len(id) < 6 || len(id) > 11 {
				t.Fatalf("seed %d: identifier %q outside the 5-10 letter range", seed, id)
			}
			identLens[len(id)] = true
		}

		// Nothing decorative, nothing constant, nothing verbatim.
		if strings.Contains(js, "//") || strings.Contains(js, "  ") {
			t.Fatalf("seed %d: comment or indentation in the body:\n%s", seed, js)
		}
		if strings.Contains(js, DefaultBeaconPrefix) || strings.Contains(js, ".jpg") || digitsRun.MatchString(js) {
			t.Fatalf("seed %d: beacon prefix or a key appears verbatim:\n%s", seed, js)
		}
		for _, pair := range []string{"()", "{}"} {
			if strings.Count(js, pair[:1]) != strings.Count(js, pair[1:]) {
				t.Fatalf("seed %d: unbalanced %s", seed, pair)
			}
		}
		lines := map[string]bool{}
		for _, l := range strings.Split(js, "\n") {
			if common == nil || common[l] {
				lines[l] = true
			}
		}
		common = lines
	}

	if mean := total / n; mean > 1560 || largest > 1750 {
		t.Errorf("script bytes over %d compiles: mean %d (budget 1560), max %d (budget 1750)", n, mean, largest)
	}
	if len(handlerRanks) != decoys+1 {
		t.Errorf("handler position among the beacon functions only ever %v: order is not shuffled", handlerRanks)
	}
	if len(identLens) != 6 {
		t.Errorf("identifier lengths seen %v, want all of 6..11", identLens)
	}
	if mean := float64(junkTotal) / n; mean < 8.5 || mean > 10.5 {
		t.Errorf("mean junk statements %.2f, want about 9.5 (4.5 up front + 5 x 0.5 x 2)", mean)
	}
	if len(common) != 0 {
		t.Errorf("lines byte-identical across all %d bodies (a constant signature): %v", n, common)
	}
}
