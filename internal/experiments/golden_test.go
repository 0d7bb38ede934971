package experiments

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_results.golden from this run")

// paperGoldenFile holds the twelve paper experiments of `botbench -exp all`
// at DefaultScale, in botbench's order, each under a "==> name" header.
const paperGoldenFile = "testdata/paper_results.golden"

// wallClockLine matches the one report line that measures wall time, the
// overhead report's script generation time: it is masked before comparing.
var wallClockLine = regexp.MustCompile(`(?m)^(  script generation time:\s+).*$`)

// TestPaperResultsGolden pins every paper table and figure the repository
// regenerates: a change that moves any figure of any experiment fails here,
// and `go test ./internal/experiments -run PaperResultsGolden -update`
// rewrites the file when the move is meant.
func TestPaperResultsGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs the twelve experiments at full scale")
	}
	scale := DefaultScale()
	experiments := []struct {
		name string
		run  func() string
	}{
		{"table1", func() string { return Table1(scale).Format() }},
		{"captcha", func() string { return CaptchaCross(scale).Format() }},
		{"figure2", func() string { return Figure2(scale).Format() }},
		{"figure3", func() string { return Figure3(scale).Format() }},
		{"table2", func() string { return Table2().Format() }},
		{"figure4", func() string { return Figure4(scale).Format() }},
		{"overhead", func() string { return Overhead(scale).Format() }},
		{"decoys", func() string { return AblationDecoys(scale).Format() }},
		{"signals", func() string { return AblationSignals(scale).Format() }},
		{"staged", func() string { return Staged(scale).Format() }},
		{"online", func() string { return OnlineLoop(scale).Format() }},
		{"baselines", func() string { return BaselineComparison(scale).Format() }},
	}
	var sb strings.Builder
	for _, x := range experiments {
		fmt.Fprintf(&sb, "==> %s\n\n%s\n", x.name, x.run())
	}
	got := wallClockLine.ReplaceAllString(sb.String(), "${1}(wall clock, masked)")

	if *update {
		if err := os.WriteFile(paperGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(paperGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(raw); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("paper results moved at line %d of %s:\n got: %q\nwant: %q\n(rerun with -update when the move is meant)",
					i+1, paperGoldenFile, g, w)
			}
		}
	}
}
