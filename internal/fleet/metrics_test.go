package fleet

import (
	"strings"
	"testing"

	"botdetect/internal/detect"
	"botdetect/internal/telemetry"
)

// TestMetricsStoreEntries: /metrics carries the merged store sizes.
func TestMetricsStoreEntries(t *testing.T) {
	r := testRep(t, "n0", []string{"n0", "n1"}, nil)
	defer r.Stop()
	r.PublishVerdict(key(1), detect.Verdict{Class: detect.ClassRobot, Confidence: detect.Definite, Rule: detect.RuleDecoy}, later)
	r.PublishVerdict(key(2), detect.Verdict{Class: detect.ClassHuman, Confidence: detect.Definite, Rule: detect.RuleMouse}, later)
	r.PublishBlock(key(1), later)
	reg := telemetry.NewRegistry()
	r.RegisterMetrics(reg, "n0")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`botdetect_fleet_store_entries{node="n0",kind="verdict"} 2`,
		`botdetect_fleet_store_entries{node="n0",kind="block"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, sb.String())
		}
	}
}
