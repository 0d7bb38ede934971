package features

import (
	"strings"
	"testing"
)

func TestNamesAndDescriptionsComplete(t *testing.T) {
	if len(Names) != NumAttributes || len(Descriptions) != NumAttributes {
		t.Fatal("names/descriptions length mismatch")
	}
	for i := 0; i < NumAttributes; i++ {
		if Names[i] == "" || Descriptions[i] == "" {
			t.Fatalf("attribute %d missing name or description", i)
		}
	}
	// The three attributes the paper highlights as most informative exist.
	joined := strings.Join(Names[:], "|")
	for _, want := range []string{"RESPCODE 3XX %", "REFERRER %", "UNSEEN REFERRER %"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing attribute %q", want)
		}
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{}
	v[HeadPct] = 0.5
	s := v.String()
	if !strings.Contains(s, "HEAD % = 0.500") && !strings.Contains(s, "HEAD %=0.500") {
		t.Fatalf("String = %q", s)
	}
}
