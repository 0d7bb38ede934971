package keystore

import (
	"testing"
	"time"
)

// TestIssuePageDegradedDecoysAndTTL: a degraded issue carries the reduced
// decoy count and the shortened TTL, while full issues from the same client
// keep the configured lifetime — pressure trims the new arrival's footprint
// without touching anyone else's keys.
func TestIssuePageDegradedDecoysAndTTL(t *testing.T) {
	s, vc := newTestStore(t, Config{TTL: time.Hour, Decoys: 6})

	var full, deg PageKeys
	s.IssuePage("10.0.0.1", "/full.html", &full)
	s.IssuePageDegraded("10.0.0.1", "/deg.html", 2, 10*time.Minute, &deg)
	download(t, s, "10.0.0.1", &full)
	download(t, s, "10.0.0.1", &deg)

	if len(full.Decoys) != 6 {
		t.Fatalf("full issue decoys = %d, want 6", len(full.Decoys))
	}
	if len(deg.Decoys) != 2 {
		t.Fatalf("degraded issue decoys = %d, want 2", len(deg.Decoys))
	}
	if deg.Key == 0 && len(deg.Decoys) == 0 {
		t.Fatal("degraded issue produced no keys at all")
	}
	// The degraded real key still proves a human right now.
	if v := s.ValidateValue("10.0.0.1", deg.Key); v != Human {
		t.Fatalf("fresh degraded key verdict = %v, want Human", v)
	}

	// A second degraded page, left unconsumed past its shortened TTL; a third
	// whose script is not even asked for until then.
	var late PageKeys
	s.IssuePageDegraded("10.0.0.1", "/deg2.html", 2, 10*time.Minute, &deg)
	s.IssuePageDegraded("10.0.0.1", "/deg3.html", 2, 10*time.Minute, &late)
	download(t, s, "10.0.0.1", &deg)
	vc.Advance(11 * time.Minute)
	if _, _, ok := s.PageKeysFor("10.0.0.1", late.ScriptToken, nil); ok {
		t.Fatal("script of a degraded page still served after its shortened TTL")
	}
	if v := s.ValidateValue("10.0.0.1", deg.Key); v != Unknown {
		t.Fatalf("degraded key after 11m (TTL 10m) verdict = %v, want Unknown", v)
	}
	// The full-service key from the same client still has 49 minutes left.
	if v := s.ValidateValue("10.0.0.1", full.Key); v != Human {
		t.Fatalf("full key after 11m (TTL 1h) verdict = %v, want Human", v)
	}
}

// TestIssuePageDegradedDecoyVerdict: degraded decoys still convict — a
// client blindly fetching beacon URLs from a degraded page must read as a
// robot exactly like one on a full page.
func TestIssuePageDegradedDecoyVerdict(t *testing.T) {
	s, _ := newTestStore(t, Config{TTL: time.Hour, Decoys: 6})
	var deg PageKeys
	s.IssuePageDegraded("10.0.0.2", "/deg.html", 3, 10*time.Minute, &deg)
	download(t, s, "10.0.0.2", &deg)
	if len(deg.Decoys) != 3 {
		t.Fatalf("decoys = %d, want 3", len(deg.Decoys))
	}
	for _, d := range deg.Decoys {
		if v := s.ValidateValue("10.0.0.2", d); v != Decoy {
			t.Fatalf("decoy key verdict = %v, want Decoy", v)
		}
	}
}
