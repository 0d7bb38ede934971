package keystore

import (
	"testing"
	"time"
)

// TestIssuePageDegradedDecoysAndTTL: a degraded issue carries a quarter of
// the decoys and a quarter of the TTL, while full issues from the same
// client keep the configured lifetime — pressure trims the new arrival's
// footprint without touching anyone else's keys.
func TestIssuePageDegradedDecoysAndTTL(t *testing.T) {
	s, vc := newTestStore(t, Config{TTL: time.Hour, Decoys: 8})

	var full, deg PageKeys
	s.IssuePage("10.0.0.1", "/full.html", &full)
	s.IssuePageDegraded("10.0.0.1", "/deg.html", &deg)
	download(t, s, "10.0.0.1", &full)
	download(t, s, "10.0.0.1", &deg)

	if len(full.Decoys) != 8 {
		t.Fatalf("full issue decoys = %d, want 8", len(full.Decoys))
	}
	if len(deg.Decoys) != 2 {
		t.Fatalf("degraded issue decoys = %d, want 2", len(deg.Decoys))
	}
	// The degraded real key still proves a human right now.
	if v := s.ValidateValue("10.0.0.1", deg.Key); v != Human {
		t.Fatalf("fresh degraded key verdict = %v, want Human", v)
	}

	// A second degraded page, left unconsumed past its shortened TTL; a third
	// whose script is not even asked for until then.
	var late PageKeys
	s.IssuePageDegraded("10.0.0.1", "/deg2.html", &deg)
	s.IssuePageDegraded("10.0.0.1", "/deg3.html", &late)
	download(t, s, "10.0.0.1", &deg)
	vc.Advance(14 * time.Minute)
	if _, _, ok := s.PageKeysFor("10.0.0.1", late.ScriptToken, nil); !ok {
		t.Fatal("script of a degraded page refused within its 15-minute TTL")
	}
	vc.Advance(2 * time.Minute)
	if _, _, ok := s.PageKeysFor("10.0.0.1", late.ScriptToken, nil); ok {
		t.Fatal("script of a degraded page still served after its shortened TTL")
	}
	if v := s.ValidateValue("10.0.0.1", deg.Key); v != Unknown {
		t.Fatalf("degraded key after 16m (TTL 15m) verdict = %v, want Unknown", v)
	}
	// The full-service key from the same client still has 44 minutes left.
	if v := s.ValidateValue("10.0.0.1", full.Key); v != Human {
		t.Fatalf("full key after 16m (TTL 1h) verdict = %v, want Human", v)
	}
}

// TestIssuePageDegradedDecoyVerdict: degraded decoys still convict — a
// client blindly fetching beacon URLs from a degraded page must read as a
// robot exactly like one on a full page — and a degraded page view is owed
// a quarter of the configured decoys, never none.
func TestIssuePageDegradedDecoyVerdict(t *testing.T) {
	for _, c := range []struct{ decoys, owed int }{{1, 1}, {3, 1}, {12, 3}, {MaxDecoys, 63}} {
		s, _ := newTestStore(t, Config{TTL: time.Hour, Decoys: c.decoys})
		var deg PageKeys
		s.IssuePageDegraded("10.0.0.2", "/deg.html", &deg)
		download(t, s, "10.0.0.2", &deg)
		if len(deg.Decoys) != c.owed {
			t.Fatalf("Decoys %d: a degraded page view drew %d decoys, want %d", c.decoys, len(deg.Decoys), c.owed)
		}
		for _, d := range deg.Decoys {
			if v := s.ValidateValue("10.0.0.2", d); v != Decoy {
				t.Fatalf("Decoys %d: decoy key verdict = %v, want Decoy", c.decoys, v)
			}
		}
		if n := s.outstandingKeys("10.0.0.2"); n != 1+c.owed {
			t.Fatalf("Decoys %d: %d outstanding keys, want %d", c.decoys, n, 1+c.owed)
		}
	}
}
