package core

import (
	"testing"
	"time"

	"botdetect/internal/logfmt"
	"botdetect/internal/policy"
	"botdetect/internal/session"
)

// TestChallengedRobotBlockedOnGraceRequest drives the quiet serve path the
// way the proxy does — Decide, policy.Evaluate, then ObserveRequestQuiet —
// and requires the ladder to act on the session as it stands: a challenged
// definite robot is blocked on the request where its count reaches
// enteredTotal + 25 (the ladder's grace), not at the next power of two where
// an epoch bump happens to refresh what the policy sees.
func TestChallengedRobotBlockedOnGraceRequest(t *testing.T) {
	d, vc := newTestEngine(Config{})
	const entered, grace = 3, 25 // block due at 28: not a mark, not a power of two
	pol := policy.NewEngine(policy.Config{Clock: vc})
	ip, ua := "10.0.0.66", "Crawler"
	key := session.Key{IP: ip, UserAgent: ua}

	serve := func() policy.Action {
		if snap, verdict, tracked := d.Decide(key); tracked {
			action := pol.Evaluate(*snap, verdict).Action
			snap.Release()
			if action == policy.Block || action == policy.Challenge {
				return action // refused: nothing is served, nothing observed
			}
		}
		vc.Advance(2 * time.Second) // stay under the rate thresholds
		d.ObserveRequestQuiet(logfmt.Entry{
			Time: vc.Now(), ClientIP: ip, UserAgent: ua, Method: "GET", Path: "/index.html", Status: 200, Bytes: 1024,
		})
		return policy.Allow
	}

	for i := 0; i < entered; i++ {
		if a := serve(); a != policy.Allow {
			t.Fatalf("request %d of an unremarkable session: %v", i+1, a)
		}
	}
	_, inst := instrumentPage(d, ip, ua, "/", pageHTML())
	d.HandleBeacon(ip, ua, inst.HiddenPath) // definite robot from here on
	if a := serve(); a != policy.Challenge {
		t.Fatalf("first request after the hidden link: %v, want challenge", a)
	}
	served := 0
	for serve() != policy.Block {
		served++
		if served > 4*grace {
			t.Fatalf("still not blocked %d requests after the challenge", served)
		}
	}
	if served != grace {
		t.Errorf("challenged robot was served %d more requests, want exactly %d", served, grace)
	}
	if snap, _ := d.Session(key); snap.Counts.Total != entered+grace {
		t.Errorf("blocked at request count %d, want %d", snap.Counts.Total, entered+grace)
	}
}
