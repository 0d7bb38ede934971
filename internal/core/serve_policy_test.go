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
	_, inst := instrumentPage(d, ip, ua, pageHTML())
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

// TestHumanReplayingConsumedKeyIsDefiniteRobot records what happens today to
// a human who sends its consumed real key a second time, as a back/forward
// cache reload (or a second tab behind the same address and User-Agent)
// does: rules.Direct checks SignalReplay before SignalMouse, so the session is
// a definite robot from the replay on — challenged at once, still a robot
// after a later page view whose fresh key proves an input event, and blocked
// when the ladder's grace runs out. This pins the behaviour, it does not
// endorse it: whether a replay alone should outrank input evidence is an
// open question of the verdict composition, and changing the answer must
// change this test.
func TestHumanReplayingConsumedKeyIsDefiniteRobot(t *testing.T) {
	d, vc := newTestEngine(Config{})
	pol := policy.NewEngine(policy.Config{Clock: vc})
	ip, ua := "10.0.0.67", "Mozilla/5.0 (Windows NT 5.1) Firefox/1.5"
	key := session.Key{IP: ip, UserAgent: ua}
	prefix := d.Config().BeaconPrefix
	decide := func(when string) (Verdict, policy.Action) {
		t.Helper()
		snap, v, ok := d.Decide(key)
		if !ok {
			t.Fatalf("%s: session not tracked", when)
		}
		a := pol.Evaluate(*snap, v).Action
		snap.Release()
		if when != "" {
			t.Logf("%s: %v -> %v", when, v, a)
		}
		return v, a
	}
	// One human page view: the page, its stylesheet, its script (which
	// instrumentPage downloads), the exec beacon and one input event.
	pageView := func() servedPage {
		vc.Advance(5 * time.Second)
		d.ObserveRequestQuiet(logfmt.Entry{
			Time: vc.Now(), ClientIP: ip, UserAgent: ua, Method: "GET", Path: "/index.html", Status: 200, Bytes: 1024,
		})
		_, inst := instrumentPage(d, ip, ua, pageHTML())
		d.HandleBeacon(ip, ua, inst.CSSPath)
		d.HandleBeacon(ip, ua, prefix+"/js/"+inst.Issued.ScriptToken+".gif?ua="+session.NormalizeUA(ua))
		d.HandleBeacon(ip, ua, prefix+"/"+inst.Issued.Key+".jpg")
		return inst
	}

	first := pageView()
	if v, a := decide("after the input event"); v.Class != ClassHuman || v.Confidence != Definite || a != policy.Allow {
		t.Fatalf("a human's first page view: %v, %v; want definite human, allowed", v, a)
	}

	d.HandleBeacon(ip, ua, prefix+"/"+first.Issued.Key+".jpg") // the reload re-sends the consumed key
	if st := d.Stats(); st.ReplayBeacons != 1 || st.MouseBeacons != 1 || st.DecoyBeacons != 0 {
		t.Fatalf("beacons %+v, want one input event and one replay", st)
	}
	v, a := decide("after the replay")
	if v.Class != ClassRobot || v.Confidence != Definite || v.Reason() != "replayed an already consumed beacon key" || a != policy.Challenge {
		t.Fatalf("after the replay: %v, %v; today it is a definite robot by replay, challenged", v, a)
	}

	pageView() // a fresh key proves a fresh input event
	if v, a := decide("after another input event"); v.Class != ClassRobot || v.Confidence != Definite || a != policy.Allow {
		t.Fatalf("a later input event: %v, %v; today the replay holds, and the ladder's grace serves it", v, a)
	}
	// The grace runs out like any robot's: blocked 25 requests after the
	// challenge, whatever input the client keeps producing.
	for served := 0; ; served++ {
		if _, a := decide(""); a == policy.Block {
			if snap, _ := d.Session(key); snap.Counts.Total != 1+25 {
				t.Fatalf("blocked at request %d, want 26: one before the challenge and the 25 of the grace", snap.Counts.Total)
			}
			break
		}
		if served > 100 {
			t.Fatal("a replaying human was never blocked")
		}
		vc.Advance(2 * time.Second)
		d.ObserveRequestQuiet(logfmt.Entry{
			Time: vc.Now(), ClientIP: ip, UserAgent: ua, Method: "GET", Path: "/index.html", Status: 200, Bytes: 1024,
		})
	}
}
