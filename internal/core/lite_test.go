package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"botdetect/internal/clock"
	"botdetect/internal/htmlmod"
	"botdetect/internal/jsgen"
	"botdetect/internal/keystore"
	"botdetect/internal/logfmt"
	"botdetect/internal/policy"
	"botdetect/internal/session"
)

// liteView is one page view served the way a surface serves it — a request
// observed into the session, a prepare, a rewrite — and what it carried.
type liteView struct {
	lite bool
	pk   keystore.PageKeys
	out  []byte
}

// serveView serves one page view to key. Every view carries the hidden trap
// link; a view is either fully instrumented or lite (the trap alone).
func serveView(t *testing.T, e *Engine, vc *clock.Virtual, key session.Key, degraded bool) liteView {
	t.Helper()
	vc.Advance(5 * time.Second)
	var ps PageState
	var prep *htmlmod.Prepared
	if degraded {
		prep = e.PreparePageDegraded(key.IP, key.UserAgent, "/", &ps)
	} else {
		prep = e.PreparePage(key.IP, key.UserAgent, "/", &ps)
	}
	doc := pageHTML()
	res := prep.Rewrite(doc)
	e.RecordInstrumented(len(doc), res.AddedBytes)
	e.ObserveRequestQuiet(logfmt.Entry{
		Time: vc.Now(), ClientIP: key.IP, UserAgent: key.UserAgent, Method: "GET", Path: "/", Status: 200, Bytes: int64(len(doc)),
		ContentType: "text/html",
	})
	if !res.InjectedHidden {
		t.Fatal("a page without the hidden trap link")
	}
	full := res.InjectedCSS && res.InjectedScript && res.InjectedInline && res.InjectedHandlers
	lite := !res.InjectedCSS && !res.InjectedScript && !res.InjectedInline && !res.InjectedHandlers
	if full == lite {
		t.Fatalf("a page neither full nor lite: %+v", res)
	}
	return liteView{lite: lite, pk: *ps.Keys(), out: res.HTML}
}

// proveHuman serves key one full page and presents the real key its script
// carries: a definite human from then on.
func proveHuman(t *testing.T, e *Engine, vc *clock.Virtual, key session.Key) {
	t.Helper()
	vc.Advance(5 * time.Second)
	_, inst := instrumentPage(e, key.IP, key.UserAgent, "/", pageHTML())
	e.HandleBeacon(key.IP, key.UserAgent, e.cfg.BeaconPrefix+"/"+inst.Issued.Key+".jpg")
	if v := e.Classify(key); v.Class != ClassHuman || v.Confidence != Definite {
		t.Fatalf("after a valid input-event key: %v", v)
	}
}

// TestLitePagesForDefiniteHumans is the rule's table: a session whose verdict
// is a definite human is served lite pages, except the views whose hidden
// token is a multiple of fullPageEvery; every other session is served full
// pages, and so is a proven human once robot evidence, or an idle gap that
// ends its session, takes the verdict away.
func TestLitePagesForDefiniteHumans(t *testing.T) {
	const views = 64
	cases := []struct {
		name     string
		setup    func(t *testing.T, e *Engine, vc *clock.Virtual, key session.Key)
		degraded bool
		human    bool // lite unless the view's hidden token picks it full
	}{
		{name: "unknown", setup: func(*testing.T, *Engine, *clock.Virtual, session.Key) {}},
		{name: "valid mouse key", setup: proveHuman, human: true},
		{name: "captcha passed", human: true, setup: func(_ *testing.T, e *Engine, _ *clock.Virtual, key session.Key) {
			e.MarkCaptchaPassed(key)
		}},
		{name: "hidden link on a lite page", setup: func(t *testing.T, e *Engine, vc *clock.Virtual, key session.Key) {
			proveHuman(t, e, vc, key)
			v := serveView(t, e, vc, key, false)
			for !v.lite {
				v = serveView(t, e, vc, key, false)
			}
			hidden := objectPath(jsgen.HiddenPathParts, e.cfg.BeaconPrefix, wire(&v.pk, v.pk.HiddenToken))
			if !bytes.Contains(v.out, []byte(hidden)) {
				t.Fatalf("lite page does not link %s:\n%s", hidden, v.out)
			}
			e.HandleBeacon(key.IP, key.UserAgent, hidden)
			pol := policy.NewEngine(policy.Config{Clock: vc})
			snap, verdict, _ := e.Decide(key)
			action := pol.Evaluate(*snap, verdict).Action
			snap.Release()
			if verdict.Class != ClassRobot || verdict.Confidence != Definite || action != policy.Challenge {
				t.Fatalf("after the hidden link: %v, %v; want a challenged definite robot", verdict, action)
			}
		}},
		{name: "ua mismatch", setup: func(t *testing.T, e *Engine, vc *clock.Virtual, key session.Key) {
			proveHuman(t, e, vc, key)
			e.HandleBeacon(key.IP, key.UserAgent, e.cfg.BeaconPrefix+"/js/1.gif?ua=googlebot%2F2.1")
		}},
		{name: "idle expiry", setup: func(t *testing.T, e *Engine, vc *clock.Virtual, key session.Key) {
			proveHuman(t, e, vc, key)
			vc.Advance(e.cfg.SessionIdleTimeout + time.Second)
			if n := sweepAll(e, vc.Now()); n != 1 {
				t.Fatalf("idle expiry ended %d sessions, want 1", n)
			}
		}},
		{name: "degraded admission", setup: proveHuman, degraded: true, human: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, vc := newTestEngine(Config{Seed: 71})
			key := session.Key{IP: "10.71.0.1", UserAgent: "Mozilla/5.0 (Windows NT 5.1) Firefox/1.5"}
			tc.setup(t, e, vc, key)
			before := e.Stats().PagesLite
			lite, full := 0, 0
			for i := 0; i < views; i++ {
				v := serveView(t, e, vc, key, tc.degraded)
				want := tc.human && v.pk.HiddenToken%fullPageEvery != 0
				if v.lite != want {
					t.Fatalf("view %d (hidden token %d): lite = %v, want %v", i, v.pk.HiddenToken, v.lite, want)
				}
				if v.lite {
					lite++
				} else {
					full++
				}
			}
			if got := e.Stats().PagesLite - before; got != int64(lite) {
				t.Errorf("PagesLite moved by %d over %d lite views", got, lite)
			}
			if tc.human && (lite == 0 || full == 0) {
				t.Errorf("a proven human got %d lite and %d full views of %d: the seed exercises one side of the rule only", lite, full, views)
			}
		})
	}
}

// TestLitePageIsOriginPlusHiddenLink: a lite page is the origin with exactly
// one insertion, the hidden trap link before </body> — no stylesheet, no
// script, no handler attribute that would call a script the page lacks.
func TestLitePageIsOriginPlusHiddenLink(t *testing.T) {
	e, vc := newTestEngine(Config{Seed: 72})
	key := session.Key{IP: "10.72.0.1", UserAgent: "Firefox/1.5"}
	proveHuman(t, e, vc, key)
	v := serveView(t, e, vc, key, false)
	for !v.lite {
		v = serveView(t, e, vc, key, false)
	}
	doc := pageHTML()
	at := bytes.Index(doc, []byte("</body>"))
	link := e.cfg.BeaconPrefix + "/hidden/" + wire(&v.pk, v.pk.HiddenToken) + ".html"
	want := "<a href=" + link + "><img src=" + e.pre.transpImg + " width=1 height=1 border=0 alt></a>"
	got := v.out
	if len(got) != len(doc)+len(want) || !bytes.Equal(got[:at], doc[:at]) ||
		string(got[at:at+len(want)]) != want || !bytes.Equal(got[at+len(want):], doc[at:]) {
		t.Fatalf("lite page is not the origin plus %q before </body>:\n%s", want, got)
	}
	for _, absent := range []string{"onmousemove", "onkeypress", "<script", "stylesheet", "/ua/"} {
		if strings.Count(string(got), absent) != strings.Count(string(doc), absent) {
			t.Errorf("lite page adds %q", absent)
		}
	}
}
