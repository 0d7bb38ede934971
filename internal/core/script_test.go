package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"botdetect/internal/agents"
	"botdetect/internal/jsgen"
	"botdetect/internal/keystore"
	"botdetect/internal/session"
	"botdetect/internal/shard"
)

// pageView is one prepared page as a client sees it: who it was served to,
// where its script lives and the real key its first script download drew —
// which every later download must carry.
type pageView struct {
	ip, scriptPath, key string
}

// prepareView serves one page to ip and downloads its script at once, as a
// browser does; that download is what gives the page its keys.
func prepareView(e *Engine, ip, ua, page string, degraded bool) pageView {
	var ps PageState
	adm := AdmitFull
	if degraded {
		adm = AdmitDegraded
	}
	prepareFor(e, adm, ip, ua, &ps)
	inst := describePage(e, ip, ua, &ps)
	return pageView{ip: ip, scriptPath: inst.ScriptPath, key: inst.Issued.Key}
}

// issueView serves one page to ip and stops there: nobody has asked for its
// script, so the page has no keys yet.
func issueView(e *Engine, ip, ua, page string) pageView {
	var ps PageState
	prepareFor(e, AdmitFull, ip, ua, &ps)
	pk := ps.Keys()
	return pageView{ip: ip, scriptPath: objectPath(jsgen.ScriptPathParts, e.cfg.BeaconPrefix, wire(pk, pk.ScriptToken))}
}

// download fetches the view's script as its client and reports whether the
// body is the rendered script carrying the view's real key (engines under
// test run unobfuscated, so the beacon URL is literal) rather than the
// fallback.
func download(t *testing.T, e *Engine, v pageView, ua string) (rendered bool) {
	t.Helper()
	resp, ok := e.HandleBeacon(v.ip, ua, v.scriptPath)
	if !ok || resp.Status != 200 {
		t.Fatalf("script download: ok=%v status=%d", ok, resp.Status)
	}
	defer resp.Done()
	if bytes.Equal(resp.Body, fallbackJS) {
		return false
	}
	if !bytes.Contains(resp.Body, []byte("/"+v.key+".jpg")) {
		t.Fatalf("rendered script does not carry the page's real key %s:\n%s", v.key, resp.Body)
	}
	return true
}

// checkLiveness asserts the invariant the on-demand design buys: the view's
// script renders exactly when its real key still validates. The script is
// fetched first because presenting the key consumes it.
func checkLiveness(t *testing.T, e *Engine, v pageView, ua string, wantLive bool) {
	t.Helper()
	before := e.Stats()
	if got := download(t, e, v, ua); got != wantLive {
		t.Fatalf("script rendered = %v, want %v", got, wantLive)
	}
	e.HandleBeacon(v.ip, ua, e.cfg.BeaconPrefix+"/"+v.key+".jpg")
	after := e.Stats()
	human, unknown := after.MouseBeacons-before.MouseBeacons, after.UnknownBeacons-before.UnknownBeacons
	if wantLive && (human != 1 || unknown != 0) || !wantLive && (human != 0 || unknown != 1) {
		t.Fatalf("real key beacon: human=%d unknown=%d with script live=%v — script and key liveness diverged", human, unknown, wantLive)
	}
	if expired := after.ScriptExpired - before.ScriptExpired; (expired == 1) == wantLive {
		t.Fatalf("ScriptExpired moved by %d with script live=%v", expired, wantLive)
	}
}

// TestKeyDigitsAboveMaxAreClamped: a key is a uint64, so the keystore issues
// at most keystore.MaxKeyDigits digits; the engine must parse script tokens and
// compile templates at that same width, or every index_<token>.js falls back
// and no client can ever prove human.
func TestKeyDigitsAboveMaxAreClamped(t *testing.T) {
	checkKeyDigits(t, "10.26.0.1", 25, keystore.MaxKeyDigits)
}

// TestKeyDigitsBelowMinAreRaised is the same agreement at the other end: the
// keystore raises a width below keystore.MinKeyDigits, and so must the
// engine.
func TestKeyDigitsBelowMinAreRaised(t *testing.T) {
	checkKeyDigits(t, "10.26.0.3", 2, keystore.MinKeyDigits)
}

// checkKeyDigits asks an engine for asked-digit keys and holds it to want:
// the effective config, the key the served script carries, and that key
// proving its client human.
func checkKeyDigits(t *testing.T, ip string, asked, want int) {
	t.Helper()
	const ua = "Firefox/1.5"
	e, _ := newTestEngine(Config{KeyDigits: asked})
	if got := e.Config().KeyDigits; got != want {
		t.Fatalf("effective KeyDigits = %d, want %d", got, want)
	}
	observe(e, ip, ua, "GET", "/", 200, "", time.Time{})
	v := prepareView(e, ip, ua, "/", false)
	if len(v.key) != want {
		t.Fatalf("served script carries the real key %q, want %d digits", v.key, want)
	}
	checkLiveness(t, e, v, ua, true)
	if snap, _ := e.Session(session.Key{IP: ip, UserAgent: ua}); !snap.Signals.Has(session.SignalMouse) || snap.Signals.Has(session.SignalDecoy) {
		t.Fatalf("the downloaded real key did not prove a human: signals %v", snap.Signals)
	}
}

// TestDecoysAboveMaxAreClamped: a page view's header records at most
// keystore.MaxDecoys decoys, so the engine must compile its script templates
// with that many decoy slots too, or a download fills the extra slots by
// cycling the page's decoys and a blind fetcher meets repeated keys.
func TestDecoysAboveMaxAreClamped(t *testing.T) {
	const ip, ua = "10.26.0.2", "Firefox/1.5"
	e, _ := newTestEngine(Config{Decoys: 1000})
	if got := e.Config().Decoys; got != keystore.MaxDecoys {
		t.Fatalf("effective Decoys = %d, want %d", got, keystore.MaxDecoys)
	}
	var ps PageState
	prepareFor(e, AdmitFull, ip, ua, &ps)
	pk, prefix := ps.Keys(), e.cfg.BeaconPrefix
	resp, ok := e.HandleBeacon(ip, ua, objectPath(jsgen.ScriptPathParts, prefix, wire(pk, pk.ScriptToken)))
	if !ok || resp.Status != 200 {
		t.Fatalf("script download: ok=%v status=%d", ok, resp.Status)
	}
	script := string(resp.Body)
	resp.Done()
	real := agents.HandlerBeaconURL(script, string(e.handlerName))
	if beaconKey(prefix, real) == "" {
		t.Fatal("the downloaded script carries no real key")
	}
	slots, distinct := 0, map[string]bool{}
	for _, u := range agents.AllBeaconURLs(script) {
		if k := beaconKey(prefix, u); k != "" && u != real {
			slots++
			distinct[k] = true
		}
	}
	if slots != keystore.MaxDecoys || len(distinct) != keystore.MaxDecoys {
		t.Fatalf("script carries %d decoy beacons, %d distinct; want %d of each", slots, len(distinct), keystore.MaxDecoys)
	}
}

// TestScriptLivenessEqualsKeyLiveness covers every way a page's keys die and
// proves the script dies in the same event — and not before.
func TestScriptLivenessEqualsKeyLiveness(t *testing.T) {
	const ua = "Firefox/1.5"

	t.Run("ttl", func(t *testing.T) {
		e, vc := newTestEngine(Config{SessionIdleTimeout: time.Hour})
		early := prepareView(e, "10.20.0.1", ua, "/a.html", false)
		vc.Advance(40 * time.Minute)
		late := prepareView(e, "10.20.0.1", ua, "/b.html", false)
		stillLive := prepareView(e, "10.20.0.2", ua, "/a.html", false)
		// Nobody asks for this page's script while it lives.
		unasked := issueView(e, "10.20.0.3", ua, "/a.html")
		vc.Advance(30 * time.Minute) // early is 70 min old, late 30 min
		checkLiveness(t, e, early, ua, false)
		checkLiveness(t, e, late, ua, true)
		checkLiveness(t, e, stillLive, ua, true)
		vc.Advance(31 * time.Minute)
		drawn := e.keys.Stats().Drawn
		if resp, _ := e.HandleBeacon(unasked.ip, ua, unasked.scriptPath); !bytes.Equal(resp.Body, fallbackJS) {
			t.Fatalf("first download after the TTL must fall back, got:\n%s", resp.Body)
		}
		if got := e.keys.Stats().Drawn; got != drawn {
			t.Fatalf("a dead page drew keys: drawn %d -> %d", drawn, got)
		}
	})

	t.Run("per-client batch eviction", func(t *testing.T) {
		e, _ := newTestEngine(Config{})
		var views []pageView
		for i := 0; i < 65; i++ { // one past the keystore's 64 batches per client
			views = append(views, prepareView(e, "10.20.1.1", ua, fmt.Sprintf("/p%d.html", i), false))
		}
		checkLiveness(t, e, views[0], ua, false)
		checkLiveness(t, e, views[1], ua, true)
		checkLiveness(t, e, views[64], ua, true)
	})

	t.Run("client-cap eviction", func(t *testing.T) {
		// The keystore shards clients by shard.HashString(ip) and caps each
		// shard at ceil(100000/shards) of them, evicting the least recently
		// used: fill the victim's shard to find out.
		const shards = 4096
		e, _ := newTestEngine(Config{Shards: shards})
		perShard := shard.PerShardCap(100000, shards)
		victim := prepareView(e, "10.20.2.1", ua, "/", false)
		home := shard.HashString(victim.ip) & (shards - 1)
		var last pageView
		for i, filled := 0, 0; filled < perShard; i++ {
			ip := fmt.Sprintf("10.%d.%d.%d", 100+i>>16, (i>>8)&0xff, i&0xff)
			if shard.HashString(ip)&(shards-1) != home {
				continue
			}
			last = prepareView(e, ip, ua, "/", false)
			filled++
		}
		checkLiveness(t, e, victim, ua, false)
		checkLiveness(t, e, last, ua, true)
	})

	t.Run("degraded page", func(t *testing.T) {
		e, vc := newTestEngine(Config{SessionIdleTimeout: time.Hour}) // degraded: 1 decoy of 4, 15 of 60 minutes
		first := prepareView(e, "10.20.3.1", ua, "/a.html", true)
		second := prepareView(e, "10.20.3.2", ua, "/a.html", true)
		full := prepareView(e, "10.20.3.1", ua, "/b.html", false)
		checkLiveness(t, e, first, ua, true) // renders with its single decoy cycled over the slots
		vc.Advance(16 * time.Minute)
		checkLiveness(t, e, second, ua, false)
		checkLiveness(t, e, full, ua, true)
	})
}

// TestKeyBeaconBeforeScriptDownloadIsNotHuman pins the lazy draw at the
// engine: a page's key does not exist until its script is asked for, so a
// client presenting the very value that download would draw — learned here
// from an identically seeded twin engine — before downloading the script is
// guessing, and is marked as a guesser, not as a human.
func TestKeyBeaconBeforeScriptDownloadIsNotHuman(t *testing.T) {
	const ip, ua = "10.21.0.1", "Firefox/1.5"
	twin, _ := newTestEngine(Config{Seed: 19})
	e, _ := newTestEngine(Config{Seed: 19})
	future := prepareView(twin, ip, ua, "/", false) // downloads: the twin's key exists

	if v := issueView(e, ip, ua, "/"); v.scriptPath != future.scriptPath {
		t.Fatalf("twin engines diverged: script %s vs %s", v.scriptPath, future.scriptPath)
	}
	e.HandleBeacon(ip, ua, e.cfg.BeaconPrefix+"/"+future.key+".jpg")
	snap, _ := e.Session(session.Key{IP: ip, UserAgent: ua})
	if snap.Signals.Has(session.SignalMouse) || !snap.Signals.Has(session.SignalDecoy) {
		t.Fatalf("key presented before its script download: signals = %v, want SignalDecoy and no SignalMouse", snap.Signals)
	}
	if st := e.Stats(); st.MouseBeacons != 0 || st.UnknownBeacons != 1 {
		t.Fatalf("stats = %+v, want 0 mouse / 1 unknown beacon", st)
	}
	if n := e.keys.Stats().Drawn; n != 0 {
		t.Fatalf("%d page views drawn before any script download", n)
	}

	// The download draws exactly that value, and from then on it proves an
	// input event.
	if !download(t, e, future, ua) {
		t.Fatal("live script fell back")
	}
	e.HandleBeacon(ip, ua, e.cfg.BeaconPrefix+"/"+future.key+".jpg")
	if st := e.Stats(); st.MouseBeacons != 1 {
		t.Fatalf("stats = %+v, want the key to validate once its script was downloaded", st)
	}
}

// TestScriptTokenIsClientBound: script tokens are client-scoped like keys. A
// token presented from another address gets the fallback, never the issuing
// client's real key — and the download is still a download: the signal is
// marked and the serve and byte counters move exactly as for the owner.
func TestScriptTokenIsClientBound(t *testing.T) {
	const ua = "Firefox/1.5"
	e, _ := newTestEngine(Config{})
	owner := issueView(e, "10.22.0.1", ua, "/")
	thief := "10.22.0.2"

	// The thief asks first: the page has no keys yet, and a stranger's request
	// must not be what draws them.
	resp, _ := e.HandleBeacon(thief, ua, owner.scriptPath)
	if !bytes.Equal(resp.Body, fallbackJS) {
		t.Fatalf("token presented from another address must get the fallback, got:\n%s", resp.Body)
	}
	resp.Done()
	if n := e.keys.Stats().Drawn; n != 0 {
		t.Fatalf("a foreign download drew keys: %d page views drawn", n)
	}
	st := e.Stats()
	if st.ScriptServes != 1 || st.ScriptExpired != 1 || st.AddedBytes != int64(len(fallbackJS)) {
		t.Fatalf("after foreign download: serves=%d expired=%d added=%d", st.ScriptServes, st.ScriptExpired, st.AddedBytes)
	}
	if snap, ok := e.Session(session.Key{IP: thief, UserAgent: ua}); !ok || !snap.Signals.Has(session.SignalJSFile) {
		t.Fatal("foreign download must still mark SignalJSFile on the presenting session")
	}

	resp, _ = e.HandleBeacon(owner.ip, ua, owner.scriptPath)
	if owner.key, _ = scriptKeys(e, string(resp.Body)); owner.key == "" {
		t.Fatalf("the owner must still get the rendered script, got:\n%s", resp.Body)
	}
	rendered := int64(len(resp.Body))
	resp.Done()
	st = e.Stats()
	if st.ScriptServes != 2 || st.ScriptExpired != 1 || st.AddedBytes != int64(len(fallbackJS))+rendered {
		t.Fatalf("after owner download: serves=%d expired=%d added=%d (rendered %d)", st.ScriptServes, st.ScriptExpired, st.AddedBytes, rendered)
	}
	if snap, ok := e.Session(session.Key{IP: owner.ip, UserAgent: ua}); !ok || !snap.Signals.Has(session.SignalJSFile) {
		t.Fatal("owner download must mark SignalJSFile")
	}

	// Once the keys exist the thief still gets nothing of them.
	resp, _ = e.HandleBeacon(thief, ua, owner.scriptPath)
	if !bytes.Equal(resp.Body, fallbackJS) || bytes.Contains(resp.Body, []byte(owner.key)) {
		t.Fatalf("token presented from another address must get the fallback, got:\n%s", resp.Body)
	}
	resp.Done()
	e.HandleBeacon(thief, ua, e.cfg.BeaconPrefix+"/"+owner.key+".jpg")
	if snap, _ := e.Session(session.Key{IP: thief, UserAgent: ua}); snap.Signals.Has(session.SignalMouse) {
		t.Fatal("the owner's key proved the thief human")
	}
}

// TestScriptRenderRace hammers one shard with concurrent page preparation
// (which evicts old batches), script downloads, pool rotation and Done. Every
// body a download holds must stay intact until its Done — a pooled buffer
// handed to two holders shows up as a mutated body here, and as a data race
// under -race.
func TestScriptRenderRace(t *testing.T) {
	const ua = "Firefox/1.5"
	e := New(Config{Seed: 27, Shards: 1})
	stop := make(chan struct{})
	views := make(chan pageView)
	var rendered atomic.Int64
	var wg sync.WaitGroup

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ip := fmt.Sprintf("10.23.0.%d", w)
			var ps PageState
			for i := 0; ; i++ {
				prepareFor(e, AdmitFull, ip, ua, &ps)
				// The producer's own download draws the page's key; every
				// download the readers make must carry that same key.
				inst := describePage(e, ip, ua, &ps)
				v := pageView{ip: ip, scriptPath: inst.ScriptPath, key: inst.Issued.Key}
				if i%8 == 7 {
					// Overrun the per-client batch cap so views in flight die
					// under their downloads.
					for j := 0; j < 64; j++ {
						prepareFor(e, AdmitFull, ip, ua, &ps)
					}
				}
				select {
				case <-stop:
					return
				case views <- v:
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var snap []byte
			for {
				var v pageView
				select {
				case <-stop:
					return
				case v = <-views:
				}
				resp, ok := e.HandleBeacon(v.ip, ua, v.scriptPath)
				if !ok || resp.Status != 200 {
					t.Errorf("script serve failed: ok=%v status=%d", ok, resp.Status)
					return
				}
				if !bytes.Equal(resp.Body, fallbackJS) {
					if !bytes.Contains(resp.Body, []byte("/"+v.key+".jpg")) {
						t.Errorf("rendered script lost its page's real key %s", v.key)
					}
					rendered.Add(1)
				}
				snap = append(snap[:0], resp.Body...)
				runtime.Gosched()
				if !bytes.Equal(snap, resp.Body) {
					t.Error("script body mutated while a download held it")
				}
				resp.Done()
			}
		}()
	}

	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < 100 || rendered.Load() < 200; i++ {
		e.RotateScripts()
		runtime.Gosched()
		if time.Now().After(deadline) {
			t.Errorf("only %d scripts rendered in 20s", rendered.Load())
			break
		}
	}
	close(stop)
	wg.Wait()
	if st := e.Stats(); st.ScriptExpired == 0 {
		t.Errorf("no download raced an eviction (%d rendered): the hammer lost half its point", rendered.Load())
	}
}

// TestScriptDownloadZeroAlloc gates the steady-state script download —
// keystore lookup, variant pick, render into a pooled buffer, Done — at zero
// allocations.
func TestScriptDownloadZeroAlloc(t *testing.T) {
	const ua = "Firefox/1.5"
	e := New(Config{Seed: 31, ObfuscateJS: true, Shards: 1})
	v := prepareView(e, "10.24.0.1", ua, "/hot.html", false)
	fetch := func() {
		resp, _ := e.HandleBeacon(v.ip, ua, v.scriptPath)
		if len(resp.Body) <= len(fallbackJS) {
			t.Fatal("download fell back")
		}
		resp.Done()
	}
	for i := 0; i < 100; i++ {
		fetch()
	}
	allocs := testing.AllocsPerRun(300, fetch)
	if raceEnabled {
		t.Skipf("paths exercised; skipping the ceiling (%.1f allocs/op measured) — allocation accounting differs under -race", allocs)
	}
	if allocs != 0 {
		t.Fatalf("script download allocated %.2f/op, want 0", allocs)
	}
}

// FuzzScriptBeaconPath throws arbitrary index_<anything>.js paths (with
// query strings) at an engine holding live batches: it must never panic,
// anything but a live fixed-width token presented by its owner gets the
// fallback, and a live token always renders the issuing client's key.
func FuzzScriptBeaconPath(f *testing.F) {
	const ua = "Firefox/1.5"
	e, _ := newTestEngine(Config{})
	owner, other := "10.25.0.1", "10.25.0.2"
	keyOf := make(map[string]string) // owner's live script tokens -> real key
	var someToken string
	for i := 0; i < 8; i++ {
		var ps PageState
		prepareFor(e, AdmitFull, owner, ua, &ps)
		iss := describePage(e, owner, ua, &ps).Issued
		keyOf[iss.ScriptToken] = iss.Key
		someToken = iss.ScriptToken
	}
	prepareView(e, other, ua, "/", false)

	f.Add(someToken, "", false)
	f.Add(someToken, "v=1&ua=x", true)
	f.Add(someToken[1:], "", false)
	f.Add(someToken+"0", "", false)
	f.Add("", "", false)
	f.Add("-"+someToken[1:], "", false)
	f.Add(someToken+".js?x=/index_"+someToken, "", false)
	f.Add("../"+someToken, "%00", true)
	f.Add("99999999999999999999", "", false)

	f.Fuzz(func(t *testing.T, token, query string, foreign bool) {
		path := e.cfg.BeaconPrefix + "/index_" + token + ".js"
		if query != "" {
			path += "?" + query
		}
		from := owner
		if foreign {
			from = other
		}
		resp, ok := e.HandleBeacon(from, ua, path)
		if !ok {
			t.Fatalf("%q not handled as an instrumentation path", path)
		}
		defer resp.Done()

		// What the engine will parse: the path up to the first '?', which the
		// fuzzed token may itself contain.
		clean, _, _ := strings.Cut(path, "?")
		tok, isScript := strings.CutSuffix(strings.TrimPrefix(clean, e.cfg.BeaconPrefix+"/index_"), ".js")
		key, live := keyOf[tok]
		switch {
		case isScript && live && !foreign:
			if !bytes.Contains(resp.Body, []byte("/"+key+".jpg")) {
				t.Fatalf("live token %s did not render its client's key %s:\n%s", tok, key, resp.Body)
			}
		case isScript:
			if !bytes.Equal(resp.Body, fallbackJS) {
				t.Fatalf("token %q (foreign=%v) must get the fallback, got:\n%s", tok, foreign, resp.Body)
			}
		}
		for _, k := range keyOf {
			if k != key && bytes.Contains(resp.Body, []byte(k)) {
				t.Fatalf("response to %q leaks real key %s", path, k)
			}
		}
	})
}
