package core

import (
	"fmt"
	"strings"
	"testing"

	"botdetect/internal/session"
)

// encodeURIComponent escapes s the way the injected script's
// encodeURIComponent does: every byte of its UTF-8 form except the
// unreserved marks, letters and digits becomes %XX.
func encodeURIComponent(s string) string {
	const hex = "0123456789ABCDEF"
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("-_.!~*'()", c) >= 0 {
			b.WriteByte(c)
			continue
		}
		b.WriteByte('%')
		b.WriteByte(hex[c>>4])
		b.WriteByte(hex[c&15])
	}
	return b.String()
}

// uaReportPaths are the two places a browser reports its agent: the exec
// beacon's ?ua= query value and the ua/<token>/<agent>.css path segment.
func uaReportPaths(prefix, reported string) map[string]string {
	enc := encodeURIComponent(reported)
	return map[string]string{
		"exec beacon query": prefix + "/js/1.gif?ua=" + enc,
		"ua report path":    prefix + "/ua/1/" + enc + ".css",
	}
}

// reportMismatches presents one report as key's client and says whether the
// session is marked as a User-Agent forgery afterwards.
func reportMismatches(e *Engine, key session.Key, path string) bool {
	e.HandleBeacon(key.IP, key.UserAgent, path)
	snap, _ := e.Session(key)
	return snap.Signals.Has(session.SignalUAMismatch)
}

// TestUAReportDecodedOnce: the script reports encodeURIComponent(agent), so
// the engine decodes each report exactly once, the way its place in the URL
// is encoded. A browser whose agent carries "+", a literal "%41", a lone "%",
// spaces or parentheses is not a forgery in either form; a different agent
// still is.
func TestUAReportDecodedOnce(t *testing.T) {
	agents := []string{
		"Foo+Bar/1.0",
		"Foo%41/1.0",
		"Shop 100% Browser/2.0",
		"Mozilla/5.0 (X11; Linux x86_64; rv:115.0) Gecko/20100101 Firefox/115.0",
		"Opera/9.80 (Windows NT 6.1; U; en) Presto/2.2.15 +http://x/%2B",
	}
	e, _ := newTestEngine(Config{MaxSessions: 1024})
	prefix := e.cfg.BeaconPrefix
	n := 0
	for _, ua := range agents {
		// What the script sends: the agent lowercased with its spaces removed,
		// and the agent as is (both normalise alike).
		for _, reported := range []string{session.NormalizeUA(ua), ua} {
			for form, path := range uaReportPaths(prefix, reported) {
				n++
				key := session.Key{IP: fmt.Sprint("10.80.0.", n), UserAgent: ua}
				if reportMismatches(e, key, path) {
					t.Errorf("%s: header %q reported as %q (%s) judged a mismatch", form, ua, reported, path)
				}
			}
		}
		for form, path := range uaReportPaths(prefix, "Googlebot/2.1 (+http://www.google.com/bot.html)") {
			n++
			key := session.Key{IP: fmt.Sprint("10.80.1.", n), UserAgent: ua}
			if !reportMismatches(e, key, path) {
				t.Errorf("%s: header %q reported as a crawler (%s) not judged a mismatch", form, ua, path)
			}
		}
	}
}

// FuzzUAReportRoundTrip: whatever a browser's User-Agent header says, the
// script's encodeURIComponent report of that same agent, in either form,
// never marks the session as a forgery.
func FuzzUAReportRoundTrip(f *testing.F) {
	for _, ua := range []string{"Foo+Bar/1.0", "Foo%41/1.0", "%", "a b(c)", "%zz+%2B", "Mozilla/5.0 (Windows NT 5.1) Firefox/1.5", "Ünïcode/1.0"} {
		f.Add(ua)
	}
	e, _ := newTestEngine(Config{MaxSessions: 1024})
	f.Fuzz(func(t *testing.T, ua string) {
		for form, path := range uaReportPaths(e.cfg.BeaconPrefix, ua) {
			if reportMismatches(e, session.Key{IP: "10.81.0.1", UserAgent: ua}, path) {
				t.Fatalf("%s: header %q reported as %s judged a mismatch", form, ua, path)
			}
		}
	})
}
