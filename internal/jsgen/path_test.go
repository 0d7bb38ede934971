package jsgen

import (
	"strconv"
	"strings"
	"testing"
)

// uaReportPath is the path the inline script's document.write requests,
// read back out of the emitter itself (InlineUAScriptParts has no
// path-returning sibling: the browser assembles this URL).
func uaReportPath(prefix, arg string) string {
	pre, post := InlineUAScriptParts("", prefix)
	_, path, _ := strings.Cut(pre, "href=")
	_, suf, _ := strings.Cut(post, `+"`)
	suf, _, _ = strings.Cut(suf, ">")
	return strings.TrimPrefix(path, "'") + arg + strings.TrimSuffix(suf, "'")
}

// emit spells obj's path the way the engine and the template compiler do:
// the object's parts around arg. It is what ParsePath inverts.
func emit(obj Object, prefix, arg string) string {
	var pre, suf string
	switch obj {
	case ObjectBeacon:
		pre, suf = BeaconPathParts(prefix)
	case ObjectExecBeacon:
		pre, suf = ExecBeaconPathParts(prefix)
	case ObjectUAReport:
		return uaReportPath(prefix, arg)
	case ObjectHidden:
		pre, suf = HiddenPathParts(prefix)
	case ObjectTransparentImage:
		return TransparentImagePath(prefix)
	case ObjectScript:
		pre, suf = ScriptPathParts(prefix)
	case ObjectCSS:
		pre, suf = CSSPathParts(prefix)
	default:
		return ""
	}
	return pre + arg + suf
}

var fuzzPrefixes = []string{"", DefaultBeaconPrefix, "/x", "/a/b.c", "/js", "/__bd/hidden"}

// FuzzBeaconPathRoundTrip holds the beacon URL grammar to one owner from both
// sides. Forwards: every emitter's output — for the decimal tokens the
// keystore draws, under several prefixes, with and without a query — parses
// back to its object and token. Backwards: arbitrary bytes never panic, and
// whatever parses to an object is exactly what that object's emitter produces
// for the returned token, so no path the engine acts on is one it could not
// have handed out.
func FuzzBeaconPathRoundTrip(f *testing.F) {
	for _, p := range []string{
		"/__bd/1234567890.jpg", "/__bd/js/1234567890.gif?ua=firefox/1.5", "/__bd/ua/77/mozilla/5.0(x11).css",
		"/__bd/hidden/5.html", "/__bd/transp_1x1.gif", "/__bd/index_0000000042.js", "/__bd/31337.css",
		"/__bd/js/1.jpg", "/__bd/ua/1.jpg", "/__bd/hidden/1", "/__bd/js/.gif", "/__bd/", "/__bd", "/__bdx/1.css",
		"/__bd/index_.js?", "/x/ua/.css", "/a/b.c/.jpg", "", "?", "/js/js/js/.gif",
	} {
		f.Add(p, uint64(len(p)), uint8(len(p)))
	}
	f.Fuzz(func(t *testing.T, path string, token uint64, sel uint8) {
		prefix := fuzzPrefixes[int(sel)%len(fuzzPrefixes)]
		tok := strconv.FormatUint(token, 10)
		for obj := ObjectBeacon; obj <= ObjectCSS; obj++ {
			want := tok
			switch obj {
			case ObjectUAReport:
				want = tok + "/firefox/1.5"
			case ObjectTransparentImage:
				want = ""
			}
			for _, query := range []string{"", "ua=firefox/1.5&x=?"} {
				emitted := emit(obj, prefix, want)
				if query != "" {
					emitted += "?" + query
				}
				if o, arg, q, ok := ParsePath(prefix, emitted); !ok || o != obj || arg != want || q != query {
					t.Fatalf("ParsePath(%q, %q) = (%d, %q, %q, %v), want (%d, %q, %q, true)", prefix, emitted, o, arg, q, ok, obj, want, query)
				}
			}
		}

		obj, arg, query, ok := ParsePath(prefix, path)
		effective := prefix
		if effective == "" {
			effective = DefaultBeaconPrefix
		}
		clean, _, _ := strings.Cut(path, "?")
		if under := strings.HasPrefix(clean, effective+"/"); ok != under {
			t.Fatalf("ParsePath(%q, %q): ok = %v, under the prefix: %v", prefix, path, ok, under)
		}
		if obj == ObjectNone {
			if arg != "" {
				t.Fatalf("ParsePath(%q, %q): no object, yet arg %q", prefix, path, arg)
			}
			return
		}
		if !ok {
			t.Fatalf("ParsePath(%q, %q): object %d outside the prefix", prefix, path, obj)
		}
		if emitted := emit(obj, prefix, arg); path != emitted && path != emitted+"?"+query {
			t.Fatalf("ParsePath(%q, %q) = (%d, %q, %q): the emitter gives %q", prefix, path, obj, arg, query, emitted)
		}
	})
}

// TestParsePathZeroAlloc: the parse sits on every request the proxy sees.
func TestParsePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	paths := []string{"/__bd/index_0000000042.js", "/__bd/js/1234567890.gif?ua=firefox/1.5", "/page17.html", "/__bd/1234567890.jpg"}
	if avg := testing.AllocsPerRun(1000, func() {
		for _, p := range paths {
			ParsePath(DefaultBeaconPrefix, p)
		}
	}); avg != 0 {
		t.Fatalf("ParsePath allocates %.1f/op, want 0", avg)
	}
}
