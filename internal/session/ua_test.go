package session

import "testing"

// uaPairs are agent-string pairs on both sides of every branch of
// SameNormalizedUA: case and space differences, prefixes, all-space strings,
// and non-ASCII runes whose lowercase form changes length or is ASCII.
var uaPairs = [][2]string{
	{"Mozilla/5.0 (X11; Linux)", "mozilla/5.0(x11;linux)"},
	{"Firefox/1.5", "firefox/1.5"},
	{"Firefox/1.5", "firefox/1.6"},
	{"Firefox", "Firefox/1.5"},
	{"  a b ", "ab"},
	{"   ", ""},
	{"", "x"},
	{"\u212a", "k"},       // Kelvin sign lowercases to ASCII 'k'
	{"\u0130", "i\u0307"}, // dotted capital I lowercases to two runes
	{"\xff", "\ufffd"},    // invalid UTF-8 lowercases to U+FFFD
	{"caf\u00c9", "caf\u00e9"},
	{"A\tB", "a\tb"},
}

func TestSameNormalizedUA(t *testing.T) {
	for _, p := range uaPairs {
		want := NormalizeUA(p[0]) == NormalizeUA(p[1])
		if got := SameNormalizedUA(p[0], p[1]); got != want {
			t.Errorf("SameNormalizedUA(%q, %q) = %v, NormalizeUA says %v", p[0], p[1], got, want)
		}
	}
	if a := testing.AllocsPerRun(100, func() {
		SameNormalizedUA("Mozilla/5.0 (X11; Linux x86_64) Firefox/115.0", "mozilla/5.0(x11;linuxx86_64)firefox/115.0")
	}); a != 0 && !raceEnabled {
		t.Errorf("ASCII comparison allocates %.1f objects/op, want 0", a)
	}
}

// FuzzSameNormalizedUA holds the allocation-free comparison against its
// reference, NormalizeUA(a) == NormalizeUA(b), on arbitrary bytes.
func FuzzSameNormalizedUA(f *testing.F) {
	for _, p := range uaPairs {
		f.Add(p[0], p[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		want := NormalizeUA(a) == NormalizeUA(b)
		if got := SameNormalizedUA(a, b); got != want {
			t.Fatalf("SameNormalizedUA(%q, %q) = %v, NormalizeUA says %v", a, b, got, want)
		}
		if got := SameNormalizedUA(b, a); got != want {
			t.Fatalf("SameNormalizedUA(%q, %q) = %v, NormalizeUA says %v", b, a, got, want)
		}
	})
}
