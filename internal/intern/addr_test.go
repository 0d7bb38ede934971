package intern

import "testing"

// TestAddrForms pins which address strings a record keeps inline and which
// it interns, and that every one rebuilds to itself: canonical IPv4 and
// IPv6 addresses are inline, and an IPv4 address and its IPv4-mapped IPv6
// spelling share 16 bytes but not a family; a leading zero, a zone, upper
// case, a spelling netip prints otherwise, a name and "" are interned. A
// lookup finds an interned address only while a reference holds it.
func TestAddrForms(t *testing.T) {
	in := New(2)
	cases := []struct {
		s      string
		inline bool
	}{
		{"1.2.3.4", true},
		{"::ffff:1.2.3.4", true},
		{"2001:db8::1", true},
		{"::", true},
		{"010.0.0.1", false},
		{"fe80::1%eth0", false},
		{"2001:DB8::1", false},
		{"0::1", false},
		{"client-1", false},
		{"", false},
	}
	seen := map[Addr]string{}
	for _, c := range cases {
		a := in.Addr(c.s)
		if _, ok := ParseAddr(c.s); ok != c.inline || (a.kind != addrInterned) != c.inline {
			t.Errorf("%q: inline %v (kind %d), want %v", c.s, ok, a.kind, c.inline)
		}
		if got := in.AddrString(a); got != c.s {
			t.Errorf("%q rebuilds to %q", c.s, got)
		}
		if other, dup := seen[a]; dup {
			t.Errorf("%q and %q build one Addr", c.s, other)
		}
		seen[a] = c.s
		if got, ok := in.LookupAddr(c.s); !ok || got != a {
			t.Errorf("LookupAddr(%q) = %v, %v, want %v", c.s, got, ok, a)
		}
	}
	for a := range seen {
		in.ReleaseAddr(a)
	}
	if _, ok := in.LookupAddr("client-1"); ok || in.Stats().Entries != 0 {
		t.Fatalf("released addresses are still interned: %+v", in.Stats())
	}
}
