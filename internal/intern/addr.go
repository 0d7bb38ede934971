package intern

import (
	"encoding/binary"
	"net/netip"
	"strings"
)

// Addr is a client address held by value, with no pointer for the garbage
// collector to follow: 17 bytes that a client table keeps in its records
// instead of the address string. A canonical IP address — one netip parses
// and prints back to the same bytes, so no zone — is its 16 bytes and its
// family; any other string is the Handle of its interned copy. Two Addrs
// built from strings are equal exactly when the strings are: "1.2.3.4" and
// "::ffff:1.2.3.4" have one 16-byte form and differ in family, and
// "010.0.0.1", "fe80::1%eth0" and "" do not parse as canonical and are
// interned. The zero Addr is no address.
type Addr struct {
	b    [16]byte
	kind uint8
}

const (
	addrNone     uint8 = iota // the zero Addr
	addrV4                    // b is the IPv4-mapped form
	addrV6                    // b is the IPv6 address
	addrInterned              // b[:8] is the Handle of the string, little-endian
)

// ParseAddr returns s's Addr when s is a canonical IP address, the form that
// needs no interner.
func ParseAddr(s string) (Addr, bool) {
	if strings.IndexByte(s, '%') >= 0 {
		// A zone: netip would copy it into its cache (package unique) first,
		// and a client writes it, up to a header line long.
		return Addr{}, false
	}
	ip, err := netip.ParseAddr(s)
	if err != nil {
		return Addr{}, false
	}
	if ip.Is4() {
		// netip reads only the dotted quad without leading zeros, the
		// spelling String prints: no other string parses to this address.
		return Addr{b: ip.As16(), kind: addrV4}, true
	}
	var buf [64]byte
	if string(ip.AppendTo(buf[:0])) != s {
		return Addr{}, false // "::FFFF:1.2.3.4", "0::1": the same address spelled otherwise
	}
	return Addr{b: ip.As16(), kind: addrV6}, true
}

func interned(h Handle) Addr {
	a := Addr{kind: addrInterned}
	binary.LittleEndian.PutUint64(a.b[:], uint64(h))
	return a
}

func (a Addr) handle() Handle {
	if a.kind != addrInterned {
		return 0
	}
	return Handle(binary.LittleEndian.Uint64(a.b[:]))
}

// Addr returns s's Addr, interning s when it is not a canonical IP address:
// the caller then owns a reference, which ReleaseAddr drops.
func (in *Interner) Addr(s string) Addr {
	if a, ok := ParseAddr(s); ok {
		return a
	}
	return interned(in.Intern(s))
}

// LookupAddr is Addr without taking a reference: ok is false when s is not a
// canonical IP address and not interned, so no record holds it (see Lookup).
func (in *Interner) LookupAddr(s string) (Addr, bool) {
	if a, ok := ParseAddr(s); ok {
		return a, true
	}
	h, ok := in.Lookup(s)
	return interned(h), ok
}

// ReleaseAddr drops the reference Addr took, if it took one.
func (in *Interner) ReleaseAddr(a Addr) { in.Release(a.handle()) }

// AddrString returns the string a was built from. It allocates for an IP
// address and reads the interner for any other: it rebuilds keys off the hot
// path.
func (in *Interner) AddrString(a Addr) string {
	switch a.kind {
	case addrV4:
		return netip.AddrFrom16(a.b).Unmap().String()
	case addrV6:
		return netip.AddrFrom16(a.b).String()
	case addrInterned:
		return in.String(a.handle())
	}
	return ""
}
