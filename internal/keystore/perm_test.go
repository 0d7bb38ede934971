package keystore

import (
	"testing"
)

// TestPermutationIsABijection maps all of [0, 10^6) through P at the floor
// width under two tweaks and every kind: each image is in the domain, no two
// values share one, and inverting the image gives the value back.
func TestPermutationIsABijection(t *testing.T) {
	const digits = MinKeyDigits
	p, limit := newPerm(permKey(1), digits), pow10(digits)
	var buf permBuf
	for _, tweak := range []uint64{clientTweak("10.0.0.1", 1), clientTweak("10.0.0.1", 2)} {
		for _, kind := range []int{kindCSS, kindKey} {
			seen := make([]bool, limit)
			for x := range limit {
				y := p.permute(&buf, tweak, kind, x)
				if y >= limit || seen[y] {
					t.Fatalf("tweak %#x kind %d: P(%d) = %d: outside the domain or already an image", tweak, kind, x, y)
				}
				seen[y] = true
				if back := p.invert(&buf, tweak, kind, y); back != x {
					t.Fatalf("tweak %#x kind %d: P⁻¹(P(%d)) = %d", tweak, kind, x, back)
				}
			}
		}
	}
}

// TestPermutationSeparatesTweaks: the first page view's real key differs
// between kinds, incarnations, addresses and seeds — each is a different
// permutation of the domain, not a shared one.
func TestPermutationSeparatesTweaks(t *testing.T) {
	var buf permBuf
	p := newPerm(permKey(1), 10)
	base := p.permute(&buf, clientTweak("10.0.0.1", 1), kindKey, 0)
	other := newPerm(permKey(2), 10)
	for name, v := range map[string]uint64{
		"kind":        p.permute(&buf, clientTweak("10.0.0.1", 1), kindScript, 0),
		"incarnation": p.permute(&buf, clientTweak("10.0.0.1", 2), kindKey, 0),
		"address":     p.permute(&buf, clientTweak("10.0.0.2", 1), kindKey, 0),
		"seed":        other.permute(&buf, clientTweak("10.0.0.1", 1), kindKey, 0),
	} {
		if v == base {
			t.Errorf("another %s gives the same value %d", name, v)
		}
	}
}

// FuzzPermutation holds P to being a permutation of the decimal domain at
// every supported width: for any tweak, kind and x < 10^d, P(x) < 10^d and
// P⁻¹(P(x)) = x.
func FuzzPermutation(f *testing.F) {
	for d := MinKeyDigits; d <= MaxKeyDigits; d++ {
		f.Add(uint8(d), uint64(d), uint8(kindKey), pow10(d)-1)
		f.Add(uint8(d), uint64(1)<<63, uint8(kindCSS), uint64(0))
	}
	perms := map[int]perm{}
	f.Fuzz(func(t *testing.T, digits uint8, tweak uint64, kind uint8, x uint64) {
		d := MinKeyDigits + int(digits)%(MaxKeyDigits-MinKeyDigits+1)
		p, ok := perms[d]
		if !ok {
			p = newPerm(permKey(7), d)
			perms[d] = p
		}
		limit := pow10(d)
		x %= limit
		var buf permBuf
		y := p.permute(&buf, tweak, int(kind%4), x)
		if y >= limit {
			t.Fatalf("%d digits: P(%d) = %d, outside the domain", d, x, y)
		}
		if back := p.invert(&buf, tweak, int(kind%4), y); back != x {
			t.Fatalf("%d digits: P⁻¹(P(%d)) = %d", d, x, back)
		}
	})
}

// BenchmarkPermute is one evaluation of P at the default ten digits: ten AES
// blocks and ten reductions, allocation-free with the scratch block passed in.
func BenchmarkPermute(b *testing.B) {
	p := newPerm(permKey(1), 10)
	buf := new(permBuf)
	tweak := clientTweak("10.0.0.1", 1)
	b.ReportAllocs()
	var sink uint64
	for i := range b.N {
		sink += p.permute(buf, tweak, kindKey, uint64(i)&0xffffff)
	}
	if sink == 1 {
		b.Log(sink)
	}
}
