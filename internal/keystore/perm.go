package keystore

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math/bits"

	"botdetect/internal/rng"
	"botdetect/internal/shard"
)

// The keyed permutation every token and key is a value of (see the package
// doc): a Feistel network after NIST SP 800-38G's FF1 on AES-128, over the
// decimal domain [0, 10^d) itself. The d digits split into a high half of
// ⌊d/2⌋ and a low half of ⌈d/2⌉ digits; round r adds the round function of
// one half into the other modulo that half's power of ten (the high half's on
// even rounds, the low half's on odd ones), so every round maps the domain
// onto itself and P never cycle-walks: one AES block per round.
const permRounds = 10

// The tweak kinds. A page view's three object tokens are values of P under
// the first three, its keys values under kindKey.
const (
	kindCSS = iota
	kindScript
	kindHidden
	kindKey
)

// perm is P for one digit count. The round function is the AES encryption
// of the 16-byte block [u64 half | round<<48 | kind<<56][u64 tweak] — a half
// is below 10^10 < 2^48, so the block is injective in (half, round, kind,
// tweak) — whose first eight bytes, read as a fraction of 2^64, are scaled to
// the modulus: the high word of one multiplication instead of a 64-bit
// division, with the same bias, under m/2^64 ≤ 2^-30.
type perm struct {
	block cipher.Block
	mods  [2]uint64 // 10^⌊d/2⌋ and 10^⌈d/2⌉: the high and the low half
}

// permBuf is the AES input and output one permutation works in. A stack
// array handed to cipher.Block escapes to the heap, so the store keeps one
// per shard, used under the shard's lock, padded to its own cache line.
type permBuf struct {
	in, out [aes.BlockSize]byte
	_       [64 - 2*aes.BlockSize]byte
}

// permKey derives the 16-byte AES key from the store's seed: a fixed seed
// gives the same tokens and keys on every run, and the keys are exactly as
// secret as the seed.
func permKey(seed uint64) (key [16]byte) {
	src := rng.New(seed).Fork("keystore")
	binary.LittleEndian.PutUint64(key[:8], src.Uint64())
	binary.LittleEndian.PutUint64(key[8:], src.Uint64())
	return key
}

// newPerm returns P over [0, 10^digits) under key; digits is 2 to
// MaxKeyDigits.
func newPerm(key [16]byte, digits int) perm {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	return perm{block: block, mods: [2]uint64{pow10(digits / 2), pow10(digits - digits/2)}}
}

// clientTweak is the tweak of every value issued to one incarnation of one
// client: its incarnation and a 32-bit fold of its address's FNV-1a hash.
func clientTweak(clientIP string, incarnation uint32) uint64 {
	h := shard.HashString(clientIP)
	return uint64(incarnation)<<32 | uint64(uint32(h^h>>32))
}

// round is the round function: F(half), a value below mod, under the tweak
// already in buf.
func (p *perm) round(buf *permBuf, kind, r int, half, mod uint64) uint64 {
	binary.LittleEndian.PutUint64(buf.in[:8], half|uint64(r)<<48|uint64(kind)<<56)
	p.block.Encrypt(buf.out[:], buf.in[:])
	f, _ := bits.Mul64(binary.LittleEndian.Uint64(buf.out[:8]), mod)
	return f
}

// permute returns P(x) under (tweak, kind); x must be below 10^digits.
// Round r maps (a, b) to (b, a + F(b) mod m), m the modulus of a's half.
func (p *perm) permute(buf *permBuf, tweak uint64, kind int, x uint64) uint64 {
	binary.LittleEndian.PutUint64(buf.in[8:], tweak)
	a, b := x/p.mods[1], x%p.mods[1]
	for r := range permRounds {
		m := p.mods[r%2]
		c := a + p.round(buf, kind, r, b, m)
		if c >= m {
			c -= m
		}
		a, b = b, c
	}
	return a*p.mods[1] + b
}

// invert returns P⁻¹(y) under (tweak, kind); y must be below 10^digits.
func (p *perm) invert(buf *permBuf, tweak uint64, kind int, y uint64) uint64 {
	binary.LittleEndian.PutUint64(buf.in[8:], tweak)
	a, b := y/p.mods[1], y%p.mods[1]
	for r := permRounds - 1; r >= 0; r-- {
		m := p.mods[r%2]
		f := p.round(buf, kind, r, a, m)
		if b < f {
			b += m
		}
		a, b = b-f, a
	}
	return a*p.mods[1] + b
}
