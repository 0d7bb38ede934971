// Package rng provides deterministic, splittable pseudo-random number
// generation and the sampling distributions used throughout the simulator.
//
// Every stochastic component in this repository (traffic agents, workload
// mixes, think times, the CAPTCHA solve model, the complaint model) draws
// from an rng.Source so that experiments are exactly reproducible from a
// single seed. The generator is a 64-bit SplitMix64/xoshiro256** pair
// implemented locally so the repository has no dependency on the evolving
// behaviour of math/rand across Go releases.
package rng

import (
	"fmt"
	"math"
)

// Source is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; use Split to derive independent streams for concurrent
// components.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used for seeding xoshiro256** state as recommended by its authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Two Sources constructed
// from the same seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	state := seed
	for i := range src.s {
		src.s[i] = splitmix64(&state)
	}
	// Avoid the (astronomically unlikely) all-zero state, which is the one
	// invalid state for xoshiro.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives a new Source whose stream is statistically independent of
// the receiver's. The receiver's stream is advanced. Split is the supported
// way to hand independent generators to concurrent goroutines.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

// Fork derives a named sub-stream from the receiver without consuming the
// receiver's stream, so components created in different orders still receive
// stable generators. The same (receiver seed, name) pair always yields the
// same stream.
func (r *Source) Fork(name string) *Source {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	// Mix with the receiver's current state but do not advance it.
	return New(h ^ r.s[0] ^ rotl(r.s[2], 13))
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("rng: Intn called with non-positive n=%d", n))
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed integer in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n=0")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniformly distributed float in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly reorders the first n elements using the provided
// swap function, mirroring math/rand.Shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with the given mean.
// A zero or negative mean returns 0.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		factor := math.Sqrt(-2 * math.Log(s) / s)
		return mean + stddev*u*factor
	}
}

// Pareto returns a Pareto-distributed value with scale xm and shape alpha.
// Web object sizes and session lengths are heavy-tailed; the simulator uses
// Pareto draws for both.
func (r *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		return xm
	}
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return xm / math.Pow(1-u, 1/alpha)
}

// Poisson returns a Poisson-distributed count with the given mean using
// Knuth's method for small means and a normal approximation for large ones.
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		k++
		p *= r.Float64()
		if p <= l {
			return k - 1
		}
	}
}

// WeightedChoice selects index i with probability weights[i]/sum(weights).
// Zero and negative weights are treated as zero. If all weights are zero it
// returns 0.
func (r *Source) WeightedChoice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	target := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	return len(weights) - 1
}

// HexKey returns a lowercase hexadecimal string of n random nibbles. It is
// the generator behind the per-page random keys embedded in rewritten HTML
// (the paper draws k from [0, 2^128-1]; 32 nibbles reproduce that range).
func (r *Source) HexKey(n int) string {
	const hexdigits = "0123456789abcdef"
	if n <= 0 {
		return ""
	}
	buf := make([]byte, n)
	var bits uint64
	remaining := 0
	for i := 0; i < n; i++ {
		if remaining == 0 {
			bits = r.Uint64()
			remaining = 16
		}
		buf[i] = hexdigits[bits&0xf]
		bits >>= 4
		remaining--
	}
	return string(buf)
}

// DigitKeyValue draws n decimal digits and packs them into a uint64
// (most-significant digit first, leading zeros preserved by the fixed
// width), matching the style of the beacon object names shown in the paper
// (e.g. "0729395160.jpg"). It consumes one Intn(10) per digit. n must be at
// most 19 (10^19-1 fits a uint64).
func (r *Source) DigitKeyValue(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v*10 + uint64(r.Intn(10))
	}
	return v
}

// AppendFixedDigits appends v formatted as exactly n decimal digits (zero
// padded) to dst and returns the extended slice: the wire spelling of a
// DigitKeyValue(n) draw. n must be at most 20.
func AppendFixedDigits(dst []byte, v uint64, n int) []byte {
	var buf [20]byte
	for i := n - 1; i >= 0; i-- {
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, buf[:n]...)
}

// ParseFixedDigits parses a string of exactly n decimal digits into the
// uint64 DigitKeyValue would have produced. It reports false when s has the
// wrong length or contains a non-digit, so "007" and "7" never collide.
func ParseFixedDigits(s string, n int) (uint64, bool) {
	if len(s) != n || n > 19 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}
