// Package shard holds the sharded client table (Table) that the session
// tracker (keyed by ⟨IP, User-Agent⟩) and the keystore (keyed by IP) are
// built on, and the primitives under it: one normalization rule for shard
// counts, one string hash for shard selection, and one formula for
// distributing a global capacity bound over shards. One copy keeps the two
// tables from drifting to different shard counts, hash seeding or cap
// semantics.
package shard

// DefaultShards is the default shard count. 32 shards keep per-shard lock
// contention negligible up to tens of cores while costing only a few
// hundred bytes of fixed overhead per shard.
const DefaultShards = 32

// Normalize rounds n up to a power of two, applying DefaultShards for
// non-positive values.
func Normalize(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// AutoShards picks a shard count for p-way parallelism (typically
// GOMAXPROCS): four shards per logical CPU — so even a perfectly balanced
// load leaves most shards unlocked at any instant — rounded up to a power of
// two and clamped to [8, 512]. The floor keeps small machines from
// serialising on a couple of locks; the ceiling bounds fixed per-shard
// overhead and full-table sweep time.
func AutoShards(p int) int {
	if p < 1 {
		p = 1
	}
	n := Normalize(4 * p)
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	return n
}

// PerShardCap distributes a global capacity bound evenly over shards:
// ceil(max/shards), at least 1. The effective global bound is therefore max
// rounded up to a multiple of the shard count.
func PerShardCap(max, shards int) int {
	c := (max + shards - 1) / shards
	if c < 1 {
		c = 1
	}
	return c
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashString returns the FNV-1a hash of s, the hash behind every shard
// selection in the pipeline.
func HashString(s string) uint64 {
	return HashStringSeed(fnvOffset64, s)
}

// HashStringSeed folds s into an FNV-1a hash state h, so multi-field keys
// can chain fields (with a separator byte mixed in between) without
// allocating a combined string.
func HashStringSeed(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// MixSeparator folds a field separator into the hash state so that
// boundary-shifted field pairs ("ab","c" vs "a","bc") hash differently.
func MixSeparator(h uint64) uint64 {
	return (h ^ 0xff) * fnvPrime64
}
