package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256**, seeded via splitmix64). Every stochastic component in the
// simulator draws from an RNG owned by that component, so simulations are
// reproducible and components are independent of each other's draw order.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Two generators
// with the same seed produce identical sequences.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed across the full state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Fork derives an independent generator from r. The child's stream does not
// overlap r's for any realistic number of draws, and forking does not
// disturb r's own stream beyond consuming two values.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ (r.Uint64() << 1))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
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

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's
// nearly-divisionless method: a draw v maps to the high word of v*n and
// is rejected when the low word falls below 2^64 mod n, which removes the
// modulo bias. That threshold is below n, so it is computed (one
// division) only when the low word is below n too — rarely, for n much
// smaller than 2^64.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Chance is a probability prepared for Hit: the number of the 2^53
// 53-bit draws that count as a hit.
type Chance uint64

// chanceAlways is the Chance of a certain event (p >= 1).
const chanceAlways Chance = 1 << 53

// NewChance prepares p for Hit as ceil(p·2^53), clamped to [0, 2^53].
// For an integer draw x < 2^53, Float64() < p is x/2^53 < p, and both
// sides are exact, so it is x < ceil(p·2^53): Hit(NewChance(p)) is
// Bool(p) on the same draw. NaN panics, since Bool(NaN) draws and never
// hits, which no prepared chance expresses.
func NewChance(p float64) Chance {
	switch {
	case math.IsNaN(p):
		panic("sim: NewChance of NaN")
	case p <= 0:
		return 0
	case p >= 1:
		return chanceAlways
	}
	return Chance(math.Ceil(p * (1 << 53)))
}

// Hit returns true with the prepared probability c. It draws exactly as
// Bool does: nothing for a chance of 0 or 1, one Uint64 otherwise.
func (r *RNG) Hit(c Chance) bool {
	if c-1 >= chanceAlways-1 {
		// c == 0 wraps; c == chanceAlways is certain.
		return c != 0
	}
	return Chance(r.Uint64()>>11) < c
}

// Exp returns an exponentially distributed value with the given mean.
// It is used for Poisson inter-arrival times in workload generators.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := r.Float64()
	// Guard against log(0).
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Perm fills out with a uniform random permutation of [0, len(out)),
// which must not exceed 2^32 elements.
func (r *RNG) Perm(out []uint32) {
	for i := range out {
		out[i] = uint32(i)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
}
