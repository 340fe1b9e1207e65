// Package xrand provides a small deterministic pseudo-random number
// generator used to build reproducible synthetic molecular systems and for
// randomized tests. It is a SplitMix64-seeded xoshiro256** generator —
// fast, with well-understood statistical quality, and stable across Go
// releases (unlike math/rand's default source ordering guarantees).
package xrand

import "math"

// RNG is a deterministic random number generator. The zero value is not
// valid; use New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, so that nearby
// seeds still produce uncorrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// FromState reconstructs a generator from a state previously returned by
// State, continuing its stream exactly where it left off. The all-zero
// state is not a valid xoshiro256** state and never produced by State.
func FromState(s [4]uint64) *RNG { return &RNG{s: s} }

// State returns the generator's internal state for checkpointing. Pass it
// to FromState to resume the identical stream.
func (r *RNG) State() [4]uint64 { return r.s }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	// Marsaglia polar method: no trig, no rejection loop surprises.
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
