// Package rng provides a small, fast, deterministic pseudo-random number
// generator (SplitMix64) shared by the simulators in this repository.
// Determinism across runs and platforms matters here: the experiment
// harness compares simulated throughput against analytical model results,
// and reproducible streams make those comparisons stable.
package rng

import "math"

// Source is a SplitMix64 pseudo-random number generator.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return Mix(s.state)
}

// Mix is SplitMix64's finalizer: a bijection on 64-bit words whose every
// output bit depends on every input bit, so inputs that differ in a few
// bits map to unrelated words.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if
// n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	return int(s.Uint64() % uint64(n))
}

// UniformInt returns a uniformly distributed integer in [lo, hi]
// inclusive. It panics if hi < lo.
func (s *Source) UniformInt(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: UniformInt with hi < lo")
	}
	return lo + int64(s.Uint64()%uint64(hi-lo+1))
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Split derives an independent generator from this one, for handing to a
// sub-component without correlating its stream with the parent's.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xD1B54A32D192ED03)
}
