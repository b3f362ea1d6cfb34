package sim

import "math"

// RNG is a small, explicit-state pseudo-random generator (splitmix64 +
// xoshiro256** style single stream). The kernel carries its own generator
// instead of math/rand so that traffic models are reproducible by
// construction: every source owns an RNG derived from a user seed, and the
// stream is independent of global state and of the Go release.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. Distinct seeds
// give decorrelated streams (seeds pass through splitmix64 twice before
// use).
func NewRNG(seed uint64) *RNG {
	r := &RNG{state: seed}
	r.next()
	r.next()
	return r
}

// Split derives an independent child generator, used to give each traffic
// source its own stream from one experiment seed.
func (r *RNG) Split() *RNG { return NewRNG(r.next()) }

// DeriveSeed hashes a (campaign seed, run index) pair into the seed of one
// campaign run. Both words pass through the splitmix64 core, so per-run
// streams are decorrelated from each other and from the campaign seed
// itself, yet depend only on the pair: any run of a campaign is replayable
// in isolation from its printed (seed, index) without executing the runs
// before it.
func DeriveSeed(campaign, index uint64) uint64 {
	r := RNG{state: campaign}
	h := r.next()
	r.state ^= index
	r.next()
	return r.next() ^ h
}

// next is splitmix64.
func (r *RNG) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.next() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Norm returns a normally distributed value (Box–Muller).
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return mean + stddev*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
