// Package stats provides the deterministic random-number, sampling, and
// summary-statistics substrate used throughout the repository.
//
// Every stochastic component in the simulator (trace generation, overlay
// construction, workload sampling) draws from the RNG defined here rather
// than math/rand so that simulations are reproducible bit-for-bit across
// runs and across Go releases, and so that parallel components can be given
// independent, non-overlapping streams via Split.
package stats

// RNG is a deterministic pseudo-random number generator implementing
// xoshiro256** seeded through splitmix64. The zero value is not usable;
// construct with NewRNG.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output.
// It is used only for seeding, per the xoshiro authors' recommendation.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator whose full 256-bit state is derived from seed.
// Two RNGs built from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	r.s0 = splitmix64(&st)
	r.s1 = splitmix64(&st)
	r.s2 = splitmix64(&st)
	r.s3 = splitmix64(&st)
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent generator from r. The child stream is a
// deterministic function of r's state, and deriving it advances r, so
// successive Splits yield distinct streams. Use one Split per goroutine to
// keep parallel simulations reproducible regardless of scheduling.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
