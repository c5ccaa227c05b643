package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64-seeded xoshiro256**). Each simulation entity owns its own
// RNG stream so that adding or removing one entity does not perturb the
// random sequence observed by the others — essential for paired
// comparisons between scheduling and bidding strategies on "the same"
// workload.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator deterministically seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 to expand the single word into four state words.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child stream; use one per entity.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
// Used for Poisson inter-arrival times.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// LogUniform returns a value whose logarithm is uniform over
// [log lo, log hi] — the classic heavy-ish tail for parallel job runtimes.
func (r *RNG) LogUniform(lo, hi float64) float64 {
	if lo <= 0 || hi < lo {
		panic("sim: LogUniform requires 0 < lo <= hi")
	}
	return math.Exp(r.Range(math.Log(lo), math.Log(hi)))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
