package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (xorshift64* core with a splitmix64 seeder). Every stochastic element
// of an experiment draws from an RNG seeded by the experiment so that all
// tables and figures regenerate bit-identically.
//
// RNG is not safe for concurrent use; give each goroutine its own stream
// via Split.
type RNG struct {
	state uint64
	// spare holds a cached second Gaussian deviate from Box-Muller.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 scramble so that small consecutive seeds yield
	// uncorrelated streams.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x853c49e6748fea9b // xorshift state must be nonzero
	}
	r.state = z
	return r
}

// Split derives an independent stream from this one, keyed by id.
// Deterministic: the same (parent seed, id) always yields the same child.
func (r *RNG) Split(id uint64) *RNG {
	return NewRNG(r.state ^ (id+1)*0xd1342543de82ef95)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform deviate in [0, 1).
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

// Norm returns a Gaussian deviate with the given mean and standard
// deviation, using Box-Muller with caching of the second deviate.
func (r *RNG) Norm(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return mean + stddev*u*f
}

// Exp returns an exponential deviate with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Zipf returns an integer in [0, n) drawn from a Zipf-like distribution
// with exponent s (s = 0 is uniform; larger s concentrates mass on small
// indices). It uses inverse-CDF sampling over a shared, precomputed
// harmonic table (ZipfCDF), so repeated draws are cheap.
type Zipf struct {
	cdf []float64
	rng *RNG
}

// ZipfCDF precomputes the harmonic CDF table for [0, n) with exponent
// s. The table depends only on (n, s), so callers building many
// samplers over the same distribution (one per core of a swept
// configuration) can compute it once and share it — the math.Pow loop
// here is by far the expensive part of sampler construction.
func ZipfCDF(n int, s float64) []float64 {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// NewZipfFromCDF wraps a precomputed ZipfCDF table. The table is read,
// never written: any number of samplers may share one.
func NewZipfFromCDF(rng *RNG, cdf []float64) *Zipf {
	if len(cdf) == 0 {
		panic("sim: Zipf with empty CDF")
	}
	return &Zipf{cdf: cdf, rng: rng}
}

// Draw samples one index.
func (z *Zipf) Draw() int {
	u := z.rng.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
