package workload

import (
	"sync"

	"angstrom/internal/sim"
)

// TraceGen produces the synthetic per-core address stream that drives
// the detailed (trace-driven) cache and coherence simulation. Addresses
// are cache-line granular and split between:
//
//   - a shared region (the spec's SharedWSKB), identical on all cores —
//     this is what coherence protocols fight over; and
//   - a private region (the core's 1/c slice of PrivateWSKB).
//
// Within each region, lines are drawn from a Zipf distribution with the
// spec's locality skew, giving a realistic stack-distance profile: a
// hotter head that fits small caches and a long tail that only large
// caches capture.
type TraceGen struct {
	rng        *sim.RNG
	sharedFrac float64
	sharedZipf *sim.Zipf
	privZipf   *sim.Zipf
	privBase   uint64
	writeFrac  float64
}

// LineBytes is the cache-line size used throughout the simulators.
const LineBytes = 64

// sharedBase is the line address where the shared region starts; private
// regions are placed above it, per core.
const sharedBase = 0

// NewTraceGen builds the address generator for one core of a c-core run.
func NewTraceGen(spec Spec, cores, coreID int, seed uint64) *TraceGen {
	if cores < 1 {
		cores = 1
	}
	sharedLines := int(spec.SharedWSKB * 1024 / LineBytes)
	if sharedLines < 1 {
		sharedLines = 1
	}
	privLines := int(spec.PrivateWSKB * 1024 / float64(cores) / LineBytes)
	if privLines < 1 {
		privLines = 1
	}
	total := spec.SharedWSKB + spec.PrivateWSKB/float64(cores)
	rng := sim.NewRNG(seed).Split(uint64(coreID))
	g := &TraceGen{
		rng:        rng,
		sharedFrac: spec.SharedWSKB / total,
		writeFrac:  0.3,
	}
	g.sharedZipf = sim.NewZipfFromCDF(rng.Split(1), zipfTable(sharedLines, spec.ZipfS))
	g.privZipf = sim.NewZipfFromCDF(rng.Split(2), zipfTable(privLines, spec.ZipfS))
	// Private regions are disjoint across cores and from the shared one.
	g.privBase = uint64(sharedLines) + uint64(coreID)*uint64(privLines)
	return g
}

// Next returns the next access: a line address and whether it writes.
func (g *TraceGen) Next() (line uint64, write bool) {
	write = g.rng.Float64() < g.writeFrac
	if g.rng.Float64() < g.sharedFrac {
		return sharedBase + uint64(g.sharedZipf.Draw()), write
	}
	return g.privBase + uint64(g.privZipf.Draw()), write
}

// zipfCache memoizes Zipf CDF tables by (lines, skew). Every core of a
// c-core trace draws from the same two distributions, and a sweep
// re-visits the same handful of (lines, skew) pairs for every
// configuration, so sharing the tables removes the dominant cost of
// trace-generator construction. The tables are immutable once built;
// sync.Map keeps concurrent sweep workers safe, and a duplicated
// computation under a race is identical, so determinism is unaffected.
var zipfCache sync.Map // zipfKey -> []float64

type zipfKey struct {
	n int
	s float64
}

func zipfTable(n int, s float64) []float64 {
	k := zipfKey{n: n, s: s}
	if t, ok := zipfCache.Load(k); ok {
		return t.([]float64)
	}
	t, _ := zipfCache.LoadOrStore(k, sim.ZipfCDF(n, s))
	return t.([]float64)
}
