package main

import (
	"math"
	"sort"
	"time"
)

// samples collects one timing distribution. It is appended to by one
// goroutine at a time (each load connection owns its own and they are
// merged after the window), so it carries no lock.
type samples struct {
	ns []int64
}

func (s *samples) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

func (s *samples) merge(o *samples) { s.ns = append(s.ns, o.ns...) }

func (s *samples) len() int { return len(s.ns) }

// sorted returns the samples in ascending order (sorting in place).
func (s *samples) sorted() []int64 {
	sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
	return s.ns
}

// quantile reads the q-quantile (nearest rank) in the given unit, or
// NaN when the distribution is empty: an absent measurement must fail
// the run's completeness check rather than pass as a zero.
func (s *samples) quantile(q float64, unit time.Duration) float64 {
	v := s.sorted()
	if len(v) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i]) / float64(unit)
}

// median of a float slice (NaN when empty); the input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method — the values Python's statistics.quantiles(v, n=4) gives, which
// is what the acceptance driver computes spreads from. NaN below two
// samples.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		// delta is taken after clamping, so the ends extrapolate exactly
		// as the Python routine does.
		delta := float64(k*(n+1) - j*4)
		return (c[j-1]*(4-delta) + c[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}
