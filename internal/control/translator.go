package control

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Candidate is one discrete configuration as seen by the translator:
// its (possibly corrected) speedup and power multipliers plus an opaque
// ID the caller maps back to a concrete configuration.
type Candidate struct {
	ID      int
	Speedup float64
	Power   float64
}

// Schedule is the translator's output: run Hi for HiFrac of the decision
// interval and Lo for the remainder. When the demanded speedup lands
// exactly on a candidate, Lo == Hi and HiFrac == 1.
//
// Time-multiplexing between two discrete settings is how SEEC realizes
// fractional speedups ("changing the number of active (or non-idle)
// cycles" is the degenerate one-knob case of the same idea).
type Schedule struct {
	Lo, Hi Candidate
	HiFrac float64
}

// AvgSpeedup is the schedule's time-weighted speedup.
func (s Schedule) AvgSpeedup() float64 {
	return s.HiFrac*s.Hi.Speedup + (1-s.HiFrac)*s.Lo.Speedup
}

// AvgPower is the schedule's time-weighted power multiplier.
func (s Schedule) AvgPower() float64 {
	return s.HiFrac*s.Hi.Power + (1-s.HiFrac)*s.Lo.Power
}

// Translator converts a continuous speedup demand into a minimum-power
// schedule over discrete candidates. It keeps only the lower convex hull
// of the Pareto-optimal (speedup, power) points: any demanded speedup is
// met at minimum average power by time-multiplexing between the two hull
// points that bracket it (power is the time-average of the two vertices,
// and the hull is by construction the lower envelope of such averages).
type Translator struct {
	hull []Candidate // ascending speedup, ascending power, convex
	// own is the storage Rebuild sorts the candidates in and builds the
	// hull in, in place, reused from one Rebuild to the next; hull is a
	// prefix of it. It is nil while hull is another translator's (see
	// Shared).
	own []Candidate
}

// NewTranslator builds a translator. It returns an error if no candidate
// has positive speedup.
func NewTranslator(cands []Candidate) (*Translator, error) {
	t := &Translator{}
	if err := t.Rebuild(cands); err != nil {
		return nil, err
	}
	return t, nil
}

// Shared returns a translator that reads t's hull in place: many owners
// that have not corrected their candidates yet share one hull, and each
// one's first Rebuild builds a hull of its own, leaving t's untouched.
// t must not be rebuilt while it is shared.
func (t *Translator) Shared() Translator { return Translator{hull: t.hull} }

// Rebuild replaces the candidate set, e.g. after the adaptive layer has
// corrected the models. Past its first call it allocates only when the
// candidate set outgrows every earlier one.
func (t *Translator) Rebuild(cands []Candidate) error {
	usable := 0
	for _, c := range cands {
		if c.Speedup > 0 && c.Power > 0 {
			usable++
		}
	}
	if usable == 0 {
		return fmt.Errorf("control: no usable candidates among %d", len(cands))
	}
	if cap(t.own) < usable {
		t.own = make([]Candidate, len(cands))
	}
	pts := t.own[:0:usable]
	for _, c := range cands {
		if c.Speedup > 0 && c.Power > 0 {
			pts = append(pts, c)
		}
	}
	slices.SortFunc(pts, func(a, b Candidate) int {
		if c := cmp.Compare(a.Speedup, b.Speedup); c != 0 {
			return c
		}
		return cmp.Compare(a.Power, b.Power)
	})
	// Pareto pass: strictly increasing power with speedup, dropping
	// dominated points (scan fastest-to-slowest keeping suffix minima).
	// Kept points are written backwards from the end of pts, so they land
	// in ascending order, each at or past the point being scanned.
	w := len(pts)
	minPower := 0.0
	for i := len(pts) - 1; i >= 0; i-- {
		p := pts[i]
		if w == len(pts) || p.Power < minPower {
			if w < len(pts) && pts[w].Speedup == p.Speedup {
				pts[w] = p // cheaper tie replaces
				minPower = p.Power
				continue
			}
			w--
			pts[w] = p
			minPower = p.Power
		}
	}
	// Lower convex hull in (speedup, power), written forwards from the
	// start of pts over the Pareto points pts[w:], never past the point
	// being read: drop points above the segment joining their neighbours.
	hull := pts[:0]
	for _, p := range pts[w:] {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Andrew monotone chain, lower hull: pop b unless a→b→p turns
			// counterclockwise (b strictly below segment a—p).
			cross := (b.Speedup-a.Speedup)*(p.Power-a.Power) -
				(b.Power-a.Power)*(p.Speedup-a.Speedup)
			if cross <= 0 {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, p)
	}
	t.hull = hull
	return nil
}

// MinSpeedup and MaxSpeedup report the translator's achievable range.
func (t *Translator) MinSpeedup() float64 { return t.hull[0].Speedup }

// MaxSpeedup reports the fastest achievable speedup.
func (t *Translator) MaxSpeedup() float64 { return t.hull[len(t.hull)-1].Speedup }

// Translate returns the minimum-average-power schedule whose speedup is
// target. Targets outside the achievable range clamp to the extremes.
func (t *Translator) Translate(target float64) Schedule {
	h := t.hull
	if target <= h[0].Speedup {
		return Schedule{Lo: h[0], Hi: h[0], HiFrac: 1}
	}
	if target >= h[len(h)-1].Speedup {
		last := h[len(h)-1]
		return Schedule{Lo: last, Hi: last, HiFrac: 1}
	}
	// Binary search for the bracketing pair.
	idx := sort.Search(len(h), func(i int) bool { return h[i].Speedup >= target })
	hi := h[idx]
	if hi.Speedup == target {
		return Schedule{Lo: hi, Hi: hi, HiFrac: 1}
	}
	lo := h[idx-1]
	frac := (target - lo.Speedup) / (hi.Speedup - lo.Speedup)
	return Schedule{Lo: lo, Hi: hi, HiFrac: frac}
}
