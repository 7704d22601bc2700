package control

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The flat RLS and the in-place Translator.Rebuild must reproduce, bit
// for bit, the implementations they replaced: an RLS over a [][]float64
// covariance, and a Rebuild that allocated its sort, Pareto and hull
// slices afresh each call. Copies of those are kept below as references.

// refRLS is the RLS before its state became one slice.
type refRLS struct {
	n       int
	lambda  float64
	theta   []float64
	p       [][]float64
	scratch []float64
}

func newRefRLS(n int, lambda, p0 float64) *refRLS {
	r := &refRLS{n: n, lambda: lambda, theta: make([]float64, n), p: make([][]float64, n), scratch: make([]float64, n)}
	for i := range r.p {
		r.p[i] = make([]float64, n)
		r.p[i][i] = p0
	}
	return r
}

func (r *refRLS) update(x []float64, y float64) float64 {
	pred := 0.0
	for i, xi := range x {
		pred += xi * r.theta[i]
	}
	err := y - pred
	px := r.scratch
	for i := 0; i < r.n; i++ {
		s := 0.0
		for j := 0; j < r.n; j++ {
			s += r.p[i][j] * x[j]
		}
		px[i] = s
	}
	denom := r.lambda
	for i := 0; i < r.n; i++ {
		denom += x[i] * px[i]
	}
	for i := 0; i < r.n; i++ {
		k := px[i] / denom
		r.theta[i] += k * err
	}
	for i := 0; i < r.n; i++ {
		ki := px[i] / denom
		for j := 0; j < r.n; j++ {
			r.p[i][j] = (r.p[i][j] - ki*px[j]) / r.lambda
		}
	}
	return err
}

func TestRLSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(24)
		lambda := []float64{1, 0.995, 0.95}[trial%3]
		p0 := 0.01 + 10*rng.Float64()
		got, want := NewRLS(n, lambda, p0), newRefRLS(n, lambda, p0)
		x := make([]float64, n)
		for step := 0; step < 60; step++ {
			for i := range x {
				switch rng.Intn(3) {
				case 0:
					x[i] = 0 // the corrector's feature differences are mostly zero
				case 1:
					x[i] = rng.Float64() - 0.5
				default:
					x[i] = float64(rng.Intn(3) - 1)
				}
			}
			y := rng.NormFloat64()
			if e, w := got.Update(x, y), want.update(x, y); math.Float64bits(e) != math.Float64bits(w) {
				t.Fatalf("trial %d step %d: prediction error %v, reference %v", trial, step, e, w)
			}
			for i, th := range got.Theta() {
				if math.Float64bits(th) != math.Float64bits(want.theta[i]) {
					t.Fatalf("trial %d step %d: theta[%d] = %v, reference %v", trial, step, i, th, want.theta[i])
				}
				for j := 0; j < n; j++ {
					if g, w := got.buf[n+i*n+j], want.p[i][j]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("trial %d step %d: P[%d][%d] = %v, reference %v", trial, step, i, j, g, w)
					}
				}
			}
		}
	}
}

// refHull is Translator.Rebuild before it reused its buffers.
func refHull(cands []Candidate) []Candidate {
	pts := make([]Candidate, 0, len(cands))
	for _, c := range cands {
		if c.Speedup > 0 && c.Power > 0 {
			pts = append(pts, c)
		}
	}
	if len(pts) == 0 {
		return nil
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Speedup != pts[j].Speedup {
			return pts[i].Speedup < pts[j].Speedup
		}
		return pts[i].Power < pts[j].Power
	})
	pareto := make([]Candidate, 0, len(pts))
	minPower := 0.0
	for i := len(pts) - 1; i >= 0; i-- {
		p := pts[i]
		if len(pareto) == 0 || p.Power < minPower {
			if len(pareto) > 0 && pareto[len(pareto)-1].Speedup == p.Speedup {
				pareto[len(pareto)-1] = p
				minPower = p.Power
				continue
			}
			pareto = append(pareto, p)
			minPower = p.Power
		}
	}
	for i, j := 0, len(pareto)-1; i < j; i, j = i+1, j-1 {
		pareto[i], pareto[j] = pareto[j], pareto[i]
	}
	hull := pareto[:0:0]
	for _, p := range pareto {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
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
	return hull
}

func sameHull(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Speedup) != math.Float64bits(b[i].Speedup) ||
			math.Float64bits(a[i].Power) != math.Float64bits(b[i].Power) {
			return false
		}
	}
	return true
}

// randomCandidates draws n candidates on a coarse grid, so speedup ties,
// exact duplicates and dominated points are common; a few are unusable.
func randomCandidates(rng *rand.Rand, n int) []Candidate {
	out := make([]Candidate, n)
	for i := range out {
		out[i] = Candidate{ID: i, Speedup: float64(rng.Intn(8)) / 2, Power: float64(rng.Intn(8)) / 3}
		if rng.Intn(4) == 0 { // off the grid: real-valued, tie-free
			out[i].Speedup, out[i].Power = 0.1+4*rng.Float64(), 0.1+3*rng.Float64()
		}
	}
	return out
}

func TestTranslatorRebuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		// One translator rebuilt over a candidate set that grows and
		// shrinks, first reading a shared hull it must not write.
		first := randomCandidates(rng, 1+rng.Intn(12))
		src, err := NewTranslator(first)
		if err != nil {
			continue
		}
		srcHull := hullOf(src)
		tr := src.Shared()
		for round := 0; round < 12; round++ {
			n := 1 + rng.Intn(45)
			if round%4 == 3 {
				n = 1 // a single point
			}
			cands := randomCandidates(rng, n)
			want := refHull(cands)
			before := hullOf(&tr)
			err := tr.Rebuild(cands)
			if want == nil {
				if err == nil || !sameHull(hullOf(&tr), before) {
					t.Fatalf("trial %d round %d: no usable candidates: err %v, hull changed %v", trial, round, err, !sameHull(hullOf(&tr), before))
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := hullOf(&tr); !sameHull(got, want) {
				t.Fatalf("trial %d round %d over %v:\n got %v\nwant %v", trial, round, cands, got, want)
			}
			if !sameHull(hullOf(src), srcHull) {
				t.Fatalf("trial %d round %d: rebuilding a shared translator wrote the hull it shared", trial, round)
			}
		}
	}
}

// hullOf copies a translator's retained candidates (ascending speedup).
func hullOf(tr *Translator) []Candidate {
	return append([]Candidate(nil), tr.hull...)
}
