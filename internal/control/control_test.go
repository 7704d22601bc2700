package control

import (
	"math"
	"testing"
	"testing/quick"

	"angstrom/internal/sim"
)

func TestKalmanConvergesOnConstantBase(t *testing.T) {
	k := NewKalman(0.01, 0.1)
	const b = 7.5
	rng := sim.NewRNG(1)
	for i := 0; i < 500; i++ {
		s := 1 + rng.Float64()*3
		h := b*s + rng.Norm(0, 0.05)
		k.Update(h, s)
	}
	if got := k.Estimate(); math.Abs(got-b) > 0.3 {
		t.Fatalf("estimate = %g, want ~%g", got, b)
	}
}

func TestKalmanTracksStepChange(t *testing.T) {
	k := NewKalman(0.05, 0.1)
	for i := 0; i < 100; i++ {
		k.Update(10*2.0, 2.0) // b = 10
	}
	for i := 0; i < 100; i++ {
		k.Update(20*2.0, 2.0) // b jumps to 20
	}
	if got := k.Estimate(); math.Abs(got-20) > 1 {
		t.Fatalf("estimate after step = %g, want ~20", got)
	}
}

func TestKalmanFirstSampleInitializes(t *testing.T) {
	k := NewKalman(0.01, 0.1)
	if got := k.Update(15, 3); math.Abs(got-5) > 1e-12 {
		t.Fatalf("first update estimate = %g, want 5", got)
	}
}

func TestKalmanIgnoresNonPositiveSpeedup(t *testing.T) {
	k := NewKalman(0.01, 0.1)
	k.Update(10, 2)
	before := k.Estimate()
	k.Update(123, 0)
	if k.Estimate() != before {
		t.Fatal("update with s=0 changed the estimate")
	}
}

func TestKalmanNeverNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		k := NewKalman(0.05, 0.1)
		for i := 0; i < 200; i++ {
			h := rng.Norm(1, 2) // may be negative
			s := 0.5 + rng.Float64()*3
			if k.Update(h, s) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKalmanPanicsOnBadCovariances(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKalman(0, 1) did not panic")
		}
	}()
	NewKalman(0, 1)
}

func TestIntegralDeadbeatConvergesInOneStep(t *testing.T) {
	// pole 0 with an exact base estimate must reach the goal in one step.
	c := NewIntegral(0, 0.1, 100)
	const b = 5.0
	goal := 40.0
	s := c.s
	h := b * s
	s = c.Step(goal, h, b)
	h = b * s
	if math.Abs(h-goal) > 1e-9 {
		t.Fatalf("heart rate after one deadbeat step = %g, want %g", h, goal)
	}
}

func TestIntegralConvergesWithPole(t *testing.T) {
	c := NewIntegral(0.5, 0.1, 100)
	const b = 3.0
	goal := 30.0
	h := b * c.s
	for i := 0; i < 60; i++ {
		s := c.Step(goal, h, b)
		h = b * s
	}
	if math.Abs(h-goal) > 0.01 {
		t.Fatalf("converged heart rate = %g, want %g", h, goal)
	}
}

func TestIntegralSaturates(t *testing.T) {
	c := NewIntegral(0, 1, 4)
	s := c.Step(1000, 0, 1) // demands huge speedup
	if s != 4 {
		t.Fatalf("signal = %g, want saturation at 4", s)
	}
	s = c.Step(0, 1000, 1) // demands huge slowdown
	if s != 1 {
		t.Fatalf("signal = %g, want saturation at 1", s)
	}
}

func TestIntegralHoldsWithoutEstimate(t *testing.T) {
	c := NewIntegral(0.2, 1, 8)
	c.SetSignal(3)
	if got := c.Step(10, 5, 0); got != 3 {
		t.Fatalf("signal moved to %g on zero estimate, want hold at 3", got)
	}
}

func TestIntegralSetBoundsClamps(t *testing.T) {
	c := NewIntegral(0.2, 1, 8)
	c.SetSignal(8)
	c.SetBounds(1, 4)
	if c.s != 4 {
		t.Fatalf("signal = %g after shrinking bounds, want 4", c.s)
	}
}

func TestIntegralPanicsOnBadPole(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pole=1 did not panic")
		}
	}()
	NewIntegral(1, 1, 2)
}

func TestTranslatorExactHit(t *testing.T) {
	tr, err := NewTranslator([]Candidate{
		{ID: 0, Speedup: 1, Power: 1},
		{ID: 1, Speedup: 2, Power: 3},
		{ID: 2, Speedup: 4, Power: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Translate(2)
	if s.Hi.ID != 1 || s.HiFrac != 1 {
		t.Fatalf("Translate(2) = %+v, want pure config 1", s)
	}
}

func TestTranslatorInterpolates(t *testing.T) {
	tr, err := NewTranslator([]Candidate{
		{ID: 0, Speedup: 1, Power: 1},
		{ID: 1, Speedup: 3, Power: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Translate(2)
	if math.Abs(s.AvgSpeedup()-2) > 1e-12 {
		t.Fatalf("AvgSpeedup = %g, want 2", s.AvgSpeedup())
	}
	if math.Abs(s.AvgPower()-3) > 1e-12 {
		t.Fatalf("AvgPower = %g, want 3 (linear blend)", s.AvgPower())
	}
	if s.Lo.ID != 0 || s.Hi.ID != 1 || math.Abs(s.HiFrac-0.5) > 1e-12 {
		t.Fatalf("schedule = %+v, want half/half of 0 and 1", s)
	}
}

func TestTranslatorClampsOutOfRange(t *testing.T) {
	tr, _ := NewTranslator([]Candidate{
		{ID: 0, Speedup: 1, Power: 1},
		{ID: 1, Speedup: 2, Power: 2},
	})
	if s := tr.Translate(0.1); s.Hi.ID != 0 || s.HiFrac != 1 {
		t.Fatalf("below-range target: %+v, want pure slowest", s)
	}
	if s := tr.Translate(99); s.Hi.ID != 1 || s.HiFrac != 1 {
		t.Fatalf("above-range target: %+v, want pure fastest", s)
	}
}

func TestTranslatorDropsDominatedAndNonConvex(t *testing.T) {
	tr, err := NewTranslator([]Candidate{
		{ID: 0, Speedup: 1, Power: 1},
		{ID: 1, Speedup: 2, Power: 10}, // above the 1→4 chord: never min-power
		{ID: 2, Speedup: 2, Power: 12}, // dominated by 1 outright
		{ID: 3, Speedup: 4, Power: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	hull := hullOf(tr)
	if len(hull) != 2 || hull[0].ID != 0 || hull[1].ID != 3 {
		t.Fatalf("hull = %+v, want only configs 0 and 3", hull)
	}
	// The schedule for speedup 2 must multiplex 0 and 3, not use config 1.
	s := tr.Translate(2)
	want := 1 + (8.0-1.0)/3.0 // chord at speedup 2
	if math.Abs(s.AvgPower()-want) > 1e-9 {
		t.Fatalf("AvgPower = %g, want %g (chord)", s.AvgPower(), want)
	}
}

func TestTranslatorRejectsEmpty(t *testing.T) {
	if _, err := NewTranslator(nil); err == nil {
		t.Fatal("empty candidate set accepted")
	}
	if _, err := NewTranslator([]Candidate{{Speedup: -1, Power: 1}}); err == nil {
		t.Fatal("all-invalid candidate set accepted")
	}
}

func TestTranslatorScheduleMeetsTargetProperty(t *testing.T) {
	// Property: for random candidate sets, any in-range target is met
	// exactly (time-weighted) and the schedule's power never exceeds the
	// cheapest single config that meets the target.
	f := func(raw []struct{ S, P uint8 }, tsel uint8) bool {
		if len(raw) < 2 {
			return true
		}
		cands := make([]Candidate, len(raw))
		for i, r := range raw {
			cands[i] = Candidate{ID: i, Speedup: 0.5 + float64(r.S)/32, Power: 0.5 + float64(r.P)/32}
		}
		tr, err := NewTranslator(cands)
		if err != nil {
			return true
		}
		target := tr.MinSpeedup() +
			(tr.MaxSpeedup()-tr.MinSpeedup())*float64(tsel)/255
		sch := tr.Translate(target)
		if math.Abs(sch.AvgSpeedup()-target) > 1e-9 {
			return false
		}
		bestSingle := math.Inf(1)
		for _, c := range cands {
			if c.Speedup >= target && c.Power < bestSingle {
				bestSingle = c.Power
			}
		}
		return sch.AvgPower() <= bestSingle+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRLSRecoversLinearModel(t *testing.T) {
	rls := NewRLS(3, 1.0, 100)
	truth := []float64{2, -1, 0.5}
	rng := sim.NewRNG(4)
	for i := 0; i < 400; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0.0
		for j := range x {
			y += truth[j] * x[j]
		}
		rls.Update(x, y+rng.Norm(0, 0.01))
	}
	got := rls.Theta()
	for j := range truth {
		if math.Abs(got[j]-truth[j]) > 0.05 {
			t.Fatalf("theta[%d] = %g, want ~%g", j, got[j], truth[j])
		}
	}
}

func TestRLSForgettingTracksDrift(t *testing.T) {
	rls := NewRLS(1, 0.95, 100)
	for i := 0; i < 200; i++ {
		rls.Update([]float64{1}, 5)
	}
	for i := 0; i < 200; i++ {
		rls.Update([]float64{1}, 9)
	}
	if got := rls.Theta()[0]; math.Abs(got-9) > 0.1 {
		t.Fatalf("theta after drift = %g, want ~9", got)
	}
}

func TestRLSUpdateReturnsPriorError(t *testing.T) {
	rls := NewRLS(1, 1, 10)
	e := rls.Update([]float64{1}, 4)
	if math.Abs(e-4) > 1e-12 {
		t.Fatalf("first error = %g, want 4 (theta starts at 0)", e)
	}
}

func TestRLSPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero features": func() { NewRLS(0, 1, 1) },
		"bad lambda":    func() { NewRLS(1, 0, 1) },
		"bad p0":        func() { NewRLS(1, 1, 0) },
		"bad predict":   func() { r := NewRLS(2, 1, 1); r.Predict([]float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMWConcentratesOnBestExpert(t *testing.T) {
	m := NewMW(3, 0.5)
	for i := 0; i < 50; i++ {
		m.Update([]float64{1.0, 0.1, 0.8}) // expert 1 is consistently best
	}
	if w := m.w; w[1] < 0.95 {
		t.Fatalf("weight on best expert = %g, want > 0.95", w[1])
	}
}

func TestMWWeightsSumToOneProperty(t *testing.T) {
	f := func(losses [][3]uint8) bool {
		m := NewMW(3, 0.3)
		for _, l := range losses {
			m.Update([]float64{float64(l[0]) / 255, float64(l[1]) / 255, float64(l[2]) / 255})
			sum := 0.0
			for _, w := range m.w {
				if w < 0 {
					return false
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMWBlend(t *testing.T) {
	m := NewMW(2, 0.5)
	got := m.Blend([]float64{10, 20})
	if math.Abs(got-15) > 1e-12 {
		t.Fatalf("uniform blend = %g, want 15", got)
	}
}

func TestMWRecoversFromUnderflow(t *testing.T) {
	m := NewMW(2, 100)
	for i := 0; i < 200; i++ {
		m.Update([]float64{50, 50}) // drives all weights to zero
	}
	sum := 0.0
	for _, w := range m.w {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum = %g after underflow, want 1", sum)
	}
}

func TestMWPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no experts":  func() { NewMW(0, 1) },
		"bad eta":     func() { NewMW(2, 0) },
		"bad lengths": func() { NewMW(2, 1).Update([]float64{1}) },
		"bad blend":   func() { NewMW(2, 1).Blend([]float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestClosedLoopKalmanIntegral exercises the two layers together the way
// the runtime composes them: unknown base speed, noisy measurements.
func TestClosedLoopKalmanIntegral(t *testing.T) {
	rng := sim.NewRNG(99)
	kf := NewKalman(0.01, 0.5)
	ctl := NewIntegral(0.3, 0.5, 16)
	const trueBase = 4.0
	goal := 24.0
	var h float64
	for i := 0; i < 200; i++ {
		s := ctl.s
		h = trueBase*s + rng.Norm(0, 0.1)
		b := kf.Update(h, s)
		ctl.Step(goal, h, b)
	}
	if math.Abs(h-goal) > 1.0 {
		t.Fatalf("closed-loop heart rate = %g, want ~%g", h, goal)
	}
}
