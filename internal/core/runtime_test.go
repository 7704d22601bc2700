package core

import (
	"math"
	"testing"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// testPlatform is a closed-loop harness: a synthetic application whose
// true heart rate is base(t) × trueSpeedup(cfg), beating into a monitor
// as the clock advances. True speedups may deviate from the declared
// actuator models to exercise the adaptive layer.
type testPlatform struct {
	clock *sim.Clock
	mon   *heartbeat.Monitor
	space *actuator.Space
	base  func(t sim.Time) float64
	// trueSpeedup overrides the declared model; nil means "declared is true".
	trueSpeedup func(cfg actuator.Config) float64

	powerIntegral float64 // ∫ power multiplier dt, for cost comparisons
	elapsed       float64
}

func (p *testPlatform) speedup(cfg actuator.Config) float64 {
	if p.trueSpeedup != nil {
		return p.trueSpeedup(cfg)
	}
	return p.space.Effect(cfg).Speedup
}

// run executes d's slices over one period, emitting beats.
func (p *testPlatform) run(d Decision, period float64) {
	for _, sl := range d.Slices(period) {
		rate := p.base(p.clock.Now()) * p.speedup(sl.Cfg)
		end := p.clock.Now() + sl.Duration
		p.powerIntegral += p.space.Effect(sl.Cfg).PowerX * sl.Duration
		p.elapsed += sl.Duration
		for p.clock.Now() < end {
			p.clock.Advance(1 / rate)
			p.mon.Beat()
		}
	}
}

func (p *testPlatform) meanPower() float64 { return p.powerIntegral / p.elapsed }

// twoKnobSpace builds a cores-like knob (speedups 1,2,4 / power 1,2.2,5)
// and a frequency-like knob (speedups 1,1.5 / power 1,1.9).
func twoKnobSpace(t *testing.T) *actuator.Space {
	t.Helper()
	cores := &actuator.Actuator{
		Name: "cores",
		Settings: []actuator.Setting{
			{Label: "1", Effect: actuator.Effect{Speedup: 1, PowerX: 1, Distort: 1}},
			{Label: "2", Effect: actuator.Effect{Speedup: 2, PowerX: 2.2, Distort: 1}},
			{Label: "4", Effect: actuator.Effect{Speedup: 4, PowerX: 5, Distort: 1}},
		},
		Apply: func(int) error { return nil },
		Scope: actuator.GlobalScope,
		Axes:  []actuator.Axis{actuator.Performance, actuator.Power},
	}
	freq := &actuator.Actuator{
		Name: "freq",
		Settings: []actuator.Setting{
			{Label: "slow", Effect: actuator.Effect{Speedup: 1, PowerX: 1, Distort: 1}},
			{Label: "fast", Effect: actuator.Effect{Speedup: 1.5, PowerX: 1.9, Distort: 1}},
		},
		Apply: func(int) error { return nil },
		Scope: actuator.GlobalScope,
		Axes:  []actuator.Axis{actuator.Performance, actuator.Power},
	}
	s, err := actuator.NewSpace(cores, freq)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newHarness(t *testing.T, base func(sim.Time) float64) (*testPlatform, *Runtime) {
	t.Helper()
	clock := sim.NewClock(0)
	mon := heartbeat.New(clock)
	space := twoKnobSpace(t)
	p := &testPlatform{clock: clock, mon: mon, space: space, base: base}
	rt, err := New("app", clock, mon, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p, rt
}

func TestRuntimeRequiresPerformanceGoal(t *testing.T) {
	p, rt := newHarness(t, func(sim.Time) float64 { return 10 })
	_ = p
	if _, err := rt.Step(); err == nil {
		t.Fatal("Step without a performance goal did not error")
	}
}

func TestRuntimeRejectsNilInputs(t *testing.T) {
	clock := sim.NewClock(0)
	if _, err := New("x", clock, nil, nil, Options{}); err == nil {
		t.Fatal("nil inputs accepted")
	}
}

func TestRuntimeConvergesToGoal(t *testing.T) {
	p, rt := newHarness(t, func(sim.Time) float64 { return 10 })
	p.mon.SetPerformanceGoal(28, 32) // target 30, needs speedup 3
	const period = 1.0
	for i := 0; i < 50; i++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		p.run(d, period)
	}
	// Measure the interval-average rate over the last 10 periods (the
	// trailing beat window only reflects the final multiplexed slice).
	before := p.mon.Count()
	t0 := p.clock.Now()
	for i := 0; i < 10; i++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		p.run(d, period)
	}
	avg := float64(p.mon.Count()-before) / (p.clock.Now() - t0)
	if math.Abs(avg-30) > 1.5 {
		t.Fatalf("converged rate = %g, want ~30", avg)
	}
}

func TestRuntimeMinimizesPowerAtGoal(t *testing.T) {
	p, rt := newHarness(t, func(sim.Time) float64 { return 10 })
	p.mon.SetPerformanceGoal(28, 32) // speedup 3 needed
	const period = 1.0
	for i := 0; i < 80; i++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		p.run(d, period)
	}
	// Optimal: multiplex between (2 cores, fast)=3.0 exactly, power 4.18,
	// or blends; cheapest way to get speedup 3 on the hull.
	// Compute the oracle cost over all pure and two-way blends.
	pts := p.space.Points()
	best := math.Inf(1)
	for _, a := range pts {
		if a.Effect.Speedup >= 3 && a.Effect.PowerX < best {
			best = a.Effect.PowerX
		}
		for _, b := range pts {
			if a.Effect.Speedup < 3 && b.Effect.Speedup > 3 {
				frac := (3 - a.Effect.Speedup) / (b.Effect.Speedup - a.Effect.Speedup)
				pw := (1-frac)*a.Effect.PowerX + frac*b.Effect.PowerX
				if pw < best {
					best = pw
				}
			}
		}
	}
	// Steady-state mean power must be within 20% of the oracle blend
	// (transient exploration inflates the long-run mean slightly).
	if p.meanPower() > best*1.2 {
		t.Fatalf("mean power multiplier %.3f, oracle %.3f — not minimizing cost", p.meanPower(), best)
	}
}

func TestRuntimeTracksPhaseChange(t *testing.T) {
	// Base speed halves at t=60: the runtime must re-converge.
	p, rt := newHarness(t, func(ti sim.Time) float64 {
		if ti < 60 {
			return 10
		}
		return 5
	})
	p.mon.SetPerformanceGoal(28, 32)
	const period = 1.0
	for i := 0; i < 60; i++ {
		d, _ := rt.Step()
		p.run(d, period)
	}
	for i := 0; i < 70; i++ {
		d, _ := rt.Step()
		p.run(d, period)
	}
	before := p.mon.Count()
	t0 := p.clock.Now()
	for i := 0; i < 10; i++ {
		d, _ := rt.Step()
		p.run(d, period)
	}
	avg := float64(p.mon.Count()-before) / (p.clock.Now() - t0)
	if math.Abs(avg-30) > 2.0 {
		t.Fatalf("rate after phase change = %g, want ~30", avg)
	}
}

func TestRuntimeSaturatesAtUnreachableGoal(t *testing.T) {
	p, rt := newHarness(t, func(sim.Time) float64 { return 10 })
	p.mon.SetPerformanceGoal(1000, 0) // needs speedup 100; max is 6
	const period = 1.0
	var last Decision
	for i := 0; i < 30; i++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		last = d
		p.run(d, period)
	}
	if last.Schedule.Hi.Speedup < 5.99 || last.HiFrac < 0.99 {
		t.Fatalf("unreachable goal should pin at max speedup; got %+v", last.Schedule)
	}
}

func TestCorrectorLearnsActuatorDeviation(t *testing.T) {
	// The "4 cores" setting actually delivers only 60% of its declared
	// speedup (e.g. sync overhead): true speedup 2.4 instead of 4. Only
	// *relative* speedups are identifiable (a uniform scale is absorbed
	// by the base-speed estimate), so excite the system by alternating
	// the goal between a 2-core and a 4-core operating point and assert
	// the corrected 4c/2c ratio approaches the true 1.2 (= 2 × 0.6)
	// instead of the declared 2.0.
	p, rt := newHarness(t, func(sim.Time) float64 { return 10 })
	p.trueSpeedup = func(cfg actuator.Config) float64 {
		s := p.space.Effect(cfg).Speedup
		if cfg[0] == 2 { // 4-core setting
			s *= 0.6
		}
		return s
	}
	const period = 1.0
	for cycle := 0; cycle < 20; cycle++ {
		if cycle%2 == 0 {
			p.mon.SetPerformanceGoal(19, 21) // pure 2-core point
		} else {
			p.mon.SetPerformanceGoal(39, 41) // pure 4-core point (declared)
		}
		for i := 0; i < 6; i++ {
			d, err := rt.Step()
			if err != nil {
				t.Fatal(err)
			}
			p.run(d, period)
		}
	}
	two := actuator.Config{1, 0}
	four := actuator.Config{2, 0}
	c2 := rt.corr.correctedSpeedup(two, p.space.Effect(two).Speedup)
	c4 := rt.corr.correctedSpeedup(four, p.space.Effect(four).Speedup)
	ratio := c4 / c2
	if math.Abs(ratio-1.2) > 0.3 {
		t.Fatalf("corrected 4c/2c speedup ratio = %g, want ~1.2 (declared 2.0)", ratio)
	}
}

func TestPriorsConcentrateOnMatchingProfile(t *testing.T) {
	clock := sim.NewClock(0)
	mon := heartbeat.New(clock)
	space := twoKnobSpace(t)
	p := &testPlatform{clock: clock, mon: mon, space: space,
		base: func(sim.Time) float64 { return 10 }}
	rt, err := New("app", clock, mon, space, Options{
		Priors: []Prior{{Name: "tiny", BaseRate: 2}, {Name: "match", BaseRate: 10.5}, {Name: "huge", BaseRate: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.SetPerformanceGoal(28, 32)
	for i := 0; i < 20; i++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		p.run(d, 1.0)
	}
	// Blending a unit vector reads back one prior's weight.
	w := make([]float64, 3)
	for i := range w {
		unit := make([]float64, len(w))
		unit[i] = 1
		w[i] = rt.mw.Blend(unit)
	}
	if w[1] < w[0] || w[1] < w[2] {
		t.Fatalf("prior weights = %v, want index 1 dominant", w)
	}
}

func TestDecisionSlices(t *testing.T) {
	d := Decision{
		LoCfg:  actuator.Config{0, 0},
		HiCfg:  actuator.Config{1, 0},
		HiFrac: 0.25,
	}
	sl := d.Slices(4)
	if len(sl) != 2 {
		t.Fatalf("len(Slices) = %d, want 2", len(sl))
	}
	if sl[0].Duration != 3 || sl[1].Duration != 1 {
		t.Fatalf("durations = %g/%g, want 3/1", sl[0].Duration, sl[1].Duration)
	}
	if !sl[0].Cfg.Equal(d.LoCfg) || !sl[1].Cfg.Equal(d.HiCfg) {
		t.Fatal("low-power slice must come first")
	}
	pure := Decision{LoCfg: actuator.Config{1}, HiCfg: actuator.Config{1}, HiFrac: 0.3}
	if got := pure.Slices(4); len(got) != 1 || got[0].Duration != 4 {
		t.Fatalf("equal-config decision must yield a single slice, got %+v", got)
	}
}

func TestUncoordinatedWorseThanSEEC(t *testing.T) {
	// Run the same plant under coordinated SEEC and under uncoordinated
	// per-knob runtimes. The goal (speedup 3.4) is deliberately not
	// achievable by any pure configuration, so the uncoordinated system
	// — which cannot time-multiplex across knobs — must limit-cycle
	// through discrete configurations. Compare the paper's efficiency
	// metric: min(achieved, goal) per unit power.
	runScore := func(uncoordinated bool) float64 {
		clock := sim.NewClock(0)
		mon := heartbeat.New(clock)
		space := twoKnobSpace(t)
		p := &testPlatform{clock: clock, mon: mon, space: space,
			base: func(sim.Time) float64 { return 10 }}
		mon.SetPerformanceGoal(33, 35) // target 34: no pure config hits it
		const period = 1.0
		achieved := 0.0
		steps := 0
		record := func(step int) {
			if step >= 40 {
				achieved += math.Min(p.mon.Observe().WindowRate, 34)
				steps++
			}
		}
		if uncoordinated {
			u, err := NewUncoordinated("app", clock, mon, space, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 160; i++ {
				cfg, _, err := u.Step()
				if err != nil {
					t.Fatal(err)
				}
				p.run(Decision{LoCfg: cfg, HiCfg: cfg, HiFrac: 1}, period)
				record(i)
			}
		} else {
			rt, err := New("app", clock, mon, space, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 160; i++ {
				d, err := rt.Step()
				if err != nil {
					t.Fatal(err)
				}
				p.run(d, period)
				record(i)
			}
		}
		return (achieved / float64(steps)) / p.meanPower()
	}
	seec := runScore(false)
	unc := runScore(true)
	if seec <= unc {
		t.Fatalf("SEEC perf/power %.4f not better than uncoordinated %.4f", seec, unc)
	}
}

func TestStepDeterministic(t *testing.T) {
	run := func() []float64 {
		p, rt := newHarness(t, func(sim.Time) float64 { return 10 })
		p.mon.SetPerformanceGoal(28, 32)
		var trace []float64
		for i := 0; i < 30; i++ {
			d, err := rt.Step()
			if err != nil {
				t.Fatal(err)
			}
			trace = append(trace, d.TargetSpeedup)
			p.run(d, 1.0)
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision trace diverged at step %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestHiFracAlwaysInUnitInterval(t *testing.T) {
	p, rt := newHarness(t, func(ti sim.Time) float64 { return 8 + 4*math.Sin(ti/5) })
	p.mon.SetPerformanceGoal(20, 24)
	for i := 0; i < 100; i++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		if d.HiFrac < 0 || d.HiFrac > 1 {
			t.Fatalf("HiFrac = %g outside [0,1]", d.HiFrac)
		}
		if d.PredictedPower <= 0 {
			t.Fatalf("PredictedPower = %g, want positive", d.PredictedPower)
		}
		p.run(d, 1.0)
	}
}
