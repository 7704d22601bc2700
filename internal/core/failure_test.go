package core

import (
	"errors"
	"testing"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// Failure injection: the act phase touches real hardware (or a model of
// it), and hardware refuses sometimes. The runtime must surface errors
// without corrupting its control state.

func TestApplyErrorSurfacesAndStateSurvives(t *testing.T) {
	clock := sim.NewClock(0)
	mon := heartbeat.New(clock)
	mon.SetPerformanceGoal(28, 32)

	failNext := false
	sentinel := errors.New("voltage regulator fault")
	knob := &actuator.Actuator{
		Name: "cores",
		Settings: []actuator.Setting{
			{Label: "1", Effect: actuator.Effect{Speedup: 1, PowerX: 1, Distort: 1}},
			{Label: "4", Effect: actuator.Effect{Speedup: 4, PowerX: 5, Distort: 1}},
		},
		Apply: func(int) error {
			if failNext {
				return sentinel
			}
			return nil
		},
		Scope: actuator.GlobalScope,
		Axes:  []actuator.Axis{actuator.Performance, actuator.Power},
	}
	space, err := actuator.NewSpace(knob)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New("app", clock, mon, space, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Healthy step.
	d, err := rt.Step()
	if err != nil {
		t.Fatal(err)
	}
	// Act phase fails: Apply must wrap the hardware error.
	failNext = true
	if err := rt.Space().Apply(d.HiCfg); !errors.Is(err, sentinel) {
		t.Fatalf("Apply error = %v, want wrapped sentinel", err)
	}
	// Recovery: the runtime keeps deciding.
	failNext = false
	clock.Advance(1)
	mon.Beat()
	clock.Advance(0.1)
	mon.Beat()
	if _, err := rt.Step(); err != nil {
		t.Fatalf("Step after apply failure: %v", err)
	}
}

func TestStepWithNoBeatsUsesBootstrapOnly(t *testing.T) {
	clock := sim.NewClock(0)
	mon := heartbeat.New(clock)
	mon.SetPerformanceGoal(10, 12)
	space := twoKnobSpace(t)
	rt, err := New("app", clock, mon, space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No beats at all: Step must not panic or divide by zero, and must
	// produce a valid (if uninformed) schedule.
	for i := 0; i < 5; i++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		if d.HiFrac < 0 || d.HiFrac > 1 {
			t.Fatalf("HiFrac = %g with no observations", d.HiFrac)
		}
		clock.Advance(1)
	}
}

func TestStalledApplicationHoldsEstimate(t *testing.T) {
	// The application beats, converges, then stalls completely (e.g.
	// blocked on IO). The runtime must keep operating on its last
	// estimate rather than exploding.
	p, rt := newHarness(t, func(sim.Time) float64 { return 10 })
	p.mon.SetPerformanceGoal(28, 32)
	for i := 0; i < 30; i++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		p.run(d, 1.0)
	}
	// Stall: time passes, no beats. The controller must ramp its demand
	// monotonically toward maximum speedup — the correct response to a
	// stall — without collapsing or oscillating.
	prev := 0.0
	var last float64
	for i := 0; i < 40; i++ {
		p.clock.Advance(1.0)
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		if d.TargetSpeedup <= 0 {
			t.Fatalf("demand collapsed to %g during stall", d.TargetSpeedup)
		}
		if d.TargetSpeedup < prev-1e-9 {
			t.Fatalf("demand fell from %g to %g during stall", prev, d.TargetSpeedup)
		}
		prev = d.TargetSpeedup
		last = d.TargetSpeedup
	}
	if last < 5 {
		t.Fatalf("demand = %g after a long stall, want ramped toward max (6)", last)
	}
}

func TestZeroLengthWindowDelta(t *testing.T) {
	// Two Steps at the same instant: the delta-rate path must not divide
	// by zero.
	p, rt := newHarness(t, func(sim.Time) float64 { return 10 })
	p.mon.SetPerformanceGoal(28, 32)
	d, err := rt.Step()
	if err != nil {
		t.Fatal(err)
	}
	p.run(d, 1.0)
	if _, err := rt.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Step(); err != nil { // same timestamp as previous
		t.Fatal(err)
	}
}
