package actuator

import "fmt"

// Sweep is the one place an Actuator is tabulated. It builds a
// performance/power actuator by sweeping one setting of a platform model
// through values: rung i is labelled label(values[i]) and declares
// effect(values[i]), except the rung whose value equals nominal — the
// setting the platform holds while the actuator is built, which every
// other effect is relative to — which is pinned to Nominal() without
// consulting the model. effect supplies the arithmetic (which model,
// which base, which floors); apply receives the rung index, like
// Actuator.Apply and Knob.SetLevel. This is the designer-declared model
// of §3.2: xeon.Server, angstrom.Chip and the serving daemon (chip-backed
// and advisory) tabulate their knobs through it, and NewLadder declares
// its rungs through it. A nil apply declares the settings only (see
// Actuator.Apply).
func Sweep(name string, values []int, nominal int, delaySeconds float64, scope Scope,
	label func(v int) string, effect func(v int) (Effect, error), apply func(level int) error) (*Actuator, error) {
	a := &Actuator{
		Name:         name,
		Settings:     make([]Setting, len(values)),
		NominalIndex: -1,
		Apply:        apply,
		DelaySeconds: delaySeconds,
		Scope:        scope,
		Axes:         []Axis{Performance, Power},
	}
	for i, v := range values {
		eff := Nominal()
		if v == nominal {
			a.NominalIndex = i
		} else {
			var err error
			if eff, err = effect(v); err != nil {
				return nil, err
			}
		}
		a.Settings[i] = Setting{Label: label(v), Value: v, Effect: eff}
	}
	if a.NominalIndex < 0 {
		return nil, fmt.Errorf("actuator %q: nominal value %d not among its settings", name, nominal)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Range returns lo, lo+1, ..., hi: the value list of a knob whose
// settings are consecutive integers (core counts, P-state indices).
func Range(lo, hi int) []int {
	out := make([]int, 0, max(hi-lo+1, 0))
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// NewLadder builds a software-only actuator from parallel slices of
// speedup and power multipliers: a monotone "ladder" of settings with no
// Apply, driving no hardware. This is the
// shape of an advisory knob — a serving daemon decides the rung, and the
// remote application (or operator) reads it back through the decision
// interface and actuates on its side. Setting i's declared effect is
// (speedup[i], power[i]); the rung where both are 1 is nominal.
func NewLadder(name string, labels []string, speedup, power []float64) (*Actuator, error) {
	if len(labels) != len(speedup) || len(labels) != len(power) {
		return nil, fmt.Errorf("actuator %q: ladder slices disagree (%d labels, %d speedups, %d powers)",
			name, len(labels), len(speedup), len(power))
	}
	nominal := -1
	for i := range labels {
		if speedup[i] == 1 && power[i] == 1 {
			nominal = i
		}
	}
	if nominal < 0 {
		return nil, fmt.Errorf("actuator %q: no nominal rung (speedup and power both 1)", name)
	}
	return Sweep(name, Range(0, len(labels)-1), nominal, 0, ApplicationScope,
		func(i int) string { return labels[i] },
		func(i int) (Effect, error) { return Effect{Speedup: speedup[i], PowerX: power[i], Distort: 1}, nil },
		nil)
}
