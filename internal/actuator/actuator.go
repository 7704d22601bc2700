// Package actuator implements the SEEC action interface of §3.2: a single,
// general description of an adaptation that any layer of the stack —
// application, system software, or the Angstrom hardware — can register so
// that the runtime decision engine can coordinate it with every other
// registered adaptation.
//
// An actuator is "a data object with: a name, a list of allowable
// settings, a function that changes the setting, a set of axes which the
// actuator affects (e.g., performance and power), and the effects of each
// setting on each axis. These effects are listed as multipliers over a
// nominal setting, whose effects are 1 on all axes. Each actuator
// specifies a delay ... [and] whether it works on only the application
// that registered it or if it works on all applications." (§3.2)
//
// An Actuator and the Space built from it are that declaration, read-only
// once NewSpace returns: the settings, their effects and the sorted
// cross product a Space materializes are fixed per (application class,
// platform) by the designer, so a server tabulates each class's space
// once and every runtime of the class decides over it. What a setting
// is on the platform is not part of the declaration: a driver that can
// read the platform's configuration (the chip-backed daemon's act
// phase) steps its Knobs itself, and Apply is only for drivers that
// move a setting by declaring it (the experiments and examples).
package actuator

import (
	"errors"
	"fmt"
)

// Axis identifies a behavioural dimension an actuator can affect.
type Axis int

const (
	// Performance is application speed (heart rate multiplier).
	Performance Axis = iota
	// Power is system power draw (multiplier over nominal active power).
	Power
	// Accuracy is application output quality (distortion multiplier).
	Accuracy
)

// String implements fmt.Stringer for diagnostics.
func (a Axis) String() string {
	switch a {
	case Performance:
		return "performance"
	case Power:
		return "power"
	case Accuracy:
		return "accuracy"
	default:
		return fmt.Sprintf("axis(%d)", int(a))
	}
}

// Scope says which applications an actuator affects (§3.2 final sentence).
type Scope int

const (
	// ApplicationScope actuators (e.g. an algorithm switch) affect only
	// the registering application.
	ApplicationScope Scope = iota
	// GlobalScope actuators (e.g. core allocation, DVFS) affect the whole
	// system.
	GlobalScope
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	if s == ApplicationScope {
		return "application"
	}
	return "global"
}

// Effect is the predicted multiplicative impact of one setting relative to
// the actuator's nominal setting. A nominal setting has all multipliers 1.
type Effect struct {
	Speedup float64 // performance axis
	PowerX  float64 // power axis
	Distort float64 // accuracy axis (1 = nominal quality)
}

// Nominal is the identity effect.
func Nominal() Effect { return Effect{Speedup: 1, PowerX: 1, Distort: 1} }

// Mul composes two effects (multipliers multiply).
func (e Effect) Mul(o Effect) Effect {
	return Effect{
		Speedup: e.Speedup * o.Speedup,
		PowerX:  e.PowerX * o.PowerX,
		Distort: e.Distort * o.Distort,
	}
}

// Setting is one allowable position of the knob.
type Setting struct {
	// Label names the setting for reports, e.g. "2.4GHz" or "8 cores".
	Label string
	// Value is the raw knob value handed to the apply function.
	Value int
	// Effect is the designer-declared multiplier vector for this setting.
	Effect Effect
}

// Actuator is one registered adaptation.
type Actuator struct {
	// Name identifies the actuator in reports and error messages.
	Name string
	// Settings are the allowable positions, in ascending knob order.
	Settings []Setting
	// NominalIndex is the index of the setting whose effects are 1.
	NominalIndex int
	// Apply changes the underlying system to the setting with the given
	// index. It must be idempotent. Nil declares a setting nothing drives
	// through Set: an advisory rung, which the application reads back and
	// actuates on its side, or a knob its driver steps itself.
	Apply func(settingIndex int) error
	// DelaySeconds is the actuation delay: the time between Apply and the
	// effects becoming observable (§3.2).
	DelaySeconds float64
	// Scope says whether the actuator affects one application or all.
	Scope Scope
	// Axes lists which axes this actuator affects; effects on unlisted
	// axes must be 1.
	Axes []Axis
}

// Validate checks the declaration for internal consistency. NewSpace and
// Sweep reject invalid actuators, so downstream code can assume these
// invariants.
func (a *Actuator) Validate() error {
	if a.Name == "" {
		return errors.New("actuator: empty name")
	}
	if len(a.Settings) == 0 {
		return fmt.Errorf("actuator %q: no settings", a.Name)
	}
	if a.NominalIndex < 0 || a.NominalIndex >= len(a.Settings) {
		return fmt.Errorf("actuator %q: nominal index %d out of range [0,%d)",
			a.Name, a.NominalIndex, len(a.Settings))
	}
	nom := a.Settings[a.NominalIndex].Effect
	if nom.Speedup != 1 || nom.PowerX != 1 || nom.Distort != 1 {
		return fmt.Errorf("actuator %q: nominal setting effect %+v is not identity",
			a.Name, nom)
	}
	if a.DelaySeconds < 0 {
		return fmt.Errorf("actuator %q: negative delay %g", a.Name, a.DelaySeconds)
	}
	affects := make(map[Axis]bool, len(a.Axes))
	for _, ax := range a.Axes {
		affects[ax] = true
	}
	for i, s := range a.Settings {
		e := s.Effect
		if e.Speedup <= 0 || e.PowerX <= 0 || e.Distort <= 0 {
			return fmt.Errorf("actuator %q setting %d: non-positive multiplier %+v",
				a.Name, i, e)
		}
		if !affects[Performance] && e.Speedup != 1 {
			return fmt.Errorf("actuator %q setting %d: speedup %g declared without performance axis",
				a.Name, i, e.Speedup)
		}
		if !affects[Power] && e.PowerX != 1 {
			return fmt.Errorf("actuator %q setting %d: power %g declared without power axis",
				a.Name, i, e.PowerX)
		}
		if !affects[Accuracy] && e.Distort != 1 {
			return fmt.Errorf("actuator %q setting %d: distortion %g declared without accuracy axis",
				a.Name, i, e.Distort)
		}
	}
	return nil
}

// Set applies the setting with the given index (a nil Apply has nothing
// to drive).
func (a *Actuator) Set(index int) error {
	if index < 0 || index >= len(a.Settings) {
		return fmt.Errorf("actuator %q: setting index %d out of range [0,%d)",
			a.Name, index, len(a.Settings))
	}
	if a.Apply == nil {
		return nil
	}
	if err := a.Apply(index); err != nil {
		return fmt.Errorf("actuator %q: apply setting %d: %w", a.Name, index, err)
	}
	return nil
}

// EffectOf returns the declared effect of setting index i.
func (a *Actuator) EffectOf(i int) Effect { return a.Settings[i].Effect }
