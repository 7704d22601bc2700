package core

import (
	"fmt"
	"math"

	"angstrom/internal/control"
)

// This file implements the remaining §3.1 goal classes in the decision
// engine. Beyond the performance goals the evaluation exercises, SEEC
// applications can declare power goals ("target average power for a
// given heartrate") and accuracy goals (maximum distortion). The runtime
// honours them by shaping the action space the translator sees:
//
//   - a power goal removes candidates whose (corrected) power multiplier
//     exceeds the cap, then meets as much of the performance goal as the
//     remaining space allows;
//   - an accuracy goal removes candidates whose declared distortion
//     multiplier exceeds the bound (application-level actuators — e.g.
//     algorithm switches [3, 16] — are the usual source of distortion
//     trades).

// SetPowerCap bounds the schedule's power multiplier: the translator
// will only use configurations whose predicted power is at most capX
// times nominal. A cap below the cheapest candidate is rejected. Caps
// derive from the journaled tick epoch, so inside the daemon only tick
// writers (rebalancePowerCaps) may call this.
//
//angstrom:journaled mutator
func (r *Runtime) SetPowerCap(capX float64) error {
	if capX <= 0 {
		return fmt.Errorf("core: non-positive power cap %g", capX)
	}
	cheapest := math.Inf(1)
	for _, p := range r.points {
		cheapest = math.Min(cheapest, p.Effect.PowerX)
	}
	if capX < cheapest {
		return fmt.Errorf("core: power cap %g below the cheapest configuration (%g)", capX, cheapest)
	}
	r.powerCap = capX
	return r.reshape()
}

// ClearPowerCap removes the bound.
//
//lint:allow unusedexport the runtime-decisions golden lifts its power cap through it
func (r *Runtime) ClearPowerCap() error {
	r.powerCap = 0
	return r.reshape()
}

// SetDistortionBound excludes configurations whose composed distortion
// multiplier exceeds bound (1 = nominal quality; higher = worse). The
// bound must keep at least one configuration.
//
//lint:allow unusedexport the distortion bound waits for ROADMAP V/M to decide what a served goal is
func (r *Runtime) SetDistortionBound(bound float64) error {
	if bound <= 0 {
		return fmt.Errorf("core: non-positive distortion bound %g", bound)
	}
	ok := false
	for _, p := range r.points {
		if p.Effect.Distort <= bound {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("core: distortion bound %g excludes every configuration", bound)
	}
	r.distortionBound = bound
	return r.reshape()
}

// ClearDistortionBound removes the bound.
//
//lint:allow unusedexport the distortion bound waits for ROADMAP V/M to decide what a served goal is
func (r *Runtime) ClearDistortionBound() error {
	r.distortionBound = 0
	return r.reshape()
}

// reshape rebuilds the translator over the constrained candidate set.
func (r *Runtime) reshape() error {
	cands := r.constrainedCandidates()
	if len(cands) == 0 {
		return fmt.Errorf("core: goal constraints leave no configurations")
	}
	if err := r.tr.Rebuild(cands); err != nil {
		return err
	}
	// The controller's saturation bounds follow the constrained space.
	r.ctl.SetBounds(r.tr.MinSpeedup(), r.tr.MaxSpeedup())
	return nil
}

// constrainedCandidates filters the corrected candidates through the
// declared power and accuracy constraints.
func (r *Runtime) constrainedCandidates() []control.Candidate {
	all := r.candidates()
	if r.powerCap == 0 && r.distortionBound == 0 {
		return all
	}
	out := all[:0]
	for i, c := range all {
		eff := r.points[i].Effect
		if r.powerCap > 0 && eff.PowerX > r.powerCap {
			continue
		}
		if r.distortionBound > 0 && eff.Distort > r.distortionBound {
			continue
		}
		out = append(out, c)
	}
	return out
}
