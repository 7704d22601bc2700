// Package oracle implements the comparison policies of §5.2 as pure
// selection procedures over evaluated configuration spaces:
//
//   - the best *non-adaptive* configuration ("all applications use the
//     same number of cores and the same clock speed") — the single
//     configuration that meets every application's target at least
//     power;
//   - the *static oracle*, which provisions once per application;
//   - the *dynamic oracle*, which re-selects every interval with perfect
//     knowledge of the next interval's workload ("computed after the fact
//     by post processing empirical data") — the normalization target of
//     Figure 3.
//
// The uncoordinated baseline is not here: it is a composition of SEEC
// runtimes (core.Uncoordinated), because its defining property is its
// control structure, not a selection rule.
package oracle

import "math"

// Point is one configuration's evaluated behaviour for one application:
// the heart rate it delivers and its power beyond idle.
type Point struct {
	Rate  float64
	Power float64
}

// Metric is the paper's efficiency measure: min(achieved, target) per
// Watt beyond idle. Unphysical inputs — non-positive power, NaN rate or
// target — score 0, so a corrupt sample can never win a selection by
// propagating NaN through the comparisons (NaN compares false against
// everything, which would freeze any running maximum over scores).
func Metric(p Point, target float64) float64 {
	if p.Power <= 0 || math.IsNaN(p.Rate) || math.IsNaN(target) || math.IsNaN(p.Power) {
		return 0
	}
	return math.Min(p.Rate, target) / p.Power
}

// BestMeeting returns the index of the minimum-power point whose rate
// meets the target. If no point meets it, ok is false and the index of
// the highest-rate point is returned (the best-effort fallback any real
// provisioner would take). Empty input returns (-1, false). NaN rates
// never meet a target and never win the fallback (every comparison
// against NaN is false), so a slice of all-NaN points also returns
// (-1, false); a NaN target is met by nothing and falls back.
func BestMeeting(points []Point, target float64) (idx int, ok bool) {
	idx = -1
	bestPower := math.Inf(1)
	bestRate := math.Inf(-1)
	bestRateIdx := -1
	for i, p := range points {
		if p.Rate >= target && p.Power < bestPower {
			idx, bestPower = i, p.Power
		}
		if p.Rate > bestRate {
			bestRate, bestRateIdx = p.Rate, i
		}
	}
	if idx >= 0 {
		return idx, true
	}
	return bestRateIdx, false
}

// BestMeetingAll returns the single configuration that meets every
// application's target at minimum power — the best *valid* non-adaptive
// system (§5.2: "all applications use the same number of cores and the
// same clock speed"; a configuration that misses goals is not doing the
// job SEEC is being compared on). If no configuration meets all targets,
// it falls back to the one meeting the most, cheapest first. Empty
// input — no applications, or applications with no evaluated
// configurations — returns -1.
func BestMeetingAll(points [][]Point, targets []float64) int {
	if len(points) == 0 {
		return -1
	}
	nCfg := len(points[0])
	bestIdx := -1
	bestMet := -1
	bestPower := math.Inf(1)
	for c := 0; c < nCfg; c++ {
		met := 0
		power := 0.0
		for a := range points {
			if points[a][c].Rate >= targets[a] {
				met++
			}
			power += points[a][c].Power
		}
		if met > bestMet || (met == bestMet && power < bestPower) {
			bestIdx, bestMet, bestPower = c, met, power
		}
	}
	return bestIdx
}
