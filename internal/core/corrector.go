package core

import (
	"math"

	"angstrom/internal/actuator"
	"angstrom/internal/control"
)

// corrector is the actuator-model half of the adaptive layer (§3.3): it
// learns, on line, how far each actuator setting's *actual* speedup
// deviates from its declared multiplier, and exposes corrected speedups
// for the translator.
//
// Identifiability dictates the learning signal. A single observation
// h = b·s cannot separate workload (b) from model error (s): the Kalman
// filter absorbs any constant discrepancy into b̂. What *is* identifiable
// is the relative speedup across a schedule change: between two adjacent
// decision periods the workload has barely drifted, so
//
//	log(h_t / h_{t−1}) ≈ log(S_t / S_{t−1}) + (f_t − f_{t−1})·δ
//
// where S is the declared schedule speedup, f is the schedule's
// fraction-weighted one-hot setting feature vector, and δ the per-setting
// log-corrections, estimated by recursive least squares. The common
// offset per actuator lies in the RLS null space and stays at zero, which
// is exactly right: a uniform rescaling of all speedups is absorbed by b̂
// and never affects decisions.
type corrector struct {
	space   *actuator.Space
	offsets []int // feature offset of each actuator's settings block
	rls     *control.RLS
	nfeat   int

	prevValid bool
	prevFeat  []float64
	prevDecl  float64
	prevRate  float64

	updates     int
	lastRebuild int
	features    []float64 // scratch buffer
}

// rebuildEvery is how many corrector updates accumulate before the
// translator's candidate table is refreshed. Rebuilding is O(space);
// doing it every update would chase noise.
const rebuildEvery = 8

// correctionClamp bounds |δ| per setting so one noisy interval cannot
// invert the model.
const correctionClamp = 0.7

// minExcitation is the minimum relative declared-speedup change between
// adjacent periods for the pair to carry identification signal.
const minExcitation = 0.02

// correctionForgetting is the RLS forgetting factor: observations lose
// half their weight in about 140 updates.
const correctionForgetting = 0.995

func newCorrector(space *actuator.Space) *corrector {
	c := &corrector{space: space}
	c.offsets = make([]int, len(space.Acts))
	n := 0
	for i, a := range space.Acts {
		c.offsets[i] = n
		n += len(a.Settings)
	}
	c.nfeat = n
	c.rls = control.NewRLS(n, correctionForgetting, 0.5)
	c.features = make([]float64, n)
	c.prevFeat = make([]float64, n)
	return c
}

// scheduleFeatures returns the fraction-weighted one-hot features of the
// decision's schedule and its declared (uncorrected) average speedup.
func (c *corrector) scheduleFeatures(d Decision) (feat []float64, declared float64) {
	feat = make([]float64, c.nfeat)
	lo := c.space.Effect(d.LoCfg).Speedup
	hi := c.space.Effect(d.HiCfg).Speedup
	declared = d.HiFrac*hi + (1-d.HiFrac)*lo
	for i, setting := range d.LoCfg {
		feat[c.offsets[i]+setting] += 1 - d.HiFrac
	}
	for i, setting := range d.HiCfg {
		feat[c.offsets[i]+setting] += d.HiFrac
	}
	return feat, declared
}

// observe folds in one completed decision interval: the schedule that was
// executed and the heart rate observed at its end. Learning happens only
// when the declared speedup actually changed between adjacent periods
// (excitation) — steady state carries no identification signal.
func (c *corrector) observe(d Decision, heartRate float64) {
	if heartRate <= 0 {
		c.prevValid = false
		return
	}
	feat, declared := c.scheduleFeatures(d)
	if declared <= 0 {
		c.prevValid = false
		return
	}
	if c.prevValid {
		rel := declared / c.prevDecl
		if math.Abs(rel-1) >= minExcitation {
			y := math.Log(heartRate/c.prevRate) - math.Log(rel)
			if !math.IsNaN(y) && !math.IsInf(y, 0) {
				for i := range c.features {
					c.features[i] = feat[i] - c.prevFeat[i]
				}
				c.rls.Update(c.features, y)
				c.updates++
			}
		}
	}
	c.prevValid = true
	copy(c.prevFeat, feat)
	c.prevDecl = declared
	c.prevRate = heartRate
}

// dirty reports whether enough updates accumulated to justify rebuilding
// the translator, and resets the trigger.
func (c *corrector) dirty() bool {
	if c.updates-c.lastRebuild >= rebuildEvery {
		c.lastRebuild = c.updates
		return true
	}
	return false
}

// correctedSpeedup applies the learned residuals to a declared speedup.
func (c *corrector) correctedSpeedup(cfg actuator.Config, declared float64) float64 {
	theta := c.rls.Theta()
	sum := 0.0
	for i, setting := range cfg {
		d := theta[c.offsets[i]+setting]
		if d > correctionClamp {
			d = correctionClamp
		}
		if d < -correctionClamp {
			d = -correctionClamp
		}
		sum += d
	}
	return declared * math.Exp(sum)
}
