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
	offsets []int // feature offset of each actuator's settings block (the class's)
	nfeat   int

	// rls and the slab cur, prev and diff — the schedule features of the
	// interval just observed, of the interval before it, and their
	// difference, the RLS regressor — are allocated by the first interval
	// observed (see learning): until then nothing is learned, θ is zero,
	// and a runtime that never runs holds none of it.
	rls             control.RLS
	cur, prev, diff []float64
	prevValid       bool
	prevDecl        float64
	prevRate        float64

	updates     int
	lastRebuild int
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

// learning reports whether the corrector has observed an interval, and
// so holds an estimate.
func (c *corrector) learning() bool { return c.cur != nil }

// scheduleFeatures writes the fraction-weighted one-hot features of the
// decision's schedule into c.cur and returns its declared (uncorrected)
// average speedup, reading the declared speedups off points, the table
// the decision's schedule indexes.
func (c *corrector) scheduleFeatures(d Decision, points []actuator.Point) (declared float64) {
	clear(c.cur)
	lo := points[d.Schedule.Lo.ID].Effect.Speedup
	hi := points[d.Schedule.Hi.ID].Effect.Speedup
	declared = d.HiFrac*hi + (1-d.HiFrac)*lo
	for i, setting := range d.LoCfg {
		c.cur[c.offsets[i]+setting] += 1 - d.HiFrac
	}
	for i, setting := range d.HiCfg {
		c.cur[c.offsets[i]+setting] += d.HiFrac
	}
	return declared
}

// observe folds in one completed decision interval: the schedule that was
// executed and the heart rate observed at its end. Learning happens only
// when the declared speedup actually changed between adjacent periods
// (excitation) — steady state carries no identification signal.
func (c *corrector) observe(d Decision, points []actuator.Point, heartRate float64) {
	if heartRate <= 0 {
		c.prevValid = false
		return
	}
	if !c.learning() {
		n := c.nfeat
		c.rls = control.NewRLS(n, correctionForgetting, 0.5)
		slab := make([]float64, 3*n)
		c.cur, c.prev, c.diff = slab[:n:n], slab[n:2*n:2*n], slab[2*n:]
	}
	declared := c.scheduleFeatures(d, points)
	if declared <= 0 {
		c.prevValid = false
		return
	}
	if c.prevValid {
		rel := declared / c.prevDecl
		if math.Abs(rel-1) >= minExcitation {
			y := math.Log(heartRate/c.prevRate) - math.Log(rel)
			if !math.IsNaN(y) && !math.IsInf(y, 0) {
				for i := range c.diff {
					c.diff[i] = c.cur[i] - c.prev[i]
				}
				c.rls.Update(c.diff, y)
				c.updates++
			}
		}
	}
	c.prevValid = true
	c.cur, c.prev = c.prev, c.cur
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

// correctedSpeedup applies the learned residuals to a declared speedup,
// reading them in place. Before the first observed interval θ is zero,
// and declared·exp(0) is declared.
func (c *corrector) correctedSpeedup(cfg actuator.Config, declared float64) float64 {
	if !c.learning() {
		return declared
	}
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
