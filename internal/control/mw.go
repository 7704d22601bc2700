package control

import "math"

// MW is a multiplicative-weights expert learner: the machine-learning
// layer of the SEEC decision engine. Each expert is a candidate system
// model (for example, the response profile of a previously seen
// application); each round the runtime scores every expert's prediction
// against the observed behaviour and MW concentrates weight on the
// experts that keep predicting well. This is the mechanism SEEC uses to
// act sensibly on applications "with which it has no prior experience"
// (§3.3) by matching them to known behaviour.
type MW struct {
	w   []float64
	eta float64
}

// NewMW builds a learner over k experts with learning rate eta > 0.
// Weights start uniform.
func NewMW(k int, eta float64) *MW {
	if k <= 0 {
		panic("control: MW with no experts")
	}
	if eta <= 0 {
		panic("control: MW learning rate must be positive")
	}
	w := make([]float64, k)
	for i := range w {
		w[i] = 1 / float64(k)
	}
	return &MW{w: w, eta: eta}
}

// Update applies one round of losses (one per expert; larger = worse,
// typically normalized to [0, 1]) and renormalizes.
func (m *MW) Update(losses []float64) {
	if len(losses) != len(m.w) {
		panic("control: MW loss vector length mismatch")
	}
	sum := 0.0
	for i, l := range losses {
		m.w[i] *= math.Exp(-m.eta * l)
		sum += m.w[i]
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		// Degenerate round (all weights underflowed): reset to uniform
		// rather than propagate NaNs into decisions.
		for i := range m.w {
			m.w[i] = 1 / float64(len(m.w))
		}
		return
	}
	for i := range m.w {
		m.w[i] /= sum
	}
}

// Blend returns the weight-averaged combination of per-expert values,
// e.g. blending several models' speedup predictions.
func (m *MW) Blend(values []float64) float64 {
	if len(values) != len(m.w) {
		panic("control: MW value vector length mismatch")
	}
	s := 0.0
	for i, v := range values {
		s += m.w[i] * v
	}
	return s
}
