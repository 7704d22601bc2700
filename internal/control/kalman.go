// Package control is the control-theory toolbox behind the SEEC decision
// engine (§3.3). The decision engine is layered:
//
//   - a classical feedback controller (Integral) computes the speedup the
//     application needs to meet its goal;
//   - an adaptive layer (Kalman, RLS) estimates the application's base
//     speed and corrects the declared actuator models on line, so the
//     runtime works "without prior knowledge of the application, or when
//     the behavior of the actuator diverges from the predicted behavior";
//   - a machine-learning layer (MW) selects among candidate prior models
//     using multiplicative weights.
//
// A Translator turns the continuous speedup demanded by the controller
// into a minimum-cost schedule over the discrete configuration space.
package control

// Kalman is a scalar Kalman filter estimating an application's base speed
// b(t): the heart rate the application would sustain at speedup 1. The
// measurement model is h(t) = s(t)·b(t) + v(t), where s(t) is the speedup
// the runtime applied during the interval and h(t) the observed heart
// rate; the state model is a random walk, b(t) = b(t−1) + w(t). This is
// the estimator used throughout the SEEC/Heartbeats literature (e.g.
// Maggio et al., CDC 2010).
type Kalman struct {
	x float64 // state estimate: base heart rate b̂
	p float64 // estimate covariance
	q float64 // process noise covariance
	r float64 // measurement noise covariance

	initialized bool
}

// NewKalman builds a filter with the given noise covariances. q controls
// how fast the estimate tracks workload phase changes; r how much a
// single noisy heart-rate sample can move it. It returns the filter by
// value, so an owner can hold it inline.
func NewKalman(q, r float64) Kalman {
	if q <= 0 || r <= 0 {
		panic("control: Kalman covariances must be positive")
	}
	return Kalman{q: q, r: r, p: 1}
}

// Update folds in one measurement: observed heart rate h under applied
// speedup s, and returns the new base-speed estimate. s must be positive.
func (k *Kalman) Update(h, s float64) float64 {
	if s <= 0 {
		return k.x
	}
	if !k.initialized {
		// First sample initializes the state directly. Negative heart
		// rates are measurement noise; the base speed is non-negative.
		k.x = max(h/s, 0)
		k.p = 1
		k.initialized = true
		return k.x
	}
	// Predict.
	pPred := k.p + k.q
	// Update with measurement matrix H = s.
	innov := h - s*k.x
	denom := s*s*pPred + k.r
	gain := pPred * s / denom
	k.x += gain * innov
	if k.x < 0 {
		k.x = 0
	}
	k.p = (1 - gain*s) * pPred
	return k.x
}

// Estimate returns the current base-speed estimate (0 before the first
// update).
func (k *Kalman) Estimate() float64 { return k.x }
