package control

// Integral is the classical control layer of the SEEC decision engine: a
// pole-placed integral controller on the speedup applied to the
// application. With the first-order model h(t) = b·s(t), the closed loop
//
//	s(t+1) = s(t) + (1 − pole)·e(t)/b̂,   e(t) = goal − h(t)
//
// places the closed-loop pole at `pole`: pole = 0 is deadbeat (converges
// in one step when b̂ is exact), values toward 1 trade convergence speed
// for robustness to estimation error. See Maggio et al. (CDC 2010) and
// the SEEC technical report.
type Integral struct {
	pole float64
	s    float64 // current control signal (speedup)
	min  float64 // actuator floor
	max  float64 // actuator ceiling
}

// NewIntegral builds a controller with the given pole in [0, 1) and
// control-signal saturation bounds 0 < min <= max. It returns the
// controller by value, so an owner can hold it inline.
func NewIntegral(pole, min, max float64) Integral {
	if pole < 0 || pole >= 1 {
		panic("control: pole must be in [0, 1)")
	}
	if min <= 0 || max < min {
		panic("control: invalid saturation bounds")
	}
	return Integral{pole: pole, s: min, min: min, max: max}
}

// Step computes the next speedup demand from the goal heart rate, the
// observed heart rate, and the current base-speed estimate. A
// non-positive estimate leaves the signal unchanged (no information).
// The signal saturates at the actuator bounds (anti-windup: the integral
// state is the clamped signal itself).
func (c *Integral) Step(goal, observed, baseEstimate float64) float64 {
	if baseEstimate <= 0 {
		return c.s
	}
	e := goal - observed
	c.s += (1 - c.pole) * e / baseEstimate
	if c.s < c.min {
		c.s = c.min
	}
	if c.s > c.max {
		c.s = c.max
	}
	return c.s
}

// SetSignal forces the control signal (used when the runtime knows the
// platform was reconfigured externally).
func (c *Integral) SetSignal(s float64) {
	if s < c.min {
		s = c.min
	}
	if s > c.max {
		s = c.max
	}
	c.s = s
}

// SetBounds updates the saturation bounds, clamping the current signal
// into the new range.
func (c *Integral) SetBounds(min, max float64) {
	if min <= 0 || max < min {
		panic("control: invalid saturation bounds")
	}
	c.min, c.max = min, max
	c.SetSignal(c.s)
}
