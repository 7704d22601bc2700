// Package sim provides the small pieces of deterministic simulation
// infrastructure shared by every platform model in this repository: a
// virtual clock, reproducible random-number streams, and helpers for
// interval-based simulation.
//
// All models in this reproduction are simulated rather than measured on
// real hardware, so time never comes from the operating system; it comes
// from a Clock that the experiment driver advances explicitly.
package sim

import "fmt"

// Time is a point in simulated time, in seconds. float64 seconds gives
// sub-nanosecond resolution over the minutes-long horizons simulated here.
type Time = float64

// Clock is a virtual clock. The zero value is a clock at time zero.
//
// Clock is not safe for concurrent use; simulations in this repository are
// single-goroutine event loops (see Effective Go: share memory by
// communicating — here there is exactly one communicating party).
type Clock struct {
	now Time
}

// NewClock returns a clock set to start.
func NewClock(start Time) *Clock { return &Clock{now: start} }

// Now reports the current simulated time in seconds.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by dt seconds. It panics if dt is
// negative: simulated time is monotone, and a negative step is always a
// driver bug that should fail loudly.
func (c *Clock) Advance(dt Time) {
	if dt < 0 {
		panic(fmt.Sprintf("sim: clock advanced by negative dt %g", dt))
	}
	c.now += dt
}

// AdvanceTo moves the clock forward to t. It panics if t is in the past.
//
//lint:allow unusedexport the chip_run golden steps its reference clock to the partition's time with it
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved backwards from %g to %g", c.now, t))
	}
	c.now = t
}

// Nower is the read-only view of a clock. Components that must observe
// time but never advance it (heartbeat monitors, sensors, power meters)
// accept a Nower.
type Nower interface {
	Now() Time
}

var _ Nower = (*Clock)(nil)
