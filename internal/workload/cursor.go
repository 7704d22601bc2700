package workload

import (
	"fmt"

	"angstrom/internal/sim"
)

// Cursor is an application's execution position: beats emitted, and
// instructions completed toward the next one. It is the one
// implementation of "run an Instance at some instruction rate and find
// when its beats complete"; both platform models (xeon.Server and
// angstrom.Partition) hold one and loop
//
//	for now < until-1e-12 { dt, beat, err := cur.Step(inst, ips, now, until); ... }
//
// keeping only what differs between the two: which clock a beat is stamped
// on and how energy is integrated over dt. Because the carry lives here,
// splitting an interval emits the same beats as running it whole. The
// zero Cursor is the start of a run.
type Cursor struct {
	beats uint64
	carry float64 // instructions completed toward beat number `beats`
}

// Beats reports how many beats the cursor has emitted.
func (c *Cursor) Beats() uint64 { return c.beats }

// Step executes in at ips instructions per second from now toward until,
// up to the first of two events: the next beat completes (beat is true,
// dt the time to it) or the interval ends (beat is false, dt is
// until-now, and the work done carries into the next call). Work carried
// past the next beat's requirement — rem*ips rounded an ulp over —
// completes it at once with dt == 0. A non-positive or NaN rate or
// per-beat work is an error and leaves the cursor untouched: either
// would move time backwards or never finish. Step allocates nothing; it
// runs under every partition of every chip tick.
func (c *Cursor) Step(in *Instance, ips float64, now, until sim.Time) (dt float64, beat bool, err error) {
	work := in.WorkForBeat(c.beats)
	if !(ips > 0) || !(work > 0) { // negated so NaN fails too
		return 0, false, fmt.Errorf("workload: cannot execute beat %d: rate %g instr/s, work %g instr (both must be positive)", c.beats, ips, work)
	}
	need := work - c.carry
	if need < 0 {
		need = 0
	}
	tBeat := need / ips
	if now+tBeat <= until {
		c.beats++
		c.carry = 0
		return tBeat, true, nil
	}
	rem := until - now
	c.carry += rem * ips
	return rem, false, nil
}
