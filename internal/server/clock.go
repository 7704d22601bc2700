package server

import (
	"math"
	"sync/atomic"
	"time"

	"angstrom/internal/sim"
)

// WallClock is a sim.Nower over real time: simulated seconds are seconds
// since the clock was created (plus a base offset, for daemons resuming
// a recovered timeline). It is safe for concurrent use, which the
// single-goroutine sim.Clock deliberately is not — a serving daemon
// timestamps heartbeats from many HTTP handler goroutines at once.
type WallClock struct {
	epoch time.Time
	base  sim.Time
}

// NewWallClock starts a wall clock at time zero.
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now()} }

// NewWallClockAt starts a wall clock at start: a recovered daemon
// resumes its journaled timeline instead of rewinding to zero (which
// would run every monitor frontier and partition backwards).
//
// restore calls this at the very end of replay to hand the timeline
// over to real time — the time.Now here IS the replay/serving boundary,
// after every journaled record has already been re-executed, so it can
// never feed a replayed computation.
func NewWallClockAt(start sim.Time) *WallClock {
	//lint:allow clockdiscipline the serving-clock handover after replay completes; nothing replayed reads it
	return &WallClock{epoch: time.Now(), base: start}
}

// Now reports seconds elapsed since the clock was created.
func (c *WallClock) Now() sim.Time { return c.base + time.Since(c.epoch).Seconds() }

// AtomicClock is an accelerated simulated clock: one goroutine (the ODA
// loop) advances it, any number of goroutines read it. Time is stored as
// float64 bits in an atomic word, so readers never block the loop.
type AtomicClock struct {
	bits atomic.Uint64
}

// NewAtomicClock returns a clock set to start.
func NewAtomicClock(start sim.Time) *AtomicClock {
	c := &AtomicClock{}
	c.bits.Store(math.Float64bits(start))
	return c
}

// Now reports the current simulated time.
func (c *AtomicClock) Now() sim.Time { return math.Float64frombits(c.bits.Load()) }

// Advance moves the clock forward by dt seconds. Like sim.Clock, moving
// backwards is a driver bug and panics.
func (c *AtomicClock) Advance(dt sim.Time) {
	if dt < 0 {
		panic("server: clock advanced by negative dt")
	}
	c.bits.Store(math.Float64bits(c.Now() + dt))
}

// Set jumps the clock to t. Journal replay uses it to re-execute each
// record at its recorded time; unlike Advance it tolerates a backward
// jump, because the journal's linearization of concurrent mutations may
// interleave a pre-tick timestamp after a tick record (the monitors and
// partitions clamp backward times themselves).
func (c *AtomicClock) Set(t sim.Time) { c.bits.Store(math.Float64bits(t)) }

// swapClock is the daemon's clock indirection: a sim.Nower whose
// backing clock can be swapped once boot-time journal replay (driven by
// a settable replay clock) hands over to the serving clock. Every
// component that captures the daemon's clock at construction — manager,
// monitors, runtimes — holds the holder, so the swap reaches all of
// them atomically.
type swapClock struct {
	inner atomic.Pointer[sim.Nower]
}

func newSwapClock(n sim.Nower) *swapClock {
	c := &swapClock{}
	c.swap(n)
	return c
}

func (c *swapClock) Now() sim.Time    { return (*c.inner.Load()).Now() }
func (c *swapClock) swap(n sim.Nower) { c.inner.Store(&n) }

var (
	_ sim.Nower = (*WallClock)(nil)
	_ sim.Nower = (*AtomicClock)(nil)
	_ sim.Nower = (*swapClock)(nil)
)
