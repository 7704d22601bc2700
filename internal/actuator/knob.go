package actuator

import "sync"

// This file defines the hardware-facing half of the action interface:
// the Knob and Sensor contracts that connect the decision layers
// (internal/core, internal/server) to a platform model (internal/angstrom,
// internal/xeon) without either importing the other's internals.
//
//   - A Knob is the act side: an ordered, discrete hardware setting
//     (core allocation, cache capacity, a DVFS operating point) that a
//     decision engine drives through an Actuator built with FromKnob.
//   - A Sensor is the observe side: a point-in-time Sample of the
//     hardware the knob settings act on (IPS, power, stall fraction),
//     feeding model state back into the heartbeat-driven controller.
//
// Both contracts are deliberately tiny so the serving daemon can accept
// fakes in tests and alternative backends without code changes.

// Knob is one discrete, ordered hardware setting ("ladder"): level 0 is
// the lowest rung, Levels()-1 the highest. Implementations must be safe
// for the single-actuation-goroutine discipline of the SEEC runtime;
// implementations shared across goroutines must synchronize internally.
type Knob interface {
	// Name identifies the knob in reports and registries.
	Name() string
	// Levels reports the number of rungs.
	Levels() int
	// Level reports the current rung.
	Level() int
	// SetLevel moves the knob to the given rung. Implementations may
	// move less far than requested (rate limits, resource caps); Level
	// reports where the knob actually landed.
	SetLevel(level int) error
}

// Sample is one Sensor reading: the observable state of the hardware
// executing one application. Zero fields mean "not measured".
type Sample struct {
	// Time is the reading's timestamp in simulated seconds.
	Time float64
	// IPS is aggregate instructions per second.
	IPS float64
	// PowerW is the power drawn by this application's share of the
	// hardware, in watts.
	PowerW float64
	// StallFrac is the fraction of cycles stalled on memory [0, 1].
	StallFrac float64
	// HeartRate is the model-predicted beats/s at the current setting.
	HeartRate float64
	// EnergyJ is cumulative energy attributed to the application.
	EnergyJ float64
}

// Sensor is the observe-side contract: anything that can report a
// Sample. The Angstrom chip partition implements it; the serving daemon
// reads it on every status request, so implementations must be cheap and
// allocation-free.
type Sensor interface {
	Sense() Sample
}

// Stepped wraps a knob so each SetLevel moves at most one rung toward
// the requested level — the shape of real hardware transitions (DVFS
// relock, cache way power-up), and the property the chip-backed daemon's
// actuation tests assert: every observed move is monotone along the
// ladder, never a jump.
type Stepped struct {
	mu sync.Mutex
	k  Knob
}

// NewStepped wraps k in one-rung-per-call rate limiting.
func NewStepped(k Knob) *Stepped { return &Stepped{k: k} }

// Name implements Knob.
func (s *Stepped) Name() string { return s.k.Name() }

// Levels implements Knob.
func (s *Stepped) Levels() int { return s.k.Levels() }

// Level implements Knob.
func (s *Stepped) Level() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.k.Level()
}

// SetLevel moves one rung toward level (clamped to the ladder) and
// reports the underlying knob's error, if any.
func (s *Stepped) SetLevel(level int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if level < 0 {
		level = 0
	}
	if max := s.k.Levels() - 1; level > max {
		level = max
	}
	cur := s.k.Level()
	next := cur
	if level > cur {
		next = cur + 1
	} else if level < cur {
		next = cur - 1
	}
	if next == cur {
		return nil
	}
	return s.k.SetLevel(next)
}

var _ Knob = (*Stepped)(nil)
