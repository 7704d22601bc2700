package actuator

// This file defines the hardware-facing half of the action interface:
// the Knob and Sensor contracts that connect the decision layers
// (internal/core, internal/server) to a platform model (internal/angstrom,
// internal/xeon) without either importing the other's internals.
//
//   - A Knob is the act side: an ordered, discrete hardware setting
//     (core allocation, cache capacity, a DVFS operating point). The
//     Actuator declaring its settings is a Sweep over the knob's values;
//     the driver steps the knob itself: the chip-backed daemon reads the
//     partition's configuration and calls SetLevel one rung at a time,
//     only for a rung that moves.
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
	// Name identifies the knob in reports and error messages.
	Name() string
	// Levels reports the number of rungs.
	Levels() int
	// Level reports the current rung.
	Level() int
	// SetLevel moves the knob to the given rung, or refuses and stays.
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
