// Package scenario is the deterministic torture harness for the serving
// daemon: declarative scenario specs — diurnal load curves, flash
// crowds, phase-changing applications, priority/SLO classes, and chaos
// events (mass withdraw, goal thrash, journal crash-restart) — compile
// into timed event schedules driven through the daemon's real mutation
// paths on the accelerated sim clock, and every run is scored against
// internal/oracle for per-application and fleet regret. Everything is
// seeded: a fixed (spec, seed) replays byte-identically across tick
// worker counts, which is what makes a regret budget a test gate
// instead of a flaky aspiration.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"angstrom/internal/workload"
)

// Event kinds a scenario schedule may carry.
const (
	// EventFlashCrowd enrolls Count applications of one class in a
	// single tick — the 10x-arrival burst.
	EventFlashCrowd = "flash_crowd"
	// EventMassWithdraw withdraws a random Fraction of the live fleet
	// (of one class, or of every class when Class is empty).
	EventMassWithdraw = "mass_withdraw"
	// EventGoalThrash multiplies a class's goal band by Factor and back,
	// flipping every EveryTicks until UntilTick.
	EventGoalThrash = "goal_thrash"
	// EventCrashRestart kills the daemon mid-scenario and recovers a
	// successor from its journal through the real boot path.
	EventCrashRestart = "crash_restart"
	// EventPhaseShift multiplies a class's work-per-beat by Factor from
	// this tick on (a program-phase change that invalidates every
	// cached demand of the class).
	EventPhaseShift = "phase_shift"
	// EventChipSaturate derates one die's off-chip memory bandwidth to
	// Factor of nominal (a thermal throttle / failed channel): every
	// partition on the die suddenly contends for less capacity, and the
	// fleet's migration policy is what's under test. Factor 1 restores
	// nominal. Requires a chip-backed scenario (Chips >= 1).
	EventChipSaturate = "chip_saturate"
)

// Spec is one declarative scenario: a fleet of application classes, a
// timed chaos schedule, and the regret budgets the run must meet.
type Spec struct {
	Name string `json:"name"`
	// Seed keys every stochastic element (arrival jitter, beat noise,
	// withdraw selection); one seed, one byte-exact transcript.
	Seed uint64 `json:"seed"`
	// Ticks is the scenario length in decision periods.
	Ticks int `json:"ticks"`
	// TickSeconds is the simulated seconds each tick advances the
	// accelerated clock.
	TickSeconds float64 `json:"tick_seconds"`
	// Cores is the daemon's shared pool.
	Cores int `json:"cores"`
	// Oversubscribe admits fleets beyond one app per core (time-shared).
	Oversubscribe bool `json:"oversubscribe,omitempty"`
	// Chips, when positive, runs the scenario against a chip-backed
	// daemon: a fleet of Chips identical dies, enrollments placed by
	// predicted shared-resource pressure and migrated off saturated
	// dies. Applications then run on the daemon's hardware model —
	// their beats are chip-emitted, so a chip scenario's classes carry
	// no base rate, noise, distortion or phase program, and its
	// schedule no phase_shift (Validate rejects them: the engine would
	// ignore them).
	Chips int `json:"chips,omitempty"`
	// ChipTiles is each die's physical tile count (0 = the daemon's
	// default sizing). Only meaningful with Chips >= 1.
	ChipTiles int `json:"chip_tiles,omitempty"`
	// ChipMemBWGBps overrides each die's off-chip memory bandwidth in
	// GB/s (0 = the chip model's default). Only meaningful with
	// Chips >= 1.
	ChipMemBWGBps float64 `json:"chip_mem_bw_gbps,omitempty"`
	// MigrateSlowdown passes the daemon's migration trigger through:
	// 0 = the server default, negative disables migration entirely
	// (the no-migration control for federation scenarios). Only
	// meaningful with Chips >= 2.
	MigrateSlowdown float64 `json:"migrate_slowdown,omitempty"`
	// WarmupTicks excludes the controllers' convergence transient from
	// scoring (the ticks still run and still appear in the transcript).
	WarmupTicks int     `json:"warmup_ticks,omitempty"`
	Classes     []Class `json:"classes"`
	Events      []Event `json:"events,omitempty"`
	Budgets     Budgets `json:"budgets,omitempty"`
}

// Class describes one population of like applications.
type Class struct {
	Name string `json:"name"`
	// Workload names the internal/workload spec whose scaling curve the
	// class declares to the daemon and the engine's app model obeys.
	Workload string `json:"workload"`
	// Count applications enroll at tick zero.
	Count int `json:"count"`
	// MinRate/MaxRate is the declared goal band in beats/s.
	MinRate float64 `json:"min_rate"`
	MaxRate float64 `json:"max_rate,omitempty"`
	// Priority is the water-fill weight (0 = default 1).
	Priority float64 `json:"priority,omitempty"`
	// BaseRate is the modeled heart rate in beats/s on one dedicated
	// core at nominal work per beat (advisory scenarios only; a chip
	// scenario's rate comes from the hardware model).
	BaseRate float64 `json:"base_rate"`
	// ArrivalsPerTick is the mean arrival rate of new applications;
	// DiurnalAmp/DiurnalPeriodTicks modulate it sinusoidally.
	ArrivalsPerTick    float64 `json:"arrivals_per_tick,omitempty"`
	DiurnalAmp         float64 `json:"diurnal_amp,omitempty"`
	DiurnalPeriodTicks float64 `json:"diurnal_period_ticks,omitempty"`
	// MeanLifeTicks draws each arrival's lifetime from an exponential
	// (0 = applications stay until withdrawn by an event).
	MeanLifeTicks float64 `json:"mean_life_ticks,omitempty"`
	// NoiseStd perturbs each tick's work multiplicatively.
	NoiseStd float64 `json:"noise_std,omitempty"`
	// DistortionAmp bounds the uniform per-batch distortion reports.
	DistortionAmp float64 `json:"distortion_amp,omitempty"`
	// Phases is the class's deterministic phase program: at each step's
	// tick the work-per-beat multiplier jumps to WorkScale. Steps must
	// be strictly increasing in AtTick.
	Phases []PhaseStep `json:"phases,omitempty"`
}

// PhaseStep is one step of a class's phase program.
type PhaseStep struct {
	AtTick    int     `json:"at_tick"`
	WorkScale float64 `json:"work_scale"`
}

// Event is one scheduled chaos action.
type Event struct {
	AtTick int    `json:"at_tick"`
	Kind   string `json:"kind"`
	// Class scopes the event (required for flash_crowd, goal_thrash and
	// phase_shift; empty means every class for mass_withdraw).
	Class string `json:"class,omitempty"`
	// Count is the flash crowd's arrival burst size.
	Count int `json:"count,omitempty"`
	// Fraction is the mass withdrawal's victim probability in (0, 1].
	Fraction float64 `json:"fraction,omitempty"`
	// Factor scales the goal band (goal_thrash) or the work per beat
	// (phase_shift).
	Factor float64 `json:"factor,omitempty"`
	// EveryTicks/UntilTick bound the goal thrash's flip cadence.
	EveryTicks int `json:"every_ticks,omitempty"`
	UntilTick  int `json:"until_tick,omitempty"`
	// Chip is the die index chip_saturate targets.
	Chip int `json:"chip,omitempty"`
}

// Budgets are the scenario's acceptance gates; zero fields are ungated.
type Budgets struct {
	// MaxFleetRegretFrac caps the fleet's integrated normalized
	// shortfall over oracle-meetable time.
	MaxFleetRegretFrac float64 `json:"max_fleet_regret_frac,omitempty"`
	// MinFleetInBandFrac floors the live-time fraction the fleet spends
	// inside its goal bands.
	MinFleetInBandFrac float64 `json:"min_fleet_in_band_frac,omitempty"`
	// MaxAppRegretFrac caps the worst single application's regret.
	MaxAppRegretFrac float64 `json:"max_app_regret_frac,omitempty"`
}

// Size caps: a spec is a test input (and a fuzz target), so every
// dimension is bounded far above any useful scenario but far below
// anything that could wedge the suite.
const (
	maxTicks     = 1_000_000
	maxClasses   = 64
	maxFleet     = 100_000
	maxEvents    = 10_000
	maxPriority  = 1e6
	maxWorkScale = 100
	maxChips     = 64
)

func validName(s string) bool {
	return s != "" && len(s) <= 64 && s == strings.TrimSpace(s) && !strings.ContainsAny(s, "/ \t\n")
}

func finitePos(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0 }

func finiteNonNeg(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// Validate checks every parameter against the engine's contracts; the
// fuzz target asserts that anything it accepts drives a run that cannot
// panic and round-trips through JSON unchanged.
func (s *Spec) Validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("scenario: invalid name %q", s.Name)
	}
	if s.Ticks < 1 || s.Ticks > maxTicks {
		return fmt.Errorf("scenario %s: ticks %d outside [1, %d]", s.Name, s.Ticks, maxTicks)
	}
	if !finitePos(s.TickSeconds) || s.TickSeconds > 3600 {
		return fmt.Errorf("scenario %s: tick_seconds %g outside (0, 3600]", s.Name, s.TickSeconds)
	}
	if s.Cores < 1 || s.Cores > 4096 {
		return fmt.Errorf("scenario %s: cores %d outside [1, 4096]", s.Name, s.Cores)
	}
	if s.WarmupTicks < 0 || s.WarmupTicks >= s.Ticks {
		return fmt.Errorf("scenario %s: warmup_ticks %d outside [0, ticks)", s.Name, s.WarmupTicks)
	}
	if s.Chips < 0 || s.Chips > maxChips {
		return fmt.Errorf("scenario %s: chips %d outside [0, %d]", s.Name, s.Chips, maxChips)
	}
	if s.Chips > 0 && s.Cores < s.Chips {
		return fmt.Errorf("scenario %s: cores %d below chips %d (each die needs a core unit)", s.Name, s.Cores, s.Chips)
	}
	if s.ChipTiles < 0 || s.ChipTiles > 4096 {
		return fmt.Errorf("scenario %s: chip_tiles %d outside [0, 4096]", s.Name, s.ChipTiles)
	}
	if !finiteNonNeg(s.ChipMemBWGBps) || s.ChipMemBWGBps > 100_000 {
		return fmt.Errorf("scenario %s: chip_mem_bw_gbps %g outside [0, 100000]", s.Name, s.ChipMemBWGBps)
	}
	if math.IsNaN(s.MigrateSlowdown) || math.IsInf(s.MigrateSlowdown, 0) || s.MigrateSlowdown >= 1 {
		return fmt.Errorf("scenario %s: migrate_slowdown %g not below 1 and finite", s.Name, s.MigrateSlowdown)
	}
	if s.Chips == 0 && (s.ChipTiles != 0 || s.ChipMemBWGBps != 0 || s.MigrateSlowdown != 0) {
		return fmt.Errorf("scenario %s: chip parameters set without chips", s.Name)
	}
	if len(s.Classes) == 0 || len(s.Classes) > maxClasses {
		return fmt.Errorf("scenario %s: %d classes outside [1, %d]", s.Name, len(s.Classes), maxClasses)
	}
	initial := 0
	seen := map[string]bool{}
	for i := range s.Classes {
		c := &s.Classes[i]
		if err := c.validate(s); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario %s: duplicate class %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		initial += c.Count
	}
	if initial < 1 {
		return fmt.Errorf("scenario %s: no applications enroll at tick zero", s.Name)
	}
	if initial > maxFleet {
		return fmt.Errorf("scenario %s: initial fleet %d exceeds %d", s.Name, initial, maxFleet)
	}
	if len(s.Events) > maxEvents {
		return fmt.Errorf("scenario %s: %d events exceed %d", s.Name, len(s.Events), maxEvents)
	}
	prev := 0
	for i := range s.Events {
		ev := &s.Events[i]
		if err := ev.validate(s, seen); err != nil {
			return err
		}
		if ev.AtTick < prev {
			return fmt.Errorf("scenario %s: events out of order at tick %d (after %d)", s.Name, ev.AtTick, prev)
		}
		prev = ev.AtTick
	}
	b := s.Budgets
	if !finiteNonNeg(b.MaxFleetRegretFrac) || !finiteNonNeg(b.MaxAppRegretFrac) ||
		!finiteNonNeg(b.MinFleetInBandFrac) || b.MinFleetInBandFrac > 1 {
		return fmt.Errorf("scenario %s: invalid budgets %+v", s.Name, b)
	}
	return nil
}

func (c *Class) validate(s *Spec) error {
	if !validName(c.Name) {
		return fmt.Errorf("scenario %s: invalid class name %q", s.Name, c.Name)
	}
	if _, err := workload.ByName(c.Workload); err != nil {
		return fmt.Errorf("scenario %s class %s: %w", s.Name, c.Name, err)
	}
	if c.Count < 0 || c.Count > maxFleet {
		return fmt.Errorf("scenario %s class %s: count %d outside [0, %d]", s.Name, c.Name, c.Count, maxFleet)
	}
	if !finitePos(c.MinRate) {
		return fmt.Errorf("scenario %s class %s: min_rate %g not positive and finite", s.Name, c.Name, c.MinRate)
	}
	if !finiteNonNeg(c.MaxRate) || (c.MaxRate != 0 && c.MaxRate < c.MinRate) {
		return fmt.Errorf("scenario %s class %s: bad rate band [%g, %g]", s.Name, c.Name, c.MinRate, c.MaxRate)
	}
	if c.Priority != 0 && (!finitePos(c.Priority) || c.Priority > maxPriority) {
		return fmt.Errorf("scenario %s class %s: priority %g outside (0, %g]", s.Name, c.Name, c.Priority, maxPriority)
	}
	if s.Chips > 0 {
		// The engine neither models nor perturbs a chip app's execution,
		// so these fields would be accepted and silently ignored.
		if c.BaseRate != 0 || c.NoiseStd != 0 || c.DistortionAmp != 0 || len(c.Phases) > 0 {
			return fmt.Errorf("scenario %s class %s: base_rate, noise_std, distortion_amp and phases do not apply to a chip scenario", s.Name, c.Name)
		}
	} else if !finitePos(c.BaseRate) {
		return fmt.Errorf("scenario %s class %s: base_rate %g not positive and finite", s.Name, c.Name, c.BaseRate)
	}
	if !finiteNonNeg(c.ArrivalsPerTick) || c.ArrivalsPerTick > 1000 {
		return fmt.Errorf("scenario %s class %s: arrivals_per_tick %g outside [0, 1000]", s.Name, c.Name, c.ArrivalsPerTick)
	}
	if !finiteNonNeg(c.DiurnalAmp) || c.DiurnalAmp >= 1 {
		return fmt.Errorf("scenario %s class %s: diurnal_amp %g outside [0, 1)", s.Name, c.Name, c.DiurnalAmp)
	}
	if c.DiurnalAmp > 0 && !finitePos(c.DiurnalPeriodTicks) {
		return fmt.Errorf("scenario %s class %s: diurnal amplitude without a positive period", s.Name, c.Name)
	}
	if c.DiurnalPeriodTicks != 0 && !finitePos(c.DiurnalPeriodTicks) {
		return fmt.Errorf("scenario %s class %s: diurnal_period_ticks %g not positive and finite", s.Name, c.Name, c.DiurnalPeriodTicks)
	}
	if !finiteNonNeg(c.MeanLifeTicks) || c.MeanLifeTicks > float64(maxTicks) {
		return fmt.Errorf("scenario %s class %s: mean_life_ticks %g outside [0, %d]", s.Name, c.Name, c.MeanLifeTicks, maxTicks)
	}
	if !finiteNonNeg(c.NoiseStd) || c.NoiseStd > 1 {
		return fmt.Errorf("scenario %s class %s: noise_std %g outside [0, 1]", s.Name, c.Name, c.NoiseStd)
	}
	if !finiteNonNeg(c.DistortionAmp) || c.DistortionAmp > 1 {
		return fmt.Errorf("scenario %s class %s: distortion_amp %g outside [0, 1]", s.Name, c.Name, c.DistortionAmp)
	}
	prev := -1
	for _, p := range c.Phases {
		if p.AtTick < 0 || p.AtTick >= s.Ticks {
			return fmt.Errorf("scenario %s class %s: phase at tick %d outside [0, ticks)", s.Name, c.Name, p.AtTick)
		}
		if p.AtTick <= prev {
			return fmt.Errorf("scenario %s class %s: phases out of order at tick %d", s.Name, c.Name, p.AtTick)
		}
		prev = p.AtTick
		if !finitePos(p.WorkScale) || p.WorkScale > maxWorkScale {
			return fmt.Errorf("scenario %s class %s: phase work_scale %g outside (0, %d]", s.Name, c.Name, p.WorkScale, maxWorkScale)
		}
	}
	return nil
}

func (ev *Event) validate(s *Spec, classes map[string]bool) error {
	if ev.AtTick < 0 || ev.AtTick >= s.Ticks {
		return fmt.Errorf("scenario %s: event at tick %d outside [0, ticks)", s.Name, ev.AtTick)
	}
	needsClass := false
	switch ev.Kind {
	case EventFlashCrowd:
		needsClass = true
		if ev.Count < 1 || ev.Count > maxFleet {
			return fmt.Errorf("scenario %s: flash_crowd count %d outside [1, %d]", s.Name, ev.Count, maxFleet)
		}
	case EventMassWithdraw:
		if !(finitePos(ev.Fraction) && ev.Fraction <= 1) {
			return fmt.Errorf("scenario %s: mass_withdraw fraction %g outside (0, 1]", s.Name, ev.Fraction)
		}
	case EventGoalThrash:
		needsClass = true
		if !finitePos(ev.Factor) || ev.Factor > maxWorkScale {
			return fmt.Errorf("scenario %s: goal_thrash factor %g outside (0, %d]", s.Name, ev.Factor, maxWorkScale)
		}
		if ev.EveryTicks < 1 {
			return fmt.Errorf("scenario %s: goal_thrash every_ticks %d < 1", s.Name, ev.EveryTicks)
		}
		if ev.UntilTick <= ev.AtTick || ev.UntilTick > s.Ticks {
			return fmt.Errorf("scenario %s: goal_thrash until_tick %d outside (at_tick, ticks]", s.Name, ev.UntilTick)
		}
	case EventCrashRestart:
	case EventChipSaturate:
		if s.Chips < 1 {
			return fmt.Errorf("scenario %s: chip_saturate in a chipless scenario", s.Name)
		}
		if ev.Chip < 0 || ev.Chip >= s.Chips {
			return fmt.Errorf("scenario %s: chip_saturate chip %d outside [0, %d)", s.Name, ev.Chip, s.Chips)
		}
		if !(finitePos(ev.Factor) && ev.Factor <= 1) {
			return fmt.Errorf("scenario %s: chip_saturate factor %g outside (0, 1]", s.Name, ev.Factor)
		}
	case EventPhaseShift:
		needsClass = true
		if s.Chips > 0 {
			return fmt.Errorf("scenario %s: phase_shift in a chip scenario (the hardware model sets the work per beat)", s.Name)
		}
		if !finitePos(ev.Factor) || ev.Factor > maxWorkScale {
			return fmt.Errorf("scenario %s: phase_shift factor %g outside (0, %d]", s.Name, ev.Factor, maxWorkScale)
		}
	default:
		return fmt.Errorf("scenario %s: unknown event kind %q", s.Name, ev.Kind)
	}
	if needsClass && !classes[ev.Class] {
		return fmt.Errorf("scenario %s: event %s names unknown class %q", s.Name, ev.Kind, ev.Class)
	}
	if ev.Class != "" && !classes[ev.Class] {
		return fmt.Errorf("scenario %s: event %s names unknown class %q", s.Name, ev.Kind, ev.Class)
	}
	return nil
}

// needsJournal reports whether the schedule contains a crash-restart
// (only then does the host pay for a journaled daemon).
func (s *Spec) needsJournal() bool {
	for i := range s.Events {
		if s.Events[i].Kind == EventCrashRestart {
			return true
		}
	}
	return false
}

// DecodeSpec parses and validates a JSON scenario spec. Unknown fields
// are rejected — a typoed budget key must fail loudly, not silently
// ungate a scenario.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decode: %w", err)
	}
	// Trailing garbage after the spec object is a malformed file.
	if dec.More() {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
