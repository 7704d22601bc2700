package angstrom

import (
	"fmt"
	"math"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// Tile is one core's observation state: the memory-mapped counter file,
// event probes with their hardware queue, the fine-grained sensors of
// §4.1, and the attached partner core of §4.3.
type Tile struct {
	Counters *CounterFile
	Probes   *ProbeSet
	Queue    *EventQueue
	Thermal  *Thermal
	Voltage  VoltageSensor
	Partner  *PartnerCore
}

// Chip is the closed-loop Angstrom instance: a configuration, per-tile
// observation state, chip-level energy accounting, and an attached
// application whose heartbeats it emits as simulated time advances.
type Chip struct {
	p     Params
	cfg   Config
	clock *sim.Clock

	Tiles  []*Tile
	Energy *EnergySensor
	Batt   *Battery // optional

	inst *workload.Instance
	mon  *heartbeat.Monitor
	cur  workload.Cursor // execution position of inst
}

// NewChip builds a chip with nTiles tiles in the given initial
// configuration.
func NewChip(p Params, cfg Config, nTiles int, clock *sim.Clock) (*Chip, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	if nTiles < cfg.Cores {
		return nil, fmt.Errorf("angstrom: %d tiles cannot host %d cores", nTiles, cfg.Cores)
	}
	ch := &Chip{p: p, cfg: cfg, clock: clock, Energy: &EnergySensor{}}
	for i := 0; i < nTiles; i++ {
		t := &Tile{Counters: &CounterFile{}, Probes: &ProbeSet{}}
		q, err := NewEventQueue(64)
		if err != nil {
			return nil, err
		}
		t.Queue = q
		t.Thermal, err = NewThermal(45, 8, 0.05) // 45°C ambient-in-package
		if err != nil {
			return nil, err
		}
		t.Voltage.Set(p.VF[cfg.VF].Volts)
		t.Partner, err = NewPartnerCore(p.VF[cfg.VF], p.Core, t.Counters, q)
		if err != nil {
			return nil, err
		}
		ch.Tiles = append(ch.Tiles, t)
	}
	return ch, nil
}

// Attach connects a running application and its heartbeat monitor.
func (ch *Chip) Attach(inst *workload.Instance, mon *heartbeat.Monitor) {
	ch.inst = inst
	ch.mon = mon
	ch.cur = workload.Cursor{}
}

// Config returns the current configuration.
func (ch *Chip) Config() Config { return ch.cfg }

// Params returns the chip constants.
func (ch *Chip) Params() Params { return ch.p }

// SetConfig reconfigures the chip (the act phase of the ODA loop).
func (ch *Chip) SetConfig(cfg Config) error {
	if err := ch.p.Validate(cfg); err != nil {
		return err
	}
	if cfg.Cores > len(ch.Tiles) {
		return fmt.Errorf("angstrom: %d cores exceed %d tiles", cfg.Cores, len(ch.Tiles))
	}
	ch.cfg = cfg
	v := ch.p.VF[cfg.VF].Volts
	for _, t := range ch.Tiles {
		t.Voltage.Set(v)
		t.Partner.Main = ch.p.VF[cfg.VF]
	}
	return nil
}

// Metrics evaluates the chip model for the attached workload at the
// current configuration.
func (ch *Chip) Metrics() (Metrics, error) {
	if ch.inst == nil {
		return Metrics{}, fmt.Errorf("angstrom: no workload attached")
	}
	return Evaluate(ch.p, ch.inst.Spec, ch.cfg)
}

// RunInterval advances the chip by dt seconds: the application executes
// at the model's aggregate IPS, beats are emitted into the monitor as
// their work completes, counters accumulate, sensors integrate, and
// every tile's probes are evaluated once at the end of the interval.
func (ch *Chip) RunInterval(dt float64) (Metrics, error) {
	m, err := ch.Metrics()
	if err != nil {
		return m, err
	}
	if dt <= 0 {
		return m, fmt.Errorf("angstrom: non-positive interval %g", dt)
	}
	// Beats land on the advancing shared clock (mon.Beat reads it), and
	// energy (and battery) is integrated step by step so a meter-attached
	// monitor sees the reading at each beat.
	end := ch.clock.Now() + dt
	for ch.clock.Now() < end-1e-12 {
		step, beat, serr := ch.cur.Step(ch.inst, m.IPS, ch.clock.Now(), end)
		if serr != nil {
			return m, fmt.Errorf("angstrom: %w", serr)
		}
		ch.clock.Advance(step)
		j := m.PowerW * step
		ch.Energy.Add(j)
		if ch.Batt != nil {
			ch.Batt.Drain(j)
		}
		if beat && ch.mon != nil {
			ch.mon.Beat()
		}
	}
	ch.updateTiles(m, dt)
	return m, nil
}

// updateTiles spreads counter deltas and sensor steps across tiles.
func (ch *Chip) updateTiles(m Metrics, dt float64) {
	perCoreInstr := uint64(m.IPS * dt / float64(ch.cfg.Cores))
	perCoreCycles := uint64(ch.p.VF[ch.cfg.VF].FHz * dt)
	// Both fractions below can go negative — CPI < 1 on a superscalar
	// model, or PowerW below the uncore floor — and a negative
	// float→uint64 conversion is implementation-defined in Go, which
	// corrupted the stall and energy counters. Clamp at zero.
	perCorePower := (m.PowerW - ch.p.UncoreW) / float64(ch.cfg.Cores)
	if perCorePower < 0 || math.IsNaN(perCorePower) {
		perCorePower = 0
	}
	stall := stallFrac(m.CPI)
	spec := ch.inst.Spec
	memOps := uint64(float64(perCoreInstr) * spec.MemOpsPerInstr)
	misses := uint64(float64(memOps) * m.MissRate)
	stalls := uint64(float64(perCoreCycles) * stall)
	for i, t := range ch.Tiles {
		if i < ch.cfg.Cores {
			t.Counters.Add(CtrInstructions, perCoreInstr)
			t.Counters.Add(CtrCycles, perCoreCycles)
			t.Counters.Add(CtrMemOps, memOps)
			t.Counters.Add(CtrL2Misses, misses)
			t.Counters.Add(CtrL2Hits, memOps-misses)
			t.Counters.Add(CtrStallCycles, stalls)
			t.Counters.Add(CtrEnergyNJ, uint64(perCorePower*dt*1e9))
			t.Thermal.Step(perCorePower, dt)
		} else {
			t.Thermal.Step(0, dt) // power-gated tiles cool toward ambient
		}
		t.Probes.Evaluate(t.Counters, ch.clock.Now())
	}
}

// BuildActuators exposes the chip's three headline knobs — core
// allocation, per-core cache capacity, and DVFS — as SEEC actuators for
// the attached workload. Effects are the model's predicted multipliers
// relative to the chip's current configuration (the designer-declared
// model of §3.2; the runtime's adaptive layer corrects any divergence).
func (ch *Chip) BuildActuators(coreOptions []int, cacheOptionsKB []int) ([]*actuator.Actuator, error) {
	if ch.inst == nil {
		return nil, fmt.Errorf("angstrom: attach a workload before building actuators")
	}
	spec, base := ch.inst.Spec, ch.cfg
	baseM, err := Evaluate(ch.p, spec, base)
	if err != nil {
		return nil, err
	}
	// One knob is one Config field: with returns a configuration holding
	// value v there, both to price the setting against base and to apply
	// it to the live chip.
	knobs := []struct {
		name    string
		values  []int
		nominal int
		delay   float64
		label   func(v int) string
		with    func(c Config, v int) Config
	}{
		{"core-allocation", coreOptions, base.Cores, 0.001,
			func(v int) string { return fmt.Sprintf("%d cores", v) }, func(c Config, v int) Config { c.Cores = v; return c }},
		{"l2-capacity", cacheOptionsKB, base.CacheKB, 0.0001,
			func(v int) string { return fmt.Sprintf("%dKB L2", v) }, func(c Config, v int) Config { c.CacheKB = v; return c }},
		{"dvfs", actuator.Range(0, len(ch.p.VF)-1), base.VF, 0.0005,
			func(v int) string { return fmt.Sprintf("%.1fV/%.0fMHz", ch.p.VF[v].Volts, ch.p.VF[v].FHz/1e6) },
			func(c Config, v int) Config { c.VF = v; return c }},
	}
	acts := make([]*actuator.Actuator, len(knobs))
	for i, k := range knobs {
		acts[i], err = actuator.Sweep(k.name, k.values, k.nominal, k.delay, actuator.GlobalScope, k.label,
			func(v int) (actuator.Effect, error) {
				m, merr := Evaluate(ch.p, spec, k.with(base, v))
				if merr != nil {
					return actuator.Effect{}, merr
				}
				return actuator.Effect{
					Speedup: m.HeartRate / baseM.HeartRate,
					PowerX:  (m.PowerW - ch.p.UncoreW) / (baseM.PowerW - ch.p.UncoreW),
					Distort: 1,
				}, nil
			},
			func(level int) error { return ch.SetConfig(k.with(ch.cfg, k.values[level])) })
		if err != nil {
			return nil, err
		}
	}
	return acts, nil
}

// MaxHeartRate sweeps the given options for the attached workload and
// returns the highest achievable heart rate — used to pose the paper's
// "half of maximum" performance goals.
func (ch *Chip) MaxHeartRate(coreOptions, cacheOptionsKB []int) (float64, error) {
	if ch.inst == nil {
		return 0, fmt.Errorf("angstrom: no workload attached")
	}
	best := 0.0
	for _, cores := range coreOptions {
		for _, kb := range cacheOptionsKB {
			for vf := range ch.p.VF {
				cfg := ch.cfg
				cfg.Cores, cfg.CacheKB, cfg.VF = cores, kb, vf
				m, err := Evaluate(ch.p, ch.inst.Spec, cfg)
				if err != nil {
					return 0, err
				}
				best = math.Max(best, m.HeartRate)
			}
		}
	}
	return best, nil
}
