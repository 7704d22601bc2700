// Package xeon models the existing-system testbed of §5.2: a Dell
// PowerEdge R410 with two quad-core Intel Xeon E5530 processors running
// Linux, seven cpufrequtils-controlled power states from 1.6 to 2.4 GHz,
// and a WattsUp wall-power meter sampling at one-second intervals. The
// measured envelope in the paper — ~90 W idle, up to 220 W loaded — is
// built into the defaults.
//
// The three actions SEEC uses there (§5.2) are exposed as actuators:
// the number of cores assigned to the application, the clock speed of
// those cores, and the fraction of active (non-idle) cycles.
package xeon

import (
	"fmt"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// Params describes the server hardware.
type Params struct {
	// Cores is the total core count (2 sockets × 4).
	Cores int
	// FreqsGHz are the P-state clock frequencies, ascending.
	FreqsGHz []float64
	// IdleW is wall power with the machine idle.
	IdleW float64
	// CoreMaxW is one core's incremental power at the top P-state.
	CoreMaxW float64
	// VminVmax are the supply voltages at the lowest/highest P-state.
	Vmin, Vmax float64
	// L3KB is the (fixed) shared last-level cache.
	L3KB float64
	// MemLatencyNs is DRAM latency.
	MemLatencyNs float64
	// CPI0 is the core-bound cycles per instruction (superscalar < 1).
	CPI0 float64
	// DutyLevels is the number of active-cycle settings (1/n .. 1).
	DutyLevels int
}

// DefaultParams is the R410 of §5.2.
func DefaultParams() Params {
	return Params{
		Cores:        8,
		FreqsGHz:     []float64{1.60, 1.73, 1.86, 2.00, 2.13, 2.26, 2.40},
		IdleW:        90,
		CoreMaxW:     16.25, // 8 × 16.25 + 90 = 220 W at full load
		Vmin:         0.85,
		Vmax:         1.15,
		L3KB:         8192,
		MemLatencyNs: 70,
		CPI0:         0.8,
		DutyLevels:   10,
	}
}

// Config is one setting of the three §5.2 knobs.
type Config struct {
	Cores  int // cores assigned to the application, 1..Params.Cores
	PState int // index into FreqsGHz
	Duty   int // active-cycle level, 1..DutyLevels (level/DutyLevels active)
}

// Validate checks cfg against p.
func (p Params) Validate(cfg Config) error {
	if cfg.Cores < 1 || cfg.Cores > p.Cores {
		return fmt.Errorf("xeon: %d cores outside [1,%d]", cfg.Cores, p.Cores)
	}
	if cfg.PState < 0 || cfg.PState >= len(p.FreqsGHz) {
		return fmt.Errorf("xeon: P-state %d outside [0,%d)", cfg.PState, len(p.FreqsGHz))
	}
	if cfg.Duty < 1 || cfg.Duty > p.DutyLevels {
		return fmt.Errorf("xeon: duty level %d outside [1,%d]", cfg.Duty, p.DutyLevels)
	}
	return nil
}

// voltage interpolates the P-state supply voltage.
func (p Params) voltage(pstate int) float64 {
	if len(p.FreqsGHz) == 1 {
		return p.Vmax
	}
	t := float64(pstate) / float64(len(p.FreqsGHz)-1)
	return p.Vmin + t*(p.Vmax-p.Vmin)
}

// Metrics is the model output for one (workload, config) pair.
type Metrics struct {
	HeartRate float64 // beats/s
	PowerW    float64 // wall power
	IPS       float64
}

// Evaluate is the server performance/power model.
//
// Performance: seconds per instruction = CPI0/f + memOps·miss·t_mem; the
// memory term does not scale with clock, which is what makes high
// P-states progressively less useful for memory-bound codes. Cores scale
// by the workload's Amdahl curve; the duty knob scales throughput
// linearly (idle cycles do no work).
//
// Power: idle + per-active-core f·V² dynamic power, scaled by duty
// (a halted core burns only a small clock-gating residue).
func Evaluate(p Params, spec workload.Spec, cfg Config) (Metrics, error) {
	if err := p.Validate(cfg); err != nil {
		return Metrics{}, err
	}
	if err := spec.Validate(); err != nil {
		return Metrics{}, err
	}
	fGHz := p.FreqsGHz[cfg.PState]
	// The L3 is shared: the application sees all of it regardless of
	// core count (other cores are idle in the §5.2 single-app setup).
	miss := spec.AggregateMissRate(p.L3KB)
	nsPerInstr := p.CPI0/fGHz + spec.MemOpsPerInstr*miss*p.MemLatencyNs
	coreIPS := 1e9 / nsPerInstr
	duty := float64(cfg.Duty) / float64(p.DutyLevels)
	ips := coreIPS * spec.ParallelSpeedup(cfg.Cores) * duty

	v := p.voltage(cfg.PState)
	fmax := p.FreqsGHz[len(p.FreqsGHz)-1]
	perCore := p.CoreMaxW * (fGHz / fmax) * (v * v) / (p.Vmax * p.Vmax)
	const haltResidue = 0.08 // clock-gated fraction of dynamic power
	active := duty + haltResidue*(1-duty)
	// Cores allocated beyond the workload's parallel efficiency idle in
	// sync spins at a clock-gated residue rather than full power.
	busy := spec.ParallelSpeedup(cfg.Cores)
	const spinResidue = 0.35
	busyFrac := (busy + spinResidue*(float64(cfg.Cores)-busy)) / float64(cfg.Cores)
	power := p.IdleW + float64(cfg.Cores)*perCore*active*busyFrac

	return Metrics{
		HeartRate: ips / spec.InstrPerBeat,
		PowerW:    power,
		IPS:       ips,
	}, nil
}

// Configs enumerates the full §5.2 action space.
func (p Params) Configs() []Config {
	var out []Config
	for c := 1; c <= p.Cores; c++ {
		for ps := range p.FreqsGHz {
			for d := 1; d <= p.DutyLevels; d++ {
				out = append(out, Config{Cores: c, PState: ps, Duty: d})
			}
		}
	}
	return out
}

// MaxHeartRate is the best achievable rate for spec across the space
// (used to pose the paper's "half of maximum" goals).
func (p Params) MaxHeartRate(spec workload.Spec) float64 {
	best := 0.0
	for _, cfg := range p.Configs() {
		m, err := Evaluate(p, spec, cfg)
		if err == nil && m.HeartRate > best {
			best = m.HeartRate
		}
	}
	return best
}

// Server is the closed-loop instance: a configuration, a power meter,
// and an attached application emitting heartbeats in simulated time.
type Server struct {
	p     Params
	cfg   Config
	clock *sim.Clock
	Meter *PowerMeter

	inst *workload.Instance
	mon  *heartbeat.Monitor
	cur  workload.Cursor // execution position of inst
}

// NewServer builds a server in the given initial configuration.
func NewServer(p Params, cfg Config, clock *sim.Clock) (*Server, error) {
	if err := p.Validate(cfg); err != nil {
		return nil, err
	}
	return &Server{p: p, cfg: cfg, clock: clock, Meter: &PowerMeter{}}, nil
}

// Attach connects the running application and its monitor.
func (s *Server) Attach(inst *workload.Instance, mon *heartbeat.Monitor) {
	s.inst = inst
	s.mon = mon
	s.cur = workload.Cursor{}
}

// Config returns the current knob settings.
//
//lint:allow unusedexport the xeon_run golden records every beat's configuration through it
func (s *Server) Config() Config { return s.cfg }

// BeatCount reports how many beats the attached application has emitted;
// the dynamic oracle uses it to index the phase signal with perfect
// knowledge.
func (s *Server) BeatCount() uint64 { return s.cur.Beats() }

// SetConfig applies new knob settings (cpufrequtils / scheduler calls in
// the real system).
func (s *Server) SetConfig(cfg Config) error {
	if err := s.p.Validate(cfg); err != nil {
		return err
	}
	s.cfg = cfg
	return nil
}

// Metrics evaluates the model at the current configuration.
func (s *Server) Metrics() (Metrics, error) {
	if s.inst == nil {
		return Metrics{}, fmt.Errorf("xeon: no workload attached")
	}
	return Evaluate(s.p, s.inst.Spec, s.cfg)
}

// RunInterval advances the server by dt seconds, emitting heartbeats as
// work completes and integrating wall power into the meter.
func (s *Server) RunInterval(dt float64) (Metrics, error) {
	m, err := s.Metrics()
	if err != nil {
		return m, err
	}
	if dt <= 0 {
		return m, fmt.Errorf("xeon: non-positive interval %g", dt)
	}
	end := s.clock.Now() + dt
	for s.clock.Now() < end-1e-12 {
		step, beat, serr := s.cur.Step(s.inst, m.IPS, s.clock.Now(), end)
		if serr != nil {
			return m, fmt.Errorf("xeon: %w", serr)
		}
		s.clock.Advance(step)
		s.Meter.Integrate(m.PowerW, step)
		if beat && s.mon != nil {
			s.mon.Beat()
		}
	}
	return m, nil
}

// Actuators exposes the three §5.2 knobs as SEEC actuators, with effects
// declared relative to the server's current configuration (the nominal
// point).
func (s *Server) Actuators() ([]*actuator.Actuator, error) {
	if s.inst == nil {
		return nil, fmt.Errorf("xeon: attach a workload before building actuators")
	}
	spec, base := s.inst.Spec, s.cfg
	baseM, err := Evaluate(s.p, spec, base)
	if err != nil {
		return nil, err
	}
	// One knob is one Config field: with returns a configuration holding
	// value v there, both to price the setting against base and to apply
	// it to the live server.
	knobs := []struct {
		name    string
		values  []int
		nominal int
		delay   float64
		label   func(v int) string
		with    func(c Config, v int) Config
	}{
		{"core-allocation", actuator.Range(1, s.p.Cores), base.Cores, 0.05,
			func(v int) string { return fmt.Sprintf("%d cores", v) }, func(c Config, v int) Config { c.Cores = v; return c }},
		{"clock-speed", actuator.Range(0, len(s.p.FreqsGHz)-1), base.PState, 0.01,
			func(v int) string { return fmt.Sprintf("%.2fGHz", s.p.FreqsGHz[v]) }, func(c Config, v int) Config { c.PState = v; return c }},
		{"idle-cycles", actuator.Range(1, s.p.DutyLevels), base.Duty, 0.001,
			func(v int) string { return fmt.Sprintf("duty %d/%d", v, s.p.DutyLevels) }, func(c Config, v int) Config { c.Duty = v; return c }},
	}
	acts := make([]*actuator.Actuator, len(knobs))
	for i, k := range knobs {
		acts[i], err = actuator.Sweep(k.name, k.values, k.nominal, k.delay, actuator.GlobalScope, k.label,
			func(v int) (actuator.Effect, error) {
				m, merr := Evaluate(s.p, spec, k.with(base, v))
				if merr != nil {
					return actuator.Effect{}, merr
				}
				return actuator.Effect{
					Speedup: m.HeartRate / baseM.HeartRate,
					PowerX:  (m.PowerW - s.p.IdleW) / (baseM.PowerW - s.p.IdleW),
					Distort: 1,
				}, nil
			},
			func(level int) error { return s.SetConfig(k.with(s.cfg, k.values[level])) })
		if err != nil {
			return nil, err
		}
	}
	return acts, nil
}
