package angstrom

import (
	"fmt"
	"math"

	"angstrom/internal/actuator"
	"angstrom/internal/cache"
	"angstrom/internal/workload"
)

// CoherenceKind selects the chip's cache-coherence protocol (§4.2.2).
type CoherenceKind int

// The protocols Angstrom exposes: fixed directory, fixed shared-NUCA, or
// ARCc-style adaptive selection.
const (
	CoherenceDirectory CoherenceKind = iota
	CoherenceNUCA
	CoherenceAdaptive
)

// String implements fmt.Stringer.
func (k CoherenceKind) String() string {
	switch k {
	case CoherenceDirectory:
		return "directory"
	case CoherenceNUCA:
		return "nuca"
	case CoherenceAdaptive:
		return "arcc"
	default:
		return fmt.Sprintf("coherence(%d)", int(k))
	}
}

// Config is one hardware configuration of the chip — the joint setting
// of every actuator Angstrom exposes to SEEC.
type Config struct {
	// Cores allocated to the application (power of two up to MaxCores).
	Cores int
	// CacheKB is the enabled per-core L2 capacity.
	CacheKB int
	// VF indexes Params.VF.
	VF int
	// Coherence selects the protocol.
	Coherence CoherenceKind
	// EVC and BAN enable the corresponding NoC adaptations (priced by
	// the interval model; the trace-driven mesh models EVC only).
	EVC, BAN bool
}

// The chip's three knob axes, in the order Partition.Knobs returns a
// partition's knobs and Params.Actuators declares a chip action space:
// each indexes a Config field through Level and With.
const (
	AxisCores = iota // Config.Cores
	AxisL2           // Config.CacheKB
	AxisDVFS         // Config.VF
)

// L2LadderKB is the model's ascending per-core L2 capacity ladder.
var L2LadderKB = []int{32, 64, 128}

// axes declares each knob axis once: the name its knob and actuator
// carry, its actuation delay in seconds, and the label of its rung at
// value v.
var axes = [...]struct {
	name  string
	delay float64
	label func(p *Params, v int) string
}{
	AxisCores: {"cores", 0.001, func(_ *Params, v int) string { return fmt.Sprintf("%d cores", v) }},
	AxisL2:    {"l2-capacity", 0.0001, func(_ *Params, v int) string { return fmt.Sprintf("%dKB L2", v) }},
	AxisDVFS: {"dvfs", 0.0005, func(p *Params, v int) string {
		return fmt.Sprintf("%.1fV/%.0fMHz", p.VF[v].Volts, p.VF[v].FHz/1e6)
	}},
}

// Label is the label of axis's rung at value v: what the axis's
// actuator names that setting.
func (p *Params) Label(axis, v int) string { return axes[axis].label(p, v) }

// Actuators declares a chip action space for spec: one actuator per
// axis, in axis order, whose settings are ladders[axis] and whose
// declared effects are the model's predicted multipliers relative to
// base (the designer-declared model of §3.2; the runtime's adaptive
// layer corrects any divergence). Active power (beyond uncore) is
// floored at 1e-9 W on both sides of each power ratio. apply, when
// non-nil, drives a setting: it receives the axis and the setting's
// rung, the index into ladders[axis] that actuator.Knob.SetLevel takes.
// A nil apply declares the settings only (see actuator.Sweep).
func (p Params) Actuators(spec workload.Spec, base Config, ladders [3][]int, apply func(axis, level int) error) ([]*actuator.Actuator, error) {
	baseM, err := Evaluate(p, spec, base)
	if err != nil {
		return nil, err
	}
	baseActive := math.Max(baseM.PowerW-p.UncoreW, 1e-9)
	acts := make([]*actuator.Actuator, len(axes))
	for axis, ax := range axes {
		var set func(level int) error
		if apply != nil {
			set = func(level int) error { return apply(axis, level) }
		}
		acts[axis], err = actuator.Sweep(ax.name, ladders[axis], base.Level(axis), ax.delay, actuator.GlobalScope,
			func(v int) string { return p.Label(axis, v) },
			func(v int) (actuator.Effect, error) {
				m, merr := Evaluate(p, spec, base.With(axis, v))
				if merr != nil {
					return actuator.Effect{}, merr
				}
				return actuator.Effect{
					Speedup: m.HeartRate / baseM.HeartRate,
					PowerX:  math.Max(m.PowerW-p.UncoreW, 1e-9) / baseActive,
					Distort: 1,
				}, nil
			}, set)
		if err != nil {
			return nil, err
		}
	}
	return acts, nil
}

// field is the Config field that axis indexes.
func (c *Config) field(axis int) *int { return [...]*int{&c.Cores, &c.CacheKB, &c.VF}[axis] }

// Level is the setting c holds on axis.
//
//angstrom:hotpath
func (c Config) Level(axis int) int { return *c.field(axis) }

// With returns c holding v on axis and every other setting unchanged.
//
//angstrom:hotpath
func (c Config) With(axis, v int) Config {
	*c.field(axis) = v
	return c
}

// Params are the chip-wide constants of the Angstrom model.
type Params struct {
	// MaxCores is the physical core count (the Angstrom design point is
	// 1000+; the §5.3 evaluation uses a 256-core instance).
	MaxCores int
	// VF lists the per-core operating points.
	VF []VFPoint
	// Core is the core energy model.
	Core CoreEnergy
	// SRAM is the cache array model.
	SRAM cache.SRAM
	// RouterCycles/LinkCycles/EVCCycles: NoC hop pipeline (see noc).
	RouterCycles, LinkCycles, EVCCycles float64
	// FlitEnergyPJ is transport energy per flit-hop at nominal voltage.
	FlitEnergyPJ float64
	// MemLatencyNs and MemEnergyPJ describe off-chip DRAM access.
	MemLatencyNs float64
	MemEnergyPJ  float64
	// MemBandwidthBps is aggregate off-chip bandwidth.
	MemBandwidthBps float64
	// NoCFlitBW is the per-link mesh bandwidth in flits/cycle; the
	// contention model derives total flit-hop capacity from it.
	// Non-positive means the default of 1.
	NoCFlitBW float64
	// UncoreW is constant chip overhead (clock spine, IO); it is also
	// the idle power subtracted by the perf/Watt metric.
	UncoreW float64
}

// DefaultParams is the 256-core-class Angstrom model used by the
// evaluation: 2012-era research-chip numbers (cf. [17, 8, 30]).
func DefaultParams() Params {
	return Params{
		MaxCores:        1024,
		VF:              VFPoints(),
		Core:            DefaultCoreEnergy(),
		SRAM:            cache.DefaultSRAM(),
		RouterCycles:    3,
		LinkCycles:      1,
		EVCCycles:       1,
		FlitEnergyPJ:    4.5,
		MemLatencyNs:    60,
		MemEnergyPJ:     20000,
		MemBandwidthBps: 51.2e9,
		NoCFlitBW:       1,
		UncoreW:         0.35,
	}
}

// Validate checks a configuration against the chip parameters.
func (p Params) Validate(cfg Config) error {
	if cfg.Cores < 1 || cfg.Cores > p.MaxCores {
		return fmt.Errorf("angstrom: %d cores outside [1,%d]", cfg.Cores, p.MaxCores)
	}
	if cfg.Cores&(cfg.Cores-1) != 0 {
		return fmt.Errorf("angstrom: core allocation %d not a power of two", cfg.Cores)
	}
	if cfg.CacheKB < 1 {
		return fmt.Errorf("angstrom: cache %d KB", cfg.CacheKB)
	}
	if cfg.VF < 0 || cfg.VF >= len(p.VF) {
		return fmt.Errorf("angstrom: VF index %d outside [0,%d)", cfg.VF, len(p.VF))
	}
	if !p.SRAM.Operational(p.VF[cfg.VF].Volts) {
		return fmt.Errorf("angstrom: SRAM not operational at %g V", p.VF[cfg.VF].Volts)
	}
	return nil
}

// Metrics is the model's output for one (workload, configuration) pair.
type Metrics struct {
	HeartRate float64 // application beats/s
	IPS       float64 // aggregate instructions/s
	PowerW    float64 // chip power
	CPI       float64 // per-core cycles per instruction
	MissRate  float64 // protocol-level miss rate per L2 access
	NetCycles float64 // average one-way network latency, cycles
	MemRho    float64 // off-chip bandwidth utilization

	// Shared-resource demand terms, the inputs of the cross-partition
	// contention model (contention.go): how hard this (workload,
	// configuration) pair pushes on the chip-wide memory bus and mesh
	// when it runs full-time at the model's IPS.
	MemBytesPerSec  float64 // off-chip traffic demand
	FlitHopsPerSec  float64 // NoC injection demand, flit-hops/s
	OffChipPerMemOp float64 // off-chip accesses per memory operation

	// Power breakdown (sums to PowerW). The closed local controllers of
	// Figure 2 optimize against their own component only.
	CoresW float64 // core dynamic + leakage, all allocated cores
	CacheW float64 // L2 dynamic + leakage, all allocated cores
	NoCW   float64 // network transport
	MemW   float64 // off-chip accesses
}

// memBehavior summarizes the memory system as the model assembler needs
// it; the statistical path computes it from the workload spec, the
// detailed path measures it on real caches and a real mesh.
type memBehavior struct {
	// perMemOpStallCycles: average stall cycles per memory operation,
	// excluding off-chip time (which the assembler scales by bandwidth
	// contention).
	perMemOpStallCycles float64
	// offChipPerMemOp: off-chip accesses per memory operation.
	offChipPerMemOp float64
	// flitHopsPerInstr: network flit-hops per instruction.
	flitHopsPerInstr float64
	// missRate is the protocol-level miss ratio (for reporting).
	missRate float64
}

// netLatency returns the average one-way packet latency in cycles for a
// cfg.Cores mesh, with EVC bypass if enabled.
func (p Params) netLatency(cfg Config) float64 {
	side := int(math.Ceil(math.Sqrt(float64(cfg.Cores))))
	if side < 1 {
		side = 1
	}
	avgHops := 2.0 * float64(side) / 3.0
	if avgHops < 1 {
		avgHops = 1
	}
	fullHop := p.RouterCycles + p.LinkCycles
	if !cfg.EVC || avgHops <= 2 {
		return avgHops * fullHop
	}
	// Dimension-ordered paths turn at most once: the first hop and the
	// turn hop pay the full pipeline, the rest bypass.
	express := avgHops - 2
	return 2*fullHop + express*(p.EVCCycles+p.LinkCycles)
}

// statBehavior is the analytic memory model (statistical mode).
func (p Params) statBehavior(spec workload.Spec, cfg Config) memBehavior {
	lnet := p.netLatency(cfg)
	v := p.VF[cfg.VF].Volts
	l2 := p.SRAM.LatencyCycles(v)
	var b memBehavior
	dir := func() memBehavior {
		miss := spec.MissRate(float64(cfg.CacheKB), cfg.Cores)
		eff := spec.EffectiveWSKB(cfg.Cores)
		sharedFrac := 0.0
		if eff > 0 {
			sharedFrac = spec.SharedWSKB / eff
		}
		onChip := 0.8 * sharedFrac // shared lines are usually cached by a peer
		if cfg.Cores == 1 {
			onChip = 0
		}
		return memBehavior{
			perMemOpStallCycles: miss * (2*lnet + onChip*(lnet+l2)),
			offChipPerMemOp:     miss * (1 - onChip),
			flitHopsPerInstr:    spec.MemOpsPerInstr * miss * 6 * 2 * lnetHops(cfg),
			missRate:            miss,
		}
	}
	nuca := func() memBehavior {
		miss := spec.AggregateMissRate(float64(cfg.Cores * cfg.CacheKB))
		remote := float64(cfg.Cores-1) / float64(cfg.Cores)
		return memBehavior{
			perMemOpStallCycles: remote * 2 * lnet,
			offChipPerMemOp:     miss,
			flitHopsPerInstr:    spec.MemOpsPerInstr * remote * 6 * 2 * lnetHops(cfg),
			missRate:            miss,
		}
	}
	switch cfg.Coherence {
	case CoherenceNUCA:
		b = nuca()
	case CoherenceAdaptive:
		// ARCc measures both and keeps the cheaper, with a small
		// monitoring overhead.
		d, n := dir(), nuca()
		memCyc := p.MemLatencyNs * 1e-9 * p.VF[cfg.VF].FHz
		dc := d.perMemOpStallCycles + d.offChipPerMemOp*memCyc
		nc := n.perMemOpStallCycles + n.offChipPerMemOp*memCyc
		if nc < dc {
			b = n
		} else {
			b = d
		}
		b.perMemOpStallCycles *= 1.02
	default:
		b = dir()
	}
	// Synchronization/data-exchange traffic beyond misses.
	b.flitHopsPerInstr += spec.FlitsPerKiloInstr / 1000 * lnetHops(cfg)
	return b
}

// lnetHops is the average hop count for the allocation's mesh.
func lnetHops(cfg Config) float64 {
	side := math.Ceil(math.Sqrt(float64(cfg.Cores)))
	h := 2 * side / 3
	if h < 1 {
		h = 1
	}
	return h
}

// assemble turns a memory behaviour into chip metrics, running the
// bandwidth-contention fixed point.
func (p Params) assemble(spec workload.Spec, cfg Config, b memBehavior) Metrics {
	vf := p.VF[cfg.VF]
	f, v := vf.FHz, vf.Volts
	memCycBase := p.MemLatencyNs * 1e-9 * f
	commStall := spec.FlitsPerKiloInstr / 1000 * p.netLatency(cfg) * 0.2

	rho := 0.0
	var cpi, ips, bw float64
	for iter := 0; iter < 4; iter++ {
		memCyc := memCycBase / math.Max(1-rho, 0.05)
		cpi = 1 + spec.MemOpsPerInstr*(b.perMemOpStallCycles+b.offChipPerMemOp*memCyc) + commStall
		coreIPS := f / cpi
		ips = coreIPS * spec.ParallelSpeedup(cfg.Cores)
		bw = ips * spec.MemOpsPerInstr * b.offChipPerMemOp * float64(workload.LineBytes)
		rho = math.Min(bw/p.MemBandwidthBps, 0.95)
	}

	// Power assembly. Only allocated cores draw power (the rest are
	// power-gated); stalled cycles burn StallActivity of dynamic energy.
	// Allocated cores beyond what the workload's parallelism keeps busy
	// (Amdahl serial sections, load imbalance) sit clock-gated at the
	// spin-wait residue.
	util := 1 / cpi
	if util > 1 {
		util = 1
	}
	activity := util + p.Core.StallActivity*(1-util)
	busy := spec.ParallelSpeedup(cfg.Cores)
	const spinResidue = 0.25
	busyFrac := (busy + spinResidue*(float64(cfg.Cores)-busy)) / float64(cfg.Cores)
	coreDynW := f * p.Core.DynamicPJPerCycle(v) * 1e-12 * activity * busyFrac
	coreLeakW := p.Core.LeakW(v)
	perCoreMemOps := (f / cpi) * spec.MemOpsPerInstr
	cacheDynW := perCoreMemOps * (0.7*p.SRAM.ReadPJ(v) + 0.3*p.SRAM.WritePJ(v)) * 1e-12
	cacheLeakW := p.SRAM.LeakW(float64(cfg.CacheKB), v)

	flitHopsPerSec := ips * b.flitHopsPerInstr
	flitPJ := p.FlitEnergyPJ * (v * v) / (0.8 * 0.8)
	if cfg.EVC {
		flitPJ *= 0.8 // bypassed buffering
	}
	nocW := flitHopsPerSec * flitPJ * 1e-12
	if cfg.BAN {
		nocW *= 1.05 // allocator overhead
	}

	memAccPerSec := ips * spec.MemOpsPerInstr * b.offChipPerMemOp
	memW := memAccPerSec * p.MemEnergyPJ * 1e-12

	coresW := float64(cfg.Cores) * (coreDynW + coreLeakW)
	cachesW := float64(cfg.Cores) * (cacheDynW + cacheLeakW)
	power := coresW + cachesW + nocW + memW + p.UncoreW

	return Metrics{
		HeartRate:       ips / spec.InstrPerBeat,
		IPS:             ips,
		PowerW:          power,
		CPI:             cpi,
		MissRate:        b.missRate,
		NetCycles:       p.netLatency(cfg),
		MemRho:          rho,
		MemBytesPerSec:  bw,
		FlitHopsPerSec:  flitHopsPerSec,
		OffChipPerMemOp: b.offChipPerMemOp,
		CoresW:          coresW,
		CacheW:          cachesW,
		NoCW:            nocW,
		MemW:            memW,
	}
}

// Evaluate is the statistical (interval-analytic) chip model: fast
// enough to sweep the full configuration space of §5.3.
func Evaluate(p Params, spec workload.Spec, cfg Config) (Metrics, error) {
	if err := p.Validate(cfg); err != nil {
		return Metrics{}, err
	}
	if err := spec.Validate(); err != nil {
		return Metrics{}, err
	}
	return p.assemble(spec, cfg, p.statBehavior(spec, cfg)), nil
}
