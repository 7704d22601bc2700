// Package workload provides the synthetic SPLASH-2-like benchmarks used
// throughout the evaluation (§5.1): barnes, ocean (non-contiguous),
// raytrace, water (spatial) and volrend.
//
// Real SPLASH-2 binaries cannot run inside this reproduction, but they do
// not need to: SEEC observes only heart rates, power, and counters, so
// any workload with the right *response surface* — how performance and
// power react to cores, cache, clock and network — exercises the same
// code paths. Each Spec captures the published scaling character of its
// namesake (parallel fraction, synchronization overhead, working set and
// locality, memory and communication intensity) plus a phase signal that
// makes work-per-heartbeat vary over time, which is what separates the
// dynamic oracle from the static oracle in Figure 3.
//
// A running copy of a benchmark is an Instance (deterministic per-beat
// work) plus a Cursor (cursor.go): the execution position every platform
// model advances to turn an instruction rate into beat completion times.
package workload

import (
	"fmt"
	"math"
	"sync"

	"angstrom/internal/sim"
)

// PhaseShape selects the waveform of the work-per-heartbeat signal.
type PhaseShape int

const (
	// PhaseSine is a smooth periodic load variation.
	PhaseSine PhaseShape = iota
	// PhaseSquare alternates abruptly between light and heavy phases
	// (e.g. raytrace moving between empty and dense screen regions).
	PhaseSquare
)

// Spec parameterizes one synthetic benchmark.
type Spec struct {
	Name string

	// --- Parallel scaling ---
	// ParallelFrac is the Amdahl parallel fraction.
	ParallelFrac float64
	// SyncOverhead is the per-doubling synchronization cost: the serial
	// equivalent added per log2(cores), as a fraction of unit work.
	SyncOverhead float64

	// --- Memory behaviour ---
	// MemOpsPerInstr is the fraction of instructions accessing memory.
	MemOpsPerInstr float64
	// SharedWSKB is the working-set footprint replicated on every core.
	SharedWSKB float64
	// PrivateWSKB is the aggregate partitionable footprint (divides
	// across cores).
	PrivateWSKB float64
	// MissFloor is the asymptotic miss rate with an infinite cache
	// (compulsory + coherence misses).
	MissFloor float64
	// ZipfS is the temporal-locality skew of the address stream: it
	// drives both the detailed (trace-driven) simulator's generator and
	// the analytic miss curve, so the two modes share one theory.
	ZipfS float64

	// --- Communication ---
	// FlitsPerKiloInstr is on-chip traffic beyond cache misses
	// (synchronization, data exchange), in flits per 1000 instructions.
	FlitsPerKiloInstr float64

	// --- Heartbeat structure ---
	// InstrPerBeat is the nominal work per heartbeat, in instructions.
	InstrPerBeat float64
	// PhaseAmp is the relative amplitude of the phase signal (0–1).
	PhaseAmp float64
	// PhasePeriodBeats is the phase cycle length, in beats.
	PhasePeriodBeats float64
	// PhaseShapeKind selects the waveform.
	PhaseShapeKind PhaseShape
	// NoiseStd is the relative per-beat noise on work.
	NoiseStd float64
}

// Validate reports whether the spec's parameters are physically sensible.
// NaN and infinite parameters are rejected up front: NaN compares false
// against every bound below, so without this guard a NaN field would
// sail through the range checks and poison every downstream curve.
func (s Spec) Validate() error {
	for _, v := range []float64{
		s.ParallelFrac, s.SyncOverhead, s.MemOpsPerInstr, s.SharedWSKB,
		s.PrivateWSKB, s.MissFloor, s.ZipfS, s.FlitsPerKiloInstr,
		s.InstrPerBeat, s.PhaseAmp, s.PhasePeriodBeats, s.NoiseStd,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s: non-finite parameter %g", s.Name, v)
		}
	}
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: empty name")
	case s.ParallelFrac <= 0 || s.ParallelFrac > 1:
		return fmt.Errorf("workload %s: parallel fraction %g outside (0,1]", s.Name, s.ParallelFrac)
	case s.SyncOverhead < 0:
		return fmt.Errorf("workload %s: negative sync overhead", s.Name)
	case s.MemOpsPerInstr < 0 || s.MemOpsPerInstr > 1:
		return fmt.Errorf("workload %s: memory intensity %g outside [0,1]", s.Name, s.MemOpsPerInstr)
	case s.MissFloor < 0 || s.MissFloor >= 1:
		return fmt.Errorf("workload %s: miss floor %g outside [0,1)", s.Name, s.MissFloor)
	case s.ZipfS < 0:
		return fmt.Errorf("workload %s: negative locality skew", s.Name)
	case s.SharedWSKB < 0 || s.PrivateWSKB < 0:
		return fmt.Errorf("workload %s: negative working set", s.Name)
	case s.InstrPerBeat <= 0:
		return fmt.Errorf("workload %s: non-positive work per beat", s.Name)
	case s.PhaseAmp < 0 || s.PhaseAmp >= 1:
		return fmt.Errorf("workload %s: phase amplitude %g outside [0,1)", s.Name, s.PhaseAmp)
	case s.PhasePeriodBeats <= 0:
		return fmt.Errorf("workload %s: non-positive phase period", s.Name)
	case s.NoiseStd < 0:
		return fmt.Errorf("workload %s: negative noise", s.Name)
	}
	return nil
}

// ParallelSpeedup is the ideal (memory-free) speedup on c cores:
// Amdahl's law plus a logarithmic synchronization term.
func (s Spec) ParallelSpeedup(c int) float64 {
	if c <= 1 {
		return 1
	}
	cf := float64(c)
	t := (1 - s.ParallelFrac) + s.ParallelFrac/cf + s.SyncOverhead*math.Log2(cf)
	return 1 / t
}

// speedupTables memoizes CachedSpeedup tables. The curve depends only
// on (ParallelFrac, SyncOverhead, size), so a fleet of thousands of
// applications enrolled over the same few specs shares a handful of
// tables instead of re-evaluating Amdahl + log2 per (app, unit count).
var speedupTables sync.Map // speedupKey -> []float64

type speedupKey struct {
	parallelFrac float64
	syncOverhead float64
	size         int
}

// CachedSpeedup returns ParallelSpeedup as a closure backed by a shared
// memoized table covering 1..size cores (larger counts fall through to
// the direct evaluation). Fleet-scale consumers — the serving daemon
// enrolls one scaling curve per application, and the manager's demand
// inversion probes it every decision period — read array slots instead
// of recomputing the transcendentals each call.
func (s Spec) CachedSpeedup(size int) func(int) float64 {
	if size < 1 {
		size = 1
	}
	key := speedupKey{s.ParallelFrac, s.SyncOverhead, size}
	v, ok := speedupTables.Load(key)
	if !ok {
		table := make([]float64, size+1)
		for c := 1; c <= size; c++ {
			table[c] = s.ParallelSpeedup(c)
		}
		v, _ = speedupTables.LoadOrStore(key, table)
	}
	table := v.([]float64)
	return func(c int) float64 {
		if c >= 1 && c < len(table) {
			return table[c]
		}
		return s.ParallelSpeedup(c)
	}
}

// EffectiveWSKB is the per-core working-set footprint on c cores: the
// shared footprint plus the core's slice of the partitionable data.
func (s Spec) EffectiveWSKB(c int) float64 {
	if c < 1 {
		c = 1
	}
	return s.SharedWSKB + s.PrivateWSKB/float64(c)
}

// MissRate is the analytic L2 miss-rate model, derived from the same
// Zipf reference model the trace generator samples: with skew s over W
// working-set lines, the hottest C lines carry ≈ (C/W)^(1−s) of the
// accesses, so a cache holding them misses the rest. A cache covering
// the whole working set misses only the floor (compulsory + coherence).
// The detailed simulator replaces this curve with real caches; the two
// agree because they instantiate the same reference model.
func (s Spec) MissRate(cacheKB float64, cores int) float64 {
	return missCurve(cacheKB, s.EffectiveWSKB(cores), s.ZipfS, s.MissFloor)
}

// AggregateMissRate is the same curve for a chip-wide shared (NUCA)
// cache of capacityKB against the full, unpartitioned footprint.
func (s Spec) AggregateMissRate(capacityKB float64) float64 {
	return missCurve(capacityKB, s.SharedWSKB+s.PrivateWSKB, s.ZipfS, s.MissFloor)
}

func missCurve(cacheKB, wsKB, zipfS, floor float64) float64 {
	if cacheKB <= 0 {
		return 1
	}
	x := cacheKB / wsKB
	if x > 1 {
		x = 1
	}
	// Exponent floor keeps very skewed streams (s near 1) from degener-
	// ating to "any cache captures everything".
	exp := math.Max(1-zipfS, 0.05)
	capacity := 1 - math.Pow(x, exp)
	return floor + (1-floor)*capacity
}

// WorkAt returns the deterministic (noise-free) work multiplier of the
// phase signal at beat n: mean 1, varying by ±PhaseAmp.
func (s Spec) WorkAt(n uint64) float64 {
	phase := 2 * math.Pi * float64(n) / s.PhasePeriodBeats
	switch s.PhaseShapeKind {
	case PhaseSquare:
		if math.Sin(phase) >= 0 {
			return 1 + s.PhaseAmp
		}
		return 1 - s.PhaseAmp
	default:
		return 1 + s.PhaseAmp*math.Sin(phase)
	}
}

// Instance is a running copy of a benchmark: the spec plus deterministic
// per-beat noise. Two instances built with the same seed produce
// identical work sequences, which is what lets the dynamic oracle be
// computed by post-processing the very same run (§5.2).
type Instance struct {
	Spec
	seed uint64
}

// NewInstance creates a run of the benchmark with the given noise seed.
func NewInstance(spec Spec, seed uint64) *Instance {
	return &Instance{Spec: spec, seed: seed}
}

// WorkForBeat returns the instructions the application must execute to
// emit beat n. Deterministic in (seed, n).
func (in *Instance) WorkForBeat(n uint64) float64 {
	w := in.Spec.InstrPerBeat * in.Spec.WorkAt(n)
	if in.NoiseStd > 0 {
		// Per-beat RNG keyed by (seed, n) so lookups are random access.
		r := sim.NewRNG(in.seed ^ (n+1)*0x9e3779b97f4a7c15)
		w *= math.Max(0.05, 1+r.Norm(0, in.NoiseStd))
	}
	return w
}

// MeanWorkPerBeat returns the long-run mean instructions per beat
// (≈ InstrPerBeat; the phase signal has mean 1).
func (in *Instance) MeanWorkPerBeat() float64 { return in.Spec.InstrPerBeat }
