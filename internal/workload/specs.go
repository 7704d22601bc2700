package workload

import "fmt"

// The five benchmarks of §5.1. Parameters encode the published scaling
// character of each SPLASH-2 code (Woo et al., ISCA 1995; the Graphite
// and ARCc papers) rather than any single measured machine:
//
//   - barnes: N-body; near-perfect scaling, small shared tree, moderate
//     private body data, little communication. The paper's example of an
//     application that profitably consumes all 256 cores.
//   - ocean (non-contiguous): grid solver; streams a very large
//     partitioned working set, memory- and bandwidth-bound, heavy
//     nearest-neighbour communication, abrupt per-timestep phases.
//   - raytrace: irregular task-parallel; large shared scene, very uneven
//     work per ray (strong phases and noise), scaling limited by load
//     imbalance.
//   - water (spatial): molecular dynamics; small working set, compute
//     bound, mild phases, scales well but not perfectly.
//   - volrend: volume renderer; modest parallel fraction and the worst
//     scaling of the five, bursty frames.
func Specs() []Spec {
	return []Spec{
		{
			Name:         "barnes",
			ParallelFrac: 0.9995, SyncOverhead: 0.0002,
			MemOpsPerInstr: 0.15,
			SharedWSKB:     96, PrivateWSKB: 2048,
			MissFloor: 0.004, ZipfS: 0.7,
			FlitsPerKiloInstr: 4,
			InstrPerBeat:      2e6,
			PhaseAmp:          0.2, PhasePeriodBeats: 150000,
			PhaseShapeKind: PhaseSine, NoiseStd: 0.05,
		},
		{
			Name:         "ocean",
			ParallelFrac: 0.995, SyncOverhead: 0.001,
			MemOpsPerInstr: 0.30,
			SharedWSKB:     64, PrivateWSKB: 12288,
			MissFloor: 0.015, ZipfS: 0.3,
			FlitsPerKiloInstr: 12,
			InstrPerBeat:      3e6,
			PhaseAmp:          0.3, PhasePeriodBeats: 8000,
			PhaseShapeKind: PhaseSquare, NoiseStd: 0.08,
		},
		{
			Name:         "raytrace",
			ParallelFrac: 0.998, SyncOverhead: 0.003,
			MemOpsPerInstr: 0.20,
			SharedWSKB:     512, PrivateWSKB: 256,
			MissFloor: 0.006, ZipfS: 0.9,
			FlitsPerKiloInstr: 6,
			InstrPerBeat:      1.5e6,
			PhaseAmp:          0.3, PhasePeriodBeats: 150000,
			PhaseShapeKind: PhaseSquare, NoiseStd: 0.15,
		},
		{
			Name:         "water",
			ParallelFrac: 0.992, SyncOverhead: 0.0015,
			MemOpsPerInstr: 0.12,
			SharedWSKB:     48, PrivateWSKB: 384,
			MissFloor: 0.003, ZipfS: 0.8,
			FlitsPerKiloInstr: 3,
			InstrPerBeat:      2.5e6,
			PhaseAmp:          0.15, PhasePeriodBeats: 120000,
			PhaseShapeKind: PhaseSine, NoiseStd: 0.04,
		},
		{
			Name:         "volrend",
			ParallelFrac: 0.97, SyncOverhead: 0.004,
			MemOpsPerInstr: 0.18,
			SharedWSKB:     256, PrivateWSKB: 192,
			MissFloor: 0.005, ZipfS: 1.0,
			FlitsPerKiloInstr: 5,
			InstrPerBeat:      1e6,
			PhaseAmp:          0.35, PhasePeriodBeats: 200000,
			PhaseShapeKind: PhaseSquare, NoiseStd: 0.12,
		},
	}
}

// ByName looks up one of the five benchmarks.
func ByName(name string) (Spec, error) {
	for _, s := range Specs() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}
