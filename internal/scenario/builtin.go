package scenario

import "fmt"

// Builtins returns the named scenario library: each entry is a
// self-contained spec with budgets tuned to the daemon's current
// behavior, so a regression in arbitration, control, or recovery shows
// up as a budget violation in `make scenarios`.
func Builtins() []Spec {
	return []Spec{
		{
			// A steady fleet comfortably inside the pool: the baseline
			// gate — if this regresses, everything else is noise.
			Name: "steady", Seed: 1, Ticks: 120, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20,
			Classes: []Class{
				{Name: "web", Workload: "barnes", Count: 24, MinRate: 16, MaxRate: 48, BaseRate: 10, NoiseStd: 0.05},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.85, MaxAppRegretFrac: 0.10},
		},
		{
			// Sinusoidal arrivals with exponential lifetimes: the fleet
			// breathes and the allocator must track the churn.
			Name: "diurnal", Seed: 7, Ticks: 240, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 30, Oversubscribe: true,
			Classes: []Class{
				{Name: "base", Workload: "ocean", Count: 16, MinRate: 12, MaxRate: 40, BaseRate: 10, NoiseStd: 0.05},
				{Name: "tide", Workload: "water", Count: 4, MinRate: 8, MaxRate: 30, BaseRate: 10,
					ArrivalsPerTick: 0.5, DiurnalAmp: 0.8, DiurnalPeriodTicks: 80, MeanLifeTicks: 30, NoiseStd: 0.05},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.80, MaxAppRegretFrac: 0.15},
		},
		{
			// The 10x arrival burst in one tick, decaying over ~30 ticks,
			// followed by a mass withdrawal of the survivors.
			Name: "flash-crowd", Seed: 11, Ticks: 200, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20, Oversubscribe: true,
			Classes: []Class{
				{Name: "web", Workload: "barnes", Count: 20, MinRate: 14, MaxRate: 48, BaseRate: 10, NoiseStd: 0.05},
				{Name: "burst", Workload: "raytrace", Count: 2, MinRate: 8, MaxRate: 30, BaseRate: 10,
					MeanLifeTicks: 30, NoiseStd: 0.05},
			},
			Events: []Event{
				{AtTick: 60, Kind: EventFlashCrowd, Class: "burst", Count: 40},
				{AtTick: 140, Kind: EventMassWithdraw, Class: "burst", Fraction: 0.8},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.06, MinFleetInBandFrac: 0.80, MaxAppRegretFrac: 0.15},
		},
		{
			// Program phases: work per beat steps through a deterministic
			// program and an event doubles it mid-run, invalidating every
			// demand estimate the controllers have cached.
			Name: "phased", Seed: 13, Ticks: 200, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20,
			Classes: []Class{
				{Name: "app", Workload: "volrend", Count: 20, MinRate: 10, MaxRate: 40, BaseRate: 10,
					NoiseStd: 0.05,
					Phases:   []PhaseStep{{AtTick: 50, WorkScale: 1.6}, {AtTick: 110, WorkScale: 0.7}}},
			},
			Events: []Event{
				{AtTick: 150, Kind: EventPhaseShift, Class: "app", Factor: 2},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.85, MaxAppRegretFrac: 0.10},
		},
		{
			// Two SLO classes fighting over a scarce pool: gold's weight-8
			// priority must buy it the band while bronze is shed.
			Name: "slo-classes", Seed: 17, Ticks: 160, TickSeconds: 0.5,
			Cores: 32, WarmupTicks: 20, Oversubscribe: true,
			Classes: []Class{
				{Name: "gold", Workload: "water", Count: 20, MinRate: 10, MaxRate: 30, Priority: 8, BaseRate: 10, NoiseStd: 0.05},
				{Name: "bronze", Workload: "water", Count: 20, MinRate: 10, MaxRate: 30, BaseRate: 10, NoiseStd: 0.05},
			},
			Budgets: Budgets{MinFleetInBandFrac: 0.40},
		},
		{
			// Goal thrash: the band doubles and reverts every 10 ticks for
			// 80 ticks while the fleet keeps serving.
			Name: "goal-thrash", Seed: 19, Ticks: 200, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20,
			Classes: []Class{
				{Name: "app", Workload: "barnes", Count: 24, MinRate: 10, MaxRate: 30, BaseRate: 10, NoiseStd: 0.05},
			},
			Events: []Event{
				{AtTick: 60, Kind: EventGoalThrash, Class: "app", Factor: 2, EveryTicks: 10, UntilTick: 140},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.80, MaxAppRegretFrac: 0.10},
		},
		{
			// Two crash-restarts mid-scenario: the daemon is killed and
			// recovered from its journal while the fleet keeps beating.
			// Journal-only recovery is byte-identical to an uncrashed run,
			// so the budgets are the steady ones.
			Name: "crash-restart", Seed: 23, Ticks: 160, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 20,
			Classes: []Class{
				{Name: "app", Workload: "ocean", Count: 20, MinRate: 12, MaxRate: 40, BaseRate: 10, NoiseStd: 0.05},
			},
			Events: []Event{
				{AtTick: 60, Kind: EventCrashRestart},
				{AtTick: 110, Kind: EventCrashRestart},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.05, MinFleetInBandFrac: 0.80, MaxAppRegretFrac: 0.10},
		},
		{
			// The paper's one-chip claim (§3–§4): a mixed SPLASH-2 fleet
			// space-shares one 128-tile die and every app reaches its band
			// through hardware knobs alone — cores, L2 capacity and DVFS.
			// Each band is 0.5× the model's heart rate at the app's fair
			// share (2 cores, 64 KB, VF 1), ±10%. The model's default
			// 51.2 GB/s bus cannot feed 60 tenants; 200 GB/s can.
			Name: "one-die", Seed: 37, Ticks: 100, TickSeconds: 0.5,
			Cores: 128, WarmupTicks: 40,
			Chips: 1, ChipTiles: 128, ChipMemBWGBps: 200,
			Classes: []Class{
				{Name: "barnes", Workload: "barnes", Count: 12, MinRate: 50.5, MaxRate: 61.7},
				{Name: "ocean", Workload: "ocean", Count: 12, MinRate: 11.5, MaxRate: 14.1},
				{Name: "raytrace", Workload: "raytrace", Count: 12, MinRate: 141, MaxRate: 172},
				{Name: "water", Workload: "water", Count: 12, MinRate: 86.6, MaxRate: 106},
				{Name: "volrend", Workload: "volrend", Count: 12, MinRate: 302, MaxRate: 370},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.02, MinFleetInBandFrac: 0.95, MaxAppRegretFrac: 0.05},
		},
		{
			// The same fleet oversubscribing a 32-tile die: the manager
			// time-shares tiles (fractional grants) instead of refusing
			// enrollment. Each band is the one-core rule scaled by the
			// fair time share, 0.5× the 1-core rate × 32/60, ±10%.
			Name: "time-shared-die", Seed: 41, Ticks: 100, TickSeconds: 0.5,
			Cores: 32, WarmupTicks: 40, Oversubscribe: true,
			Chips: 1, ChipTiles: 32, ChipMemBWGBps: 200,
			Classes: []Class{
				{Name: "barnes", Workload: "barnes", Count: 12, MinRate: 12.6, MaxRate: 15.4},
				{Name: "ocean", Workload: "ocean", Count: 12, MinRate: 3.26, MaxRate: 3.99},
				{Name: "raytrace", Workload: "raytrace", Count: 12, MinRate: 29.34, MaxRate: 35.86},
				{Name: "water", Workload: "water", Count: 12, MinRate: 19.43, MaxRate: 23.75},
				{Name: "volrend", Workload: "volrend", Count: 12, MinRate: 71.74, MaxRate: 87.69},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.04, MinFleetInBandFrac: 0.88, MaxAppRegretFrac: 0.15},
		},
		{
			// Multi-chip federation: a memory-heavy fleet spread across two
			// dies by the interference-aware placer, then one die's memory
			// bandwidth collapses to 35% mid-run. The migration policy must
			// walk applications off the saturated die until both dies serve
			// their bands again; with migration disabled (the control the
			// federation test runs) the stranded apps eat the regret budget.
			Name: "federation", Seed: 31, Ticks: 200, TickSeconds: 0.5,
			Cores: 48, WarmupTicks: 40, Oversubscribe: true,
			Chips: 2, ChipMemBWGBps: 30,
			Classes: []Class{
				{Name: "mem", Workload: "ocean", Count: 6, MinRate: 22, MaxRate: 40},
			},
			Events: []Event{
				{AtTick: 90, Kind: EventChipSaturate, Chip: 0, Factor: 0.35},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.10, MinFleetInBandFrac: 0.60, MaxAppRegretFrac: 0.30},
		},
		{
			// Everything at once: priorities, diurnal churn, a flash crowd
			// landing during a goal thrash, a phase shift, a crash, and a
			// mass withdrawal. The budgets are looser than the single-chaos
			// scenarios'; the hard gate is survival plus byte-identical
			// replay.
			Name: "torture", Seed: 29, Ticks: 300, TickSeconds: 0.5,
			Cores: 64, WarmupTicks: 30, Oversubscribe: true,
			Classes: []Class{
				{Name: "gold", Workload: "water", Count: 12, MinRate: 12, MaxRate: 36, Priority: 4, BaseRate: 10, NoiseStd: 0.08, DistortionAmp: 0.2},
				{Name: "churn", Workload: "raytrace", Count: 6, MinRate: 8, MaxRate: 30, BaseRate: 10,
					ArrivalsPerTick: 0.4, DiurnalAmp: 0.7, DiurnalPeriodTicks: 100, MeanLifeTicks: 40, NoiseStd: 0.1},
				{Name: "phasey", Workload: "volrend", Count: 8, MinRate: 10, MaxRate: 40, BaseRate: 10,
					Phases: []PhaseStep{{AtTick: 80, WorkScale: 1.5}, {AtTick: 200, WorkScale: 0.8}}},
			},
			Events: []Event{
				{AtTick: 70, Kind: EventGoalThrash, Class: "gold", Factor: 1.5, EveryTicks: 12, UntilTick: 150},
				{AtTick: 100, Kind: EventFlashCrowd, Class: "churn", Count: 30},
				{AtTick: 160, Kind: EventCrashRestart},
				{AtTick: 180, Kind: EventPhaseShift, Class: "phasey", Factor: 1.8},
				{AtTick: 240, Kind: EventMassWithdraw, Fraction: 0.3},
			},
			Budgets: Budgets{MaxFleetRegretFrac: 0.08, MinFleetInBandFrac: 0.70, MaxAppRegretFrac: 0.30},
		},
	}
}

// ByName returns the builtin scenario with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("scenario: no builtin named %q", name)
}
