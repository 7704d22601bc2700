package experiment

import (
	"fmt"

	"angstrom/internal/angstrom"
	"angstrom/internal/oracle"
	"angstrom/internal/workload"
)

// Fig4Row is one benchmark's §5.3 result: absolute perf/Watt for the
// non-adaptive system, the static oracle, and the predicted SEEC.
type Fig4Row struct {
	Benchmark  string
	TargetRate float64

	NoAdapt       float64
	StaticOracle  float64
	PredictedSEEC float64

	StaticCfg angstrom.Config
}

// Fig4Result is the Figure 4 dataset plus the §5.3 in-text numbers.
type Fig4Result struct {
	Rows       []Fig4Row
	NoAdaptCfg angstrom.Config
	// Multiplier is the SEEC/static-oracle ratio carried over from the
	// x86 experiment (the paper's 1.15).
	Multiplier float64

	AvgStaticOverNoAdapt    float64 // the paper's 72 %
	AvgSEECOverNoAdapt      float64 // the paper's "over 100 %"
	BarnesStaticOverNoAdapt float64 // the paper's "over 5x"
}

// Fig4Space enumerates the §5.3 configuration space: cache 32–128 KB by
// powers of two, cores 1–256 by powers of two, and the two V/f points.
func Fig4Space() []angstrom.Config {
	var out []angstrom.Config
	for cores := 1; cores <= 256; cores *= 2 {
		for _, kb := range []int{32, 64, 128} {
			for vf := 0; vf < 2; vf++ {
				out = append(out, angstrom.Config{Cores: cores, CacheKB: kb, VF: vf})
			}
		}
	}
	return out
}

// Fig4Options control the §5.3 experiment.
type Fig4Options struct {
	// Multiplier is the measured SEEC/static ratio from Figure 3
	// (<= 0 uses the paper's 1.15).
	Multiplier float64
	// Workers bounds the sweep's parallelism (0 = GOMAXPROCS, 1 =
	// serial). The characterization is a pure analytic model, so results
	// do not depend on the setting.
	Workers int
}

// RunFig4 regenerates Figure 4.
func RunFig4(opts Fig4Options) (Fig4Result, error) {
	multiplier := opts.Multiplier
	if multiplier <= 0 {
		multiplier = 1.15
	}
	p := angstrom.DefaultParams()
	specs := workload.Specs()
	configs := Fig4Space()

	// Targets: half the maximum rate achievable on a 64-core-class
	// allocation (the goals applications bring from the deployments the
	// non-adaptive baseline represents). Anchoring targets to the
	// baseline class is what lets the static oracle choose *efficient*
	// configurations — e.g. all 256 cores at 0.4 V for barnes — instead
	// of being forced to the high-voltage point, which is the §5.3 story.
	// One sweep job per benchmark sweeps the whole configuration space.
	type charRes struct {
		pts    []oracle.Point
		target float64
	}
	chars, err := Sweep(specs, opts.Workers, func(_ int, spec workload.Spec) (charRes, error) {
		pts := make([]oracle.Point, len(configs))
		best64 := 0.0
		for c, cfg := range configs {
			m, err := angstrom.Evaluate(p, spec, cfg)
			if err != nil {
				return charRes{}, err
			}
			pts[c] = oracle.Point{Rate: m.HeartRate, Power: m.PowerW - p.UncoreW}
			if cfg.Cores == 64 && m.HeartRate > best64 {
				best64 = m.HeartRate
			}
		}
		return charRes{pts: pts, target: best64 / 2}, nil
	})
	if err != nil {
		return Fig4Result{}, err
	}
	points := make([][]oracle.Point, len(specs))
	targets := make([]float64, len(specs))
	for a := range specs {
		points[a] = chars[a].pts
		targets[a] = chars[a].target
	}

	noAdaptIdx := oracle.BestMeetingAll(points, targets)
	res := Fig4Result{NoAdaptCfg: configs[noAdaptIdx], Multiplier: multiplier}

	var sumStatic, sumSEEC float64
	for a, spec := range specs {
		staticIdx, _ := oracle.BestMeeting(points[a], targets[a])
		noAdapt := oracle.Metric(points[a][noAdaptIdx], targets[a])
		static := oracle.Metric(points[a][staticIdx], targets[a])
		seec := static * multiplier
		res.Rows = append(res.Rows, Fig4Row{
			Benchmark:     spec.Name,
			TargetRate:    targets[a],
			NoAdapt:       noAdapt,
			StaticOracle:  static,
			PredictedSEEC: seec,
			StaticCfg:     configs[staticIdx],
		})
		sumStatic += safeRatio(static, noAdapt)
		sumSEEC += safeRatio(seec, noAdapt)
		if spec.Name == "barnes" {
			res.BarnesStaticOverNoAdapt = safeRatio(static, noAdapt)
		}
	}
	n := float64(len(res.Rows))
	res.AvgStaticOverNoAdapt = sumStatic / n
	res.AvgSEECOverNoAdapt = sumSEEC / n
	return res, nil
}

// String renders the figure as the paper presents it: bars normalized to
// predicted SEEC.
func (r Fig4Result) String() string {
	out := "Figure 4: anticipated SEEC results on a 256-core Angstrom (perf/Watt normalized to predicted SEEC)\n"
	out += fmt.Sprintf("non-adaptive config: %d cores, %d KB L2, %d th V/f point (shared by all benchmarks)\n",
		r.NoAdaptCfg.Cores, r.NoAdaptCfg.CacheKB, r.NoAdaptCfg.VF)
	out += fmt.Sprintf("%-10s %10s %9s %8s %8s   %s\n",
		"benchmark", "target/s", "no-adapt", "static", "SEEC", "static-oracle config")
	for _, row := range r.Rows {
		norm := func(v float64) float64 {
			if row.PredictedSEEC == 0 {
				return 0
			}
			return v / row.PredictedSEEC
		}
		out += fmt.Sprintf("%-10s %10.1f %9.3f %8.3f %8.3f   %d cores, %d KB, VF%d\n",
			row.Benchmark, row.TargetRate,
			norm(row.NoAdapt), norm(row.StaticOracle), 1.0,
			row.StaticCfg.Cores, row.StaticCfg.CacheKB, row.StaticCfg.VF)
	}
	out += fmt.Sprintf("static oracle / non-adaptive (mean) = %.2f   predicted SEEC / non-adaptive (mean) = %.2f\n",
		r.AvgStaticOverNoAdapt, r.AvgSEECOverNoAdapt)
	out += fmt.Sprintf("barnes static oracle / non-adaptive = %.2f\n", r.BarnesStaticOverNoAdapt)
	return out
}
