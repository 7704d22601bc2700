package experiment

import (
	"strings"
	"testing"
)

// The experiment tests run reduced-size versions of each figure and
// assert the paper's qualitative claims — who wins, in which direction —
// rather than absolute numbers (cmd/figures prints the full-size
// paper-vs-measured comparison).

func fig3Quick(t *testing.T) Fig3Result {
	t.Helper()
	res, err := RunFig3(Fig3Options{DurationS: 40, WarmupS: 15})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig3OrderingMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop experiment")
	}
	res := fig3Quick(t)
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5 benchmarks", len(res.Rows))
	}
	// §5.2 headline claims (thresholds loosened for the shortened run;
	// cmd/figures prints the full-length numbers).
	if res.SEECOverStatic < 1.08 {
		t.Errorf("SEEC/static = %.3f, paper reports > 1.15", res.SEECOverStatic)
	}
	if res.SEECOverUncoordinated < 1.03 {
		t.Errorf("SEEC/uncoordinated = %.3f, paper reports > 1.20", res.SEECOverUncoordinated)
	}
	if res.SEECOfDynamic < 0.85 || res.SEECOfDynamic > 1.05 {
		t.Errorf("SEEC/dynamic = %.3f, paper reports ~0.94", res.SEECOfDynamic)
	}
	// SEEC must beat the non-adaptive baseline on every benchmark, and
	// beat uncoordinated adaptation on most.
	uncWins := 0
	for _, row := range res.Rows {
		if row.SEEC <= row.NoAdapt {
			t.Errorf("%s: SEEC %.3f not above no-adapt %.3f", row.Benchmark, row.SEEC, row.NoAdapt)
		}
		if row.SEEC > row.Uncoordinated {
			uncWins++
		}
	}
	if uncWins < 3 {
		t.Errorf("SEEC beat uncoordinated on only %d/5 benchmarks", uncWins)
	}
}

func TestFig3StringRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop experiment")
	}
	res := fig3Quick(t)
	s := res.String()
	for _, want := range []string{"barnes", "ocean", "raytrace", "water", "volrend", "dynamic"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered figure missing %q", want)
		}
	}
}

func TestFig4MatchesPaperShape(t *testing.T) {
	res, err := RunFig4(1.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(res.Rows))
	}
	// §5.3: "the non-adaptive system allocates 64 cores out of a
	// possible 256".
	if res.NoAdaptCfg.Cores != 64 {
		t.Errorf("non-adaptive config uses %d cores, paper reports 64", res.NoAdaptCfg.Cores)
	}
	// §5.3: "a static oracle allocates 256 cores for running barnes,
	// outperforming the non-adaptive configuration by over 5x" — we
	// require the right allocation and a multiple-fold win.
	for _, row := range res.Rows {
		if row.Benchmark != "barnes" {
			continue
		}
		if row.StaticCfg.Cores != 256 {
			t.Errorf("barnes static oracle uses %d cores, paper reports 256", row.StaticCfg.Cores)
		}
		if ratio := row.StaticOracle / row.NoAdapt; ratio < 3 {
			t.Errorf("barnes static/no-adapt = %.2f, paper reports > 5", ratio)
		}
	}
	// Static oracle must beat no-adapt for every benchmark; overall
	// average substantially above 1 (paper: 1.72).
	for _, row := range res.Rows {
		if row.StaticOracle <= row.NoAdapt {
			t.Errorf("%s: static %.3f not above no-adapt %.3f", row.Benchmark, row.StaticOracle, row.NoAdapt)
		}
	}
	if res.AvgStaticOverNoAdapt < 1.5 {
		t.Errorf("avg static/no-adapt = %.2f, paper reports 1.72", res.AvgStaticOverNoAdapt)
	}
	if res.AvgSEECOverNoAdapt < 2.0 {
		t.Errorf("avg SEEC/no-adapt = %.2f, paper reports > 2", res.AvgSEECOverNoAdapt)
	}
}

func TestFig4MultiplierDefault(t *testing.T) {
	res, err := RunFig4(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Multiplier != 1.15 {
		t.Fatalf("default multiplier = %g, want the paper's 1.15", res.Multiplier)
	}
	if !strings.Contains(res.String(), "256-core Angstrom") {
		t.Fatal("rendered figure missing title")
	}
}

func TestFig2ClosedSystemsOffFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven experiment")
	}
	res, err := RunFig2(Fig2Options{Accesses: 40000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(Fig2Cores())*len(Fig2Caches()) {
		t.Fatalf("%d points, want %d", len(res.Points), len(Fig2Cores())*len(Fig2Caches()))
	}
	// There must be a frontier and at least one closed-system choice
	// strictly off it in each family (§2's claim).
	frontier := 0
	for _, pt := range res.Points {
		if pt.Pareto {
			frontier++
		}
	}
	if frontier < 2 {
		t.Fatalf("Pareto frontier has %d points; expected a trade-off curve", frontier)
	}
	cacheOff, coreOff := res.OffFrontier()
	if len(cacheOff) == 0 {
		t.Error("every cache-only choice landed on the frontier; §2 expects sub-optimality")
	}
	if len(coreOff) == 0 {
		t.Error("every core-only choice landed on the frontier; §2 expects sub-optimality")
	}
	if !strings.Contains(res.String(), "Pareto") && !strings.Contains(res.String(), "pareto") {
		t.Error("rendered figure missing frontier annotation")
	}
}

func TestFig2EnergyPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven experiment")
	}
	res, err := RunFig2(Fig2Options{Accesses: 40000})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		if pt.EnergyJ <= 0 || pt.IPS <= 0 {
			t.Fatalf("config (%d cores, %d KB): energy %g, IPS %g", pt.Cores, pt.CacheKB, pt.EnergyJ, pt.IPS)
		}
	}
}
