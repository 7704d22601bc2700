package server

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// The runtime golden pins every decision a SEEC runtime makes on the two
// action-space shapes the daemon serves: the advisory 20-point threads ×
// DVFS ladder and the 42-point chip space (cores × L2 × V/F at the
// default ladders on 512 tiles). testdata/runtime_decisions.golden was
// written by running this file with -update in a checkout of the commit
// before a runtime's controller state became one block (flat RLS state,
// in-place hull rebuilds, a hull shared with its class until the first
// correction), with classRuntime there stubbed to core.New on the
// space. Each space is driven by two applications stepped in
// turn through goal changes that excite the corrector into many
// translator rebuilds, a power cap set and cleared, and a distortion
// bound; every Decision field is written in the shortest form that reads
// back to the same bits. Regenerate only for a change that means to move
// the decisions, and say so.

// runtimeCtor builds one application's runtime on the space.
type runtimeCtor func(app string, clock sim.Nower, mon *heartbeat.Monitor) (*core.Runtime, error)

// classRuntime builds runtimes the way admission does: through the
// space's class.
func classRuntime(space *actuator.Space) (runtimeCtor, error) {
	cl, err := core.NewClass(space)
	if err != nil {
		return nil, err
	}
	return func(app string, clock sim.Nower, mon *heartbeat.Monitor) (*core.Runtime, error) {
		return cl.New(app, clock, mon, core.Options{})
	}, nil
}

// goldenApp is one application of the golden run: a synthetic plant whose
// true speedup deviates from the declared model per setting, beating into
// its own monitor on its own simulated clock.
type goldenApp struct {
	clock *sim.Clock
	mon   *heartbeat.Monitor
	space *actuator.Space
	rt    *core.Runtime
	base  float64 // heart rate at declared speedup 1
	skew  float64 // per-rung deviation of the true speedup from the declared one
}

func (g *goldenApp) run(d core.Decision) {
	for _, sl := range d.Slices(1) {
		dev := 1.0
		for i, s := range sl.Cfg {
			dev *= 1 + g.skew*float64((s+i)%3-1)
		}
		rate := g.base * g.space.Effect(sl.Cfg).Speedup * dev
		end := g.clock.Now() + sl.Duration
		for g.clock.Now() < end {
			g.clock.Advance(1 / rate)
			g.mon.Beat()
		}
	}
}

func goldenFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func formatDecision(d core.Decision) string {
	f := goldenFloat
	return strings.Join([]string{
		f(d.Time), f(d.Goal), f(d.Observed), f(d.BaseEstimate), f(d.TargetSpeedup),
		fmt.Sprintf("lo=%d/%s/%s", d.Schedule.Lo.ID, f(d.Schedule.Lo.Speedup), f(d.Schedule.Lo.Power)),
		fmt.Sprintf("hi=%d/%s/%s", d.Schedule.Hi.ID, f(d.Schedule.Hi.Speedup), f(d.Schedule.Hi.Power)),
		f(d.Schedule.HiFrac), fmt.Sprint(d.LoCfg), fmt.Sprint(d.HiCfg), f(d.HiFrac), f(d.PredictedPower),
	}, " ")
}

// runtimeScript steps two applications deciding over space in turn and
// writes one line per decision. newRT builds each runtime.
func runtimeScript(t *testing.T, out *strings.Builder, label string, space *actuator.Space, capX float64, newRT runtimeCtor) {
	t.Helper()
	const steps = 120
	maxS := 0.0
	for _, p := range space.Points() {
		maxS = math.Max(maxS, p.Effect.Speedup)
	}
	apps := make([]*goldenApp, 2)
	for i := range apps {
		clock := sim.NewClock(0)
		g := &goldenApp{clock: clock, mon: heartbeat.New(clock), space: space, base: 10 + 3*float64(i), skew: 0.05 + 0.04*float64(i)}
		var err error
		if g.rt, err = newRT(fmt.Sprintf("%s-%d", label, i), clock, g.mon); err != nil {
			t.Fatal(err)
		}
		apps[i] = g
	}
	fracs := []float64{0.15, 0.6, 0.3, 0.85, 0.45, 0.7}
	for step := 0; step < steps; step++ {
		for i, g := range apps {
			if step%4 == 0 {
				lo := g.base * maxS * fracs[(step/4+i)%len(fracs)]
				g.mon.SetPerformanceGoal(lo, lo*1.1)
			}
			var err error
			switch {
			case step == 48+i:
				err = g.rt.SetPowerCap(capX)
			case step == 80+i:
				err = g.rt.ClearPowerCap()
			case step == 100:
				err = g.rt.SetDistortionBound(1.5)
			}
			if err != nil {
				t.Fatal(err)
			}
			d, err := g.rt.Step()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(out, "%s app%d %03d %s\n", label, i, step, formatDecision(d))
			g.run(d)
		}
	}
}

// goldenTemplates builds the two class spaces the golden covers.
func goldenTemplates(t *testing.T) (advisorySpace, chipSpace *actuator.Space) {
	t.Helper()
	spec, err := workload.ByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	if advisorySpace, err = buildSpace(spec); err != nil {
		t.Fatal(err)
	}
	cc := &ChipConfig{Tiles: 512}
	cc.fill(512)
	p, base := *cc.Params, cc.baseConfig()
	baseM, err := angstrom.Evaluate(p, spec, base)
	if err != nil {
		t.Fatal(err)
	}
	if chipSpace, err = buildChipSpace(p, spec, base, baseM, cc); err != nil {
		t.Fatal(err)
	}
	if n, m := len(advisorySpace.Points()), len(chipSpace.Points()); n != 20 || m != 42 {
		t.Fatalf("spaces of %d and %d points, want 20 and 42", n, m)
	}
	return advisorySpace, chipSpace
}

func TestRuntimeDecisionsGolden(t *testing.T) {
	advisorySpace, chipSpace := goldenTemplates(t)
	path := filepath.Join("testdata", "runtime_decisions.golden")
	for _, how := range []string{"private", "class"} {
		var out strings.Builder
		for _, sp := range []struct {
			label string
			space *actuator.Space
			capX  float64
		}{{"advisory", advisorySpace, 4}, {"chip", chipSpace, 3}} {
			var newRT runtimeCtor = func(app string, clock sim.Nower, mon *heartbeat.Monitor) (*core.Runtime, error) {
				return core.New(app, clock, mon, sp.space, core.Options{})
			}
			if how == "class" {
				var err error
				if newRT, err = classRuntime(sp.space); err != nil {
					t.Fatal(err)
				}
			}
			runtimeScript(t, &out, sp.label, sp.space, sp.capX, newRT)
		}
		got := out.String()
		if *updateGolden && how == "private" {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s runtimes: runtime_decisions.golden differs at line %d:\n got: %s\nwant: %s", how, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s runtimes: runtime_decisions.golden: %d lines, golden has %d", how, len(gl), len(wl))
	}
}
