package experiment

import (
	"flag"
	"fmt"
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
	"angstrom/internal/xeon"
)

// The golden tests pin the simulation side's numbers byte for byte: the
// three figures as rendered at the reduced test options, and one closed
// loop per platform model (SEEC on the Angstrom chip's core, L2 and DVFS
// knobs, and the Figure-3 SEEC run in miniature) recorded at full float
// precision — every beat time, energy integral, declared effect, and
// chosen configuration. They are what proves a refactor of the
// beat-emission loop or the actuator tabulation bit-identical, the way
// chip_fleet's state_hash does on the serving side. Regenerate with
// `go test ./internal/experiment -run Golden -update` only when a change
// means to move the numbers.
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
}

func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop and trace-driven experiments")
	}
	f2, err := RunFig2(Fig2Options{Accesses: 40000})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig2.golden", f2.String())
	checkGolden(t, "fig3.golden", fig3Quick(t).String())
	f4, err := RunFig4(Fig4Options{Multiplier: 1.15})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig4.golden", f4.String())
}

// g renders a float with the shortest representation that round-trips,
// so two runs agree on a line iff they agree on every bit.
func g(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// dumpSpace records every declared effect of an action space.
func dumpSpace(b *strings.Builder, space *actuator.Space) {
	for _, a := range space.Acts {
		fmt.Fprintf(b, "actuator %s nominal=%d delay=%s scope=%v\n", a.Name, a.NominalIndex, g(a.DelaySeconds), a.Scope)
		for _, s := range a.Settings {
			fmt.Fprintf(b, "  %q value=%d speedup=%s power=%s distort=%s\n",
				s.Label, s.Value, g(s.Effect.Speedup), g(s.Effect.PowerX), g(s.Effect.Distort))
		}
	}
}

// dumpWindow records the monitor's retained beat times.
func dumpWindow(b *strings.Builder, mon *heartbeat.Monitor) {
	for _, r := range mon.Window() {
		fmt.Fprintf(b, "beat %d at %s\n", r.Seq, g(r.Time))
	}
}

func TestGoldenChipRun(t *testing.T) {
	p := angstrom.DefaultParams()
	clock := sim.NewClock(0)
	chip, err := angstrom.NewChip(p, angstrom.Config{Cores: 16, CacheKB: 64, VF: 0}, 256, clock)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	mon := heartbeat.New(clock, heartbeat.WithEnergyMeter(chip.Energy), heartbeat.WithWindow(41))
	chip.Attach(workload.NewInstance(spec, 3), mon)
	// A probe on tile 0's L2 miss counter queues records for its partner
	// core (§4.1, §4.3); it observes and must not move a number.
	probe := &angstrom.Probe{Counter: angstrom.CtrL2Misses, Op: angstrom.OpGE, Trigger: 10_000_000, Queue: chip.Tiles[0].Queue}
	if err := chip.Tiles[0].Probes.Attach(probe); err != nil {
		t.Fatal(err)
	}
	coreOpts, cacheOpts := []int{1, 4, 16, 64, 256}, []int{32, 64, 128}
	maxRate, err := chip.MaxHeartRate(coreOpts, cacheOpts)
	if err != nil {
		t.Fatal(err)
	}
	target := maxRate / 2
	mon.SetPerformanceGoal(target*0.95, target*1.05)
	acts, err := chip.BuildActuators(coreOpts, cacheOpts)
	if err != nil {
		t.Fatal(err)
	}
	space, err := actuator.NewSpace(acts...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New("barnes", clock, mon, space, core.Options{
		KalmanQ: (0.03 * target) * (0.03 * target),
		KalmanR: (0.02 * target) * (0.02 * target),
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	dumpSpace(&b, space)
	for step := 0; step < 40; step++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, sl := range d.Slices(1.0) {
			if err := space.Apply(sl.Cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := chip.RunInterval(sl.Duration); err != nil {
				t.Fatal(err)
			}
			cfg := chip.Config()
			fmt.Fprintf(&b, "step %d cfg=%d/%d/%d clock=%s beats=%d last=%s energy=%s temp=%s\n",
				step, cfg.Cores, cfg.CacheKB, cfg.VF, g(clock.Now()), mon.Count(), g(mon.LastTime()),
				g(chip.Energy.EnergyJoules()), g(chip.Tiles[0].Thermal.ReadC()))
		}
	}
	dumpWindow(&b, mon)
	checkGolden(t, "chip_run.golden", b.String())
	if ev := chip.Tiles[0].Partner.DrainEvents(100); len(ev) == 0 {
		t.Fatal("the L2-miss probe queued no event for the partner core")
	}
}

func TestGoldenXeonRun(t *testing.T) {
	p := xeon.DefaultParams()
	clock := sim.NewClock(0)
	srv, err := xeon.NewServer(p, initialConfig(p), clock)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("raytrace")
	if err != nil {
		t.Fatal(err)
	}
	mon := heartbeat.New(clock, heartbeat.WithEnergyMeter(srv.Meter), heartbeat.WithWindow(monitorWindow))
	srv.Attach(workload.NewInstance(spec, 7), mon)
	target := p.MaxHeartRate(spec) / 2
	mon.SetPerformanceGoal(target*0.98, target*1.02)
	acts, err := srv.Actuators()
	if err != nil {
		t.Fatal(err)
	}
	space, err := actuator.NewSpace(acts...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(spec.Name, clock, mon, space, core.Options{
		KalmanQ: (0.03 * target) * (0.03 * target),
		KalmanR: (0.02 * target) * (0.02 * target),
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	dumpSpace(&b, space)
	for step := 0; step < 40; step++ {
		d, err := rt.Step()
		if err != nil {
			t.Fatal(err)
		}
		for _, sl := range d.Slices(1.0) {
			if err := space.Apply(sl.Cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := srv.RunInterval(sl.Duration); err != nil {
				t.Fatal(err)
			}
			cfg := srv.Config()
			fmt.Fprintf(&b, "step %d cfg=%d/%d/%d clock=%s beats=%d last=%s energy=%s\n",
				step, cfg.Cores, cfg.PState, cfg.Duty, g(clock.Now()), srv.BeatCount(), g(mon.LastTime()),
				g(srv.Meter.EnergyJoules()))
		}
	}
	dumpWindow(&b, mon)
	checkGolden(t, "xeon_run.golden", b.String())
}
