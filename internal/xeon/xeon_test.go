package xeon

import (
	"math"
	"testing"
	"testing/quick"

	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

func spec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.Cores != 8 {
		t.Fatalf("cores = %d, want 8 (2× quad-core E5530)", p.Cores)
	}
	if len(p.FreqsGHz) != 7 {
		t.Fatalf("%d P-states, want 7", len(p.FreqsGHz))
	}
	if p.FreqsGHz[0] != 1.6 || p.FreqsGHz[6] != 2.4 {
		t.Fatalf("P-state range [%g,%g], want [1.6,2.4] GHz", p.FreqsGHz[0], p.FreqsGHz[6])
	}
	// Power envelope: idle ~90 W, full load ~220 W.
	barnes := spec(t, "barnes")
	full, err := Evaluate(p, barnes, Config{Cores: 8, PState: 6, Duty: p.DutyLevels})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.PowerW-220) > 1 {
		t.Fatalf("full-load power = %g W, want ~220", full.PowerW)
	}
	min, _ := Evaluate(p, barnes, Config{Cores: 1, PState: 0, Duty: 1})
	if min.PowerW <= p.IdleW || min.PowerW > 110 {
		t.Fatalf("lightest config power = %g W, want slightly above 90", min.PowerW)
	}
}

func TestEvaluateValidation(t *testing.T) {
	p := DefaultParams()
	barnes := spec(t, "barnes")
	for _, cfg := range []Config{
		{Cores: 0, PState: 0, Duty: 1},
		{Cores: 9, PState: 0, Duty: 1},
		{Cores: 1, PState: 7, Duty: 1},
		{Cores: 1, PState: 0, Duty: 0},
		{Cores: 1, PState: 0, Duty: 11},
	} {
		if _, err := Evaluate(p, barnes, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestMoreCoresFasterMorePower(t *testing.T) {
	p := DefaultParams()
	barnes := spec(t, "barnes")
	one, _ := Evaluate(p, barnes, Config{Cores: 1, PState: 3, Duty: 10})
	eight, _ := Evaluate(p, barnes, Config{Cores: 8, PState: 3, Duty: 10})
	if eight.HeartRate <= one.HeartRate*4 {
		t.Fatalf("8-core speedup %g too low for barnes", eight.HeartRate/one.HeartRate)
	}
	if eight.PowerW <= one.PowerW {
		t.Fatal("8 cores must draw more power")
	}
}

func TestClockSpeedupSublinearForMemoryBound(t *testing.T) {
	p := DefaultParams()
	ocean := spec(t, "ocean")
	water := spec(t, "water")
	rate := func(s workload.Spec, ps int) float64 {
		m, err := Evaluate(p, s, Config{Cores: 4, PState: ps, Duty: 10})
		if err != nil {
			t.Fatal(err)
		}
		return m.HeartRate
	}
	oceanGain := rate(ocean, 6) / rate(ocean, 0)
	waterGain := rate(water, 6) / rate(water, 0)
	clockRatio := 2.4 / 1.6
	if oceanGain >= waterGain {
		t.Fatalf("memory-bound ocean clock gain %g should trail water's %g", oceanGain, waterGain)
	}
	if waterGain > clockRatio {
		t.Fatalf("water clock gain %g exceeds the clock ratio %g", waterGain, clockRatio)
	}
}

func TestDutyScalesThroughputLinearly(t *testing.T) {
	p := DefaultParams()
	barnes := spec(t, "barnes")
	full, _ := Evaluate(p, barnes, Config{Cores: 4, PState: 3, Duty: 10})
	half, _ := Evaluate(p, barnes, Config{Cores: 4, PState: 3, Duty: 5})
	if math.Abs(half.HeartRate/full.HeartRate-0.5) > 1e-9 {
		t.Fatalf("half duty rate ratio = %g, want 0.5", half.HeartRate/full.HeartRate)
	}
	if half.PowerW >= full.PowerW {
		t.Fatal("half duty must save power")
	}
}

func TestPerfPerWattMetric(t *testing.T) {
	p := DefaultParams()
	m := Metrics{HeartRate: 100, PowerW: p.IdleW + 10}
	if got := p.PerfPerWatt(m, 40); math.Abs(got-4) > 1e-12 {
		t.Fatalf("PerfPerWatt = %g, want 4 (capped at target)", got)
	}
	if got := p.PerfPerWatt(Metrics{HeartRate: 5, PowerW: p.IdleW}, 5); got != 0 {
		t.Fatal("idle-only power must yield 0")
	}
}

func TestConfigsEnumeration(t *testing.T) {
	p := DefaultParams()
	want := 8 * 7 * 10
	if got := len(p.Configs()); got != want {
		t.Fatalf("|configs| = %d, want %d", got, want)
	}
}

func TestMaxHeartRatePositiveAndDominant(t *testing.T) {
	p := DefaultParams()
	for _, s := range workload.Specs() {
		max := p.MaxHeartRate(s)
		if max <= 0 {
			t.Fatalf("%s: max heart rate %g", s.Name, max)
		}
		m, _ := Evaluate(p, s, Config{Cores: 4, PState: 3, Duty: 7})
		if m.HeartRate > max {
			t.Fatalf("%s: mid config beats the reported maximum", s.Name)
		}
	}
}

func TestEvaluateDeterministicProperty(t *testing.T) {
	p := DefaultParams()
	specs := workload.Specs()
	f := func(c, ps, d, si uint8) bool {
		cfg := Config{
			Cores:  int(c)%8 + 1,
			PState: int(ps) % 7,
			Duty:   int(d)%10 + 1,
		}
		s := specs[int(si)%len(specs)]
		a, err1 := Evaluate(p, s, cfg)
		b, err2 := Evaluate(p, s, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		return a == b && a.HeartRate > 0 && a.PowerW > p.IdleW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerRunIntervalEmitsBeats(t *testing.T) {
	p := DefaultParams()
	clock := sim.NewClock(0)
	srv, err := NewServer(p, Config{Cores: 2, PState: 2, Duty: 10}, clock)
	if err != nil {
		t.Fatal(err)
	}
	mon := heartbeat.New(clock, heartbeat.WithEnergyMeter(srv.Meter))
	srv.Attach(workload.NewInstance(spec(t, "water"), 1), mon)
	m, err := srv.RunInterval(2.0)
	if err != nil {
		t.Fatal(err)
	}
	// Beats over 2 s should approximate rate × 2 (work noise aside).
	got := float64(mon.Count())
	want := m.HeartRate * 2
	if got < want*0.7 || got > want*1.3 {
		t.Fatalf("beats = %g over 2s, want ~%g", got, want)
	}
	obs := mon.Observe()
	if obs.PowerW < p.IdleW {
		t.Fatalf("observed power %g below idle", obs.PowerW)
	}
}

// Regression: RunInterval had no rate guard, so a model that evaluated
// to a non-positive IPS walked the clock backwards and panicked in
// sim.Clock.Advance ("clock advanced by negative dt"). It must return an
// error and leave the clock alone.
func TestServerRunIntervalRejectsNonPositiveIPS(t *testing.T) {
	for _, ghz := range []float64{-1, math.NaN()} {
		p := DefaultParams()
		p.FreqsGHz = []float64{ghz}
		clock := sim.NewClock(0)
		srv, err := NewServer(p, Config{Cores: 1, PState: 0, Duty: 10}, clock)
		if err != nil {
			t.Fatal(err)
		}
		srv.Attach(workload.NewInstance(spec(t, "water"), 1), heartbeat.New(clock))
		m, err := srv.RunInterval(1.0)
		if err == nil {
			t.Fatalf("%g GHz: interval accepted IPS %g", ghz, m.IPS)
		}
		if m.IPS > 0 {
			t.Fatalf("%g GHz still evaluates to IPS %g; the test no longer reaches the guard", ghz, m.IPS)
		}
		if clock.Now() != 0 || srv.BeatCount() != 0 {
			t.Fatalf("%g GHz: rejected interval moved the clock to %g (%d beats)", ghz, clock.Now(), srv.BeatCount())
		}
	}
}

func TestServerSetConfigValidates(t *testing.T) {
	clock := sim.NewClock(0)
	srv, _ := NewServer(DefaultParams(), Config{Cores: 1, PState: 0, Duty: 10}, clock)
	if err := srv.SetConfig(Config{Cores: 99, PState: 0, Duty: 10}); err == nil {
		t.Fatal("bad config accepted")
	}
	if srv.Config().Cores != 1 {
		t.Fatal("failed SetConfig mutated state")
	}
}

func TestServerActuatorsDriveConfig(t *testing.T) {
	p := DefaultParams()
	clock := sim.NewClock(0)
	srv, _ := NewServer(p, Config{Cores: 1, PState: 0, Duty: 10}, clock)
	srv.Attach(workload.NewInstance(spec(t, "barnes"), 2), heartbeat.New(clock))
	acts, err := srv.Actuators()
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 3 {
		t.Fatalf("%d actuators, want 3 (cores, clock, idle)", len(acts))
	}
	for _, a := range acts {
		if err := a.Validate(); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}
	// Apply 8 cores through the actuator; the server must follow.
	if err := acts[0].Set(7); err != nil {
		t.Fatal(err)
	}
	if srv.Config().Cores != 8 {
		t.Fatalf("server cores = %d after actuator, want 8", srv.Config().Cores)
	}
	// Speedup declared for 8 cores must exceed 1 for barnes.
	if acts[0].Settings[7].Effect.Speedup <= 1 {
		t.Fatal("8-core setting declares no speedup")
	}
}

func TestActuatorsRequireWorkload(t *testing.T) {
	clock := sim.NewClock(0)
	srv, _ := NewServer(DefaultParams(), Config{Cores: 1, PState: 0, Duty: 10}, clock)
	if _, err := srv.Actuators(); err == nil {
		t.Fatal("Actuators without workload did not error")
	}
}

func TestPowerMeterWindows(t *testing.T) {
	clock := sim.NewClock(0)
	m := NewPowerMeter(clock, 1.0)
	// 0.5 s at 100 W, 0.5 s at 200 W → window average 150 W.
	clock.Advance(0.5)
	m.Integrate(100, 0.5)
	clock.Advance(0.5)
	m.Integrate(200, 0.5)
	clock.Advance(1.0)
	m.Integrate(120, 1.0)
	s := m.Samples()
	if len(s) != 2 {
		t.Fatalf("%d samples, want 2", len(s))
	}
	if math.Abs(s[0]-150) > 1e-9 || math.Abs(s[1]-120) > 1e-9 {
		t.Fatalf("samples = %v, want [150 120]", s)
	}
	if m.LastSample() != s[1] {
		t.Fatal("LastSample mismatch")
	}
	if math.Abs(m.EnergyJoules()-270) > 1e-9 {
		t.Fatalf("energy = %g J, want 270", m.EnergyJoules())
	}
}

func TestPowerMeterSpanningIntegration(t *testing.T) {
	clock := sim.NewClock(0)
	m := NewPowerMeter(clock, 1.0)
	// One 2.5 s integration at 100 W must close two windows.
	clock.Advance(2.5)
	m.Integrate(100, 2.5)
	s := m.Samples()
	if len(s) != 2 || math.Abs(s[0]-100) > 1e-9 || math.Abs(s[1]-100) > 1e-9 {
		t.Fatalf("samples = %v, want two 100 W windows", s)
	}
}
