package angstrom

import (
	"math"
	"sync"
	"testing"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

func newSharedChip(t testing.TB, tiles int) *SharedChip {
	t.Helper()
	sc, err := NewSharedChip(DefaultParams(), tiles)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func acquire(t testing.TB, sc *SharedChip, name string, cores int, share float64) (*Partition, *heartbeat.Monitor) {
	t.Helper()
	spec, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock(0)
	mon := heartbeat.New(clock, heartbeat.WithWindow(64))
	pt, err := sc.Acquire(name, workload.NewInstance(spec, 1), mon,
		Config{Cores: cores, CacheKB: 64, VF: 0}, share, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pt, mon
}

func TestSharedChipLedger(t *testing.T) {
	sc := newSharedChip(t, 8)
	a, _ := acquire(t, sc, "a", 4, 1)
	b, _ := acquire(t, sc, "b", 2, 1)
	if parts, used := sc.Usage(); parts != 2 || used != 6 {
		t.Fatalf("usage = %d parts, %g core-equivalents; want 2, 6", parts, used)
	}
	// Growth beyond the pool is refused; the old config survives.
	cfg := a.Config()
	cfg.Cores = 8
	if err := a.setConfig(cfg); err == nil {
		t.Fatal("8+2 cores fit an 8-tile chip")
	}
	if a.Config().Cores != 4 {
		t.Fatalf("failed resize mutated config to %d cores", a.Config().Cores)
	}
	// Halving b's time share frees core-equivalents for a to grow.
	cfgB := b.Config()
	cfgB.Cores = 1
	if err := b.setConfig(cfgB); err != nil {
		t.Fatal(err)
	}
	if err := b.SetShare(0.5); err != nil {
		t.Fatal(err)
	}
	if _, used := sc.Usage(); used != 4.5 {
		t.Fatalf("used = %g after shrink, want 4.5", used)
	}
	sc.Release("b")
	if err := a.setConfig(cfg); err != nil {
		t.Fatalf("4 core-equivalents free but 8-core resize refused: %v", err)
	}
	sc.Release("a")
	if parts, used := sc.Usage(); parts != 0 || used != 0 {
		t.Fatalf("after release: %d parts, %g used; want 0, 0", parts, used)
	}
	// Operations on a released partition fail cleanly.
	if err := a.Advance(1); err == nil {
		t.Fatal("released partition advanced")
	}
	if err := a.SetShare(0.5); err == nil {
		t.Fatal("released partition reshared")
	}
	sc.Release("nosuch") // no-op
}

func TestSharedChipAcquireValidation(t *testing.T) {
	sc := newSharedChip(t, 8)
	spec, _ := workload.ByName("barnes")
	inst := workload.NewInstance(spec, 1)
	mon := heartbeat.New(sim.NewClock(0))
	good := Config{Cores: 1, CacheKB: 64, VF: 0}
	if _, err := sc.Acquire("x", nil, mon, good, 1, 0); err == nil {
		t.Fatal("nil instance accepted")
	}
	if _, err := sc.Acquire("x", inst, nil, good, 1, 0); err == nil {
		t.Fatal("nil monitor accepted")
	}
	if _, err := sc.Acquire("x", inst, mon, Config{Cores: 3, CacheKB: 64}, 1, 0); err == nil {
		t.Fatal("non-power-of-two cores accepted")
	}
	if _, err := sc.Acquire("x", inst, mon, good, 1.5, 0); err == nil {
		t.Fatal("share > 1 accepted")
	}
	if _, err := sc.Acquire("x", inst, mon, good, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Acquire("x", inst, mon, good, 1, 0); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := sc.Acquire("y", inst, mon, Config{Cores: 16, CacheKB: 64}, 1, 0); err == nil {
		t.Fatal("16 cores fit 7 free tiles")
	}
}

// Advance emits beats at model-exact times: the monitor's windowed rate
// matches the model's share-scaled heart rate, with timestamps strictly
// inside the advanced interval.
func TestPartitionAdvanceEmitsModelRate(t *testing.T) {
	sc := newSharedChip(t, 16)
	pt, mon := acquire(t, sc, "a", 4, 0.5)
	want := pt.Sense().HeartRate
	if full := pt.Metrics().HeartRate; math.Abs(want-full*0.5) > 1e-9*full {
		t.Fatalf("share-scaled rate %g, model %g at share 0.5", want, full)
	}
	if err := pt.Advance(2); err != nil {
		t.Fatal(err)
	}
	obs := mon.Observe()
	if obs.Beats == 0 {
		t.Fatal("no beats after 2s")
	}
	if rel := math.Abs(obs.WindowRate-want) / want; rel > 0.25 {
		t.Fatalf("window rate %g vs model %g (%.0f%% off)", obs.WindowRate, want, rel*100)
	}
	for _, r := range mon.Window() {
		if r.Time <= 0 || r.Time > 2 {
			t.Fatalf("beat stamped at %g outside (0, 2]", r.Time)
		}
	}
	if now := pt.Now(); now != 2 {
		t.Fatalf("frontier %g after Advance(2)", now)
	}
	if err := pt.Advance(1); err != nil {
		t.Fatal(err) // no-op, never backwards
	}
	if pt.Sense().EnergyJ <= 0 {
		t.Fatal("no energy attributed")
	}
}

// Reconfiguring mid-run changes the rate going forward and keeps beat
// accounting consistent (work carry, no double emission).
func TestPartitionReconfigureMidRun(t *testing.T) {
	sc := newSharedChip(t, 16)
	pt, mon := acquire(t, sc, "a", 1, 1)
	if err := pt.Advance(1); err != nil {
		t.Fatal(err)
	}
	slowBeats := mon.Count()
	cores, cache, dvfs, err := pt.Knobs([]int{1, 2, 4, 8}, []int{32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := cores.SetLevel(3); err != nil {
		t.Fatal(err)
	}
	if err := dvfs.SetLevel(1); err != nil {
		t.Fatal(err)
	}
	if cache.Level() != 1 {
		t.Fatalf("cache level %d, want 1 (64KB)", cache.Level())
	}
	if got := pt.Config(); got.Cores != 8 || got.VF != 1 {
		t.Fatalf("config %+v after knob moves", got)
	}
	if err := pt.Advance(2); err != nil {
		t.Fatal(err)
	}
	fastBeats := mon.Count() - slowBeats
	if fastBeats <= slowBeats {
		t.Fatalf("8 cores at VF1 emitted %d beats/s vs %d at 1 core VF0", fastBeats, slowBeats)
	}
}

func TestPartitionKnobValidation(t *testing.T) {
	sc := newSharedChip(t, 16)
	pt, _ := acquire(t, sc, "a", 4, 1)
	if _, _, _, err := pt.Knobs([]int{1, 2}, []int{32, 64, 128}); err == nil {
		t.Fatal("core options missing current setting accepted")
	}
	if _, _, _, err := pt.Knobs([]int{4, 2, 1}, []int{64}); err == nil {
		t.Fatal("descending core options accepted")
	}
	cores, _, dvfs, err := pt.Knobs([]int{1, 2, 4, 8}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if err := cores.SetLevel(9); err == nil {
		t.Fatal("out-of-range core level accepted")
	}
	if err := dvfs.SetLevel(-1); err == nil {
		t.Fatal("negative VF level accepted")
	}
	if n := len(cores.(*fieldKnob).options); cores.Level() != 2 || n != 4 {
		t.Fatalf("core knob level %d/%d", cores.Level(), n)
	}
}

// Config.With sets exactly one axis and Config.Level reads it back: for
// every axis and every rung of its ladder, the other axes and the
// fields no knob drives are unchanged.
func TestConfigAxesRoundTrip(t *testing.T) {
	p := DefaultParams()
	base := Config{Cores: 4, CacheKB: 64, VF: 1, Coherence: CoherenceNUCA, EVC: true}
	ladders := [3][]int{{1, 2, 4, 8, 16, 32, 64}, L2LadderKB, actuator.Range(0, len(p.VF)-1)}
	for axis, ladder := range ladders {
		for _, v := range ladder {
			c := base.With(axis, v)
			if got := c.Level(axis); got != v {
				t.Errorf("axis %d: With(%d).Level = %d", axis, v, got)
			}
			for other := range ladders {
				if other != axis && c.Level(other) != base.Level(other) {
					t.Errorf("axis %d = %d moved axis %d from %d to %d", axis, v, other, base.Level(other), c.Level(other))
				}
			}
			if c.With(axis, base.Level(axis)) != base {
				t.Errorf("axis %d = %d: %+v does not restore to %+v", axis, v, c, base)
			}
		}
	}
}

// Sense is the serving hot path: it must not allocate.
func TestSenseZeroAlloc(t *testing.T) {
	sc := newSharedChip(t, 16)
	pt, _ := acquire(t, sc, "a", 4, 1)
	var s float64
	allocs := testing.AllocsPerRun(1000, func() { s += pt.Sense().IPS })
	if allocs != 0 {
		t.Fatalf("Sense allocates %g objects per call", allocs)
	}
	_ = s
}

// The partition surface is race-clean: knob moves, shares, Sense, and
// ledger reads from many goroutines while one goroutine advances.
func TestSharedChipConcurrent(t *testing.T) {
	sc := newSharedChip(t, 64)
	pt, _ := acquire(t, sc, "a", 4, 1)
	cores, cache, dvfs, err := pt.Knobs([]int{1, 2, 4, 8, 16}, []int{32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, k := range []struct {
		knob interface{ SetLevel(int) error }
	}{{cores}, {cache}, {dvfs}} {
		wg.Add(1)
		go func(set func(int) error) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = set(i % 3)
				i++
			}
		}(k.knob.SetLevel)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pt.Sense()
			sc.Usage()
			sc.TotalPowerW()
			_ = pt.SetShare(0.5)
			_ = pt.SetShare(1)
		}
	}()
	for i := 1; i <= 100; i++ {
		if err := pt.Advance(float64(i) * 0.01); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if _, used := sc.Usage(); used > 64 {
		t.Fatalf("ledger overdrawn: %g > 64", used)
	}
}
