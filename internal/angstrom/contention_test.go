package angstrom

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// scarceParams returns the default chip with off-chip bandwidth cut to
// the given bytes/s, so a couple of memory-heavy partitions saturate it.
func scarceParams(memBps float64) Params {
	p := DefaultParams()
	p.MemBandwidthBps = memBps
	return p
}

func acquireOn(t testing.TB, sc *SharedChip, name, wl string, cfg Config, share float64) *Partition {
	t.Helper()
	spec, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	mon := heartbeat.New(sim.NewClock(0), heartbeat.WithWindow(64))
	pt, err := sc.Acquire(name, workload.NewInstance(spec, 1), mon, cfg, share, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// Regression: CPI < 1 (a superscalar model) made 1 - 1/CPI negative,
// and the stall counters it fed wrapped to near 2^64. The stall
// fraction Sense and the contention pass report clamps at zero.
func TestStallFracClampsAtZero(t *testing.T) {
	for _, c := range []struct{ cpi, want float64 }{{0.5, 0}, {math.NaN(), 0}, {1, 0}, {2, 0.5}} {
		if got := stallFrac(c.cpi); got != c.want {
			t.Fatalf("stallFrac(%g) = %g, want %g", c.cpi, got, c.want)
		}
	}
}

// A partition running alone reproduces its isolated model evaluation
// for memory exactly and pays only its own small mesh queueing term.
func TestContentionSoloNearIdentity(t *testing.T) {
	sc, err := NewSharedChip(DefaultParams(), 64)
	if err != nil {
		t.Fatal(err)
	}
	pt := acquireOn(t, sc, "solo", "ocean", Config{Cores: 16, CacheKB: 64, VF: 1}, 1)
	before := pt.Sense()
	sc.UpdateContention()
	in := pt.Interference()
	if in.Slowdown > 1 || in.Slowdown < 0.97 {
		t.Fatalf("solo slowdown %g, want ~1 (only self mesh queueing)", in.Slowdown)
	}
	after := pt.Sense()
	if after.IPS > before.IPS+1e-9 {
		t.Fatalf("contention pass raised IPS: %g -> %g", before.IPS, after.IPS)
	}
	c := sc.Contention()
	if c.Passes != 1 || c.MemDemandBps <= 0 || c.MemRho <= 0 {
		t.Fatalf("chip snapshot %+v after one pass", c)
	}
	// The solo partition's mem demand matches its model evaluation.
	if rel := math.Abs(c.MemDemandBps-pt.Metrics().MemBytesPerSec*in.Slowdown) / c.MemDemandBps; rel > 1e-9 {
		t.Fatalf("aggregated demand %g vs model %g", c.MemDemandBps, pt.Metrics().MemBytesPerSec)
	}
}

// Two bandwidth-heavy partitions on a scarce-bandwidth chip each sense
// lower IPS than the same partition running alone, and the chip-wide
// utilization reflects both tenants.
func TestContentionCoLocationDegrades(t *testing.T) {
	cfg := Config{Cores: 16, CacheKB: 64, VF: 1}
	p := scarceParams(12e9)

	solo, err := NewSharedChip(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	ptSolo := acquireOn(t, solo, "a", "ocean", cfg, 1)
	solo.UpdateContention()
	soloIPS := ptSolo.Sense().IPS
	soloSlow := ptSolo.Interference().Slowdown

	both, err := NewSharedChip(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	a := acquireOn(t, both, "a", "ocean", cfg, 1)
	b := acquireOn(t, both, "b", "ocean", cfg, 1)
	both.UpdateContention()
	for _, pt := range []*Partition{a, b} {
		in := pt.Interference()
		if in.Slowdown >= soloSlow {
			t.Fatalf("%s: co-located slowdown %g not below solo %g", pt.name, in.Slowdown, soloSlow)
		}
		if got := pt.Sense().IPS; got >= soloIPS {
			t.Fatalf("%s: co-located IPS %g not below solo %g", pt.name, got, soloIPS)
		}
		if in.MemRho <= ptSolo.Interference().MemRho {
			t.Fatalf("%s: shared mem rho %g not above solo %g", pt.name, in.MemRho, ptSolo.Interference().MemRho)
		}
	}
	if c := both.Contention(); c.MemRho <= solo.Contention().MemRho {
		t.Fatalf("chip mem rho %g with two tenants vs %g solo", c.MemRho, solo.Contention().MemRho)
	}
}

// Degradation slows actual execution, not just the sensor view: the
// co-located partition emits fewer beats over the same interval.
func TestContentionSlowsAdvance(t *testing.T) {
	cfg := Config{Cores: 16, CacheKB: 64, VF: 1}
	p := scarceParams(10e9)

	run := func(tenants int) uint64 {
		sc, err := NewSharedChip(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		var first *Partition
		for i := 0; i < tenants; i++ {
			pt := acquireOn(t, sc, fmt.Sprintf("p%d", i), "ocean", cfg, 1)
			if i == 0 {
				first = pt
			}
		}
		sc.UpdateContention()
		for i := 0; i < tenants; i++ {
			if err := sc.parts[fmt.Sprintf("p%d", i)].Advance(5); err != nil {
				t.Fatal(err)
			}
		}
		return first.mon.Count()
	}
	soloBeats := run(1)
	coBeats := run(3)
	if coBeats >= soloBeats {
		t.Fatalf("co-located partition emitted %d beats vs %d solo", coBeats, soloBeats)
	}
}

// Time shares scale demand: a half-share tenant contributes half its
// full-rate traffic to the chip ledger.
func TestContentionShareScalesDemand(t *testing.T) {
	cfg := Config{Cores: 8, CacheKB: 64, VF: 1}
	p := DefaultParams()
	full, err := NewSharedChip(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	acquireOn(t, full, "a", "ocean", cfg, 1)
	full.UpdateContention()

	half, err := NewSharedChip(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	acquireOn(t, half, "a", "ocean", cfg, 0.5)
	half.UpdateContention()

	fullD, halfD := full.Contention().MemDemandBps, half.Contention().MemDemandBps
	if rel := math.Abs(halfD*2-fullD) / fullD; rel > 0.02 {
		t.Fatalf("half-share demand %g vs full %g (want ~half)", halfD, fullD)
	}
}

// Sense must stay allocation-free after contention passes, and the
// pass itself must not allocate in steady state (scratch reuse).
func TestContentionZeroAlloc(t *testing.T) {
	sc, err := NewSharedChip(scarceParams(10e9), 64)
	if err != nil {
		t.Fatal(err)
	}
	a := acquireOn(t, sc, "a", "ocean", Config{Cores: 16, CacheKB: 64, VF: 1}, 1)
	acquireOn(t, sc, "b", "barnes", Config{Cores: 16, CacheKB: 64, VF: 1}, 1)
	sc.UpdateContention()
	var s float64
	if allocs := testing.AllocsPerRun(1000, func() { s += a.Sense().IPS }); allocs != 0 {
		t.Fatalf("Sense allocates %g objects per call under contention", allocs)
	}
	if allocs := testing.AllocsPerRun(100, sc.UpdateContention); allocs != 0 {
		t.Fatalf("UpdateContention allocates %g objects per pass in steady state", allocs)
	}
	_ = s
}

// Released partitions drop out of the ledger and the pass never
// resurrects them.
func TestContentionAfterRelease(t *testing.T) {
	sc, err := NewSharedChip(scarceParams(10e9), 64)
	if err != nil {
		t.Fatal(err)
	}
	a := acquireOn(t, sc, "a", "ocean", Config{Cores: 16, CacheKB: 64, VF: 1}, 1)
	acquireOn(t, sc, "b", "ocean", Config{Cores: 16, CacheKB: 64, VF: 1}, 1)
	sc.UpdateContention()
	contended := a.Interference().Slowdown
	sc.Release("b")
	sc.UpdateContention()
	if relieved := a.Interference().Slowdown; relieved <= contended {
		t.Fatalf("slowdown %g did not recover above %g after co-tenant release", relieved, contended)
	}
	if sc.LedgerFaults() != 0 {
		t.Fatalf("%d ledger faults from a clean release", sc.LedgerFaults())
	}
}

// The tile ledger under concurrent churn: Acquire/Release/SetShare and
// knob reconfiguration racing a ticking Advance and contention passes.
// The pool must never overcommit mid-churn and the ledger must never
// drift negative (LedgerFaults stays zero). Run under -race.
func TestSharedChipConcurrentChurnInvariant(t *testing.T) {
	const tiles = 32
	sc, err := NewSharedChip(DefaultParams(), tiles)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Cores: 2, CacheKB: 64, VF: 0}

	// One long-lived partition whose share and knobs churn.
	pinned := acquireOn(t, sc, "pinned", "ocean", Config{Cores: 4, CacheKB: 64, VF: 0}, 1)
	cores, cache, dvfs, err := pinned.Knobs([]int{1, 2, 4, 8}, []int{32, 64, 128})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Churn goroutines: transient acquire/release, share resizing, knob
	// moves, and contention passes.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mon := heartbeat.New(sim.NewClock(0))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("churn-%d-%d", g, i%4)
				if pt, err := sc.Acquire(name, workload.NewInstance(spec, uint64(i)), mon, base, 0.25+0.5*float64(i%2), 0); err == nil {
					_ = pt.SetShare(0.1 + 0.3*float64(i%3))
					sc.Release(name)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = cores.SetLevel(i % 4)
			_ = cache.SetLevel(i % 3)
			_ = dvfs.SetLevel(i % 2)
			_ = pinned.SetShare(0.25 + 0.25*float64(i%4))
			sc.UpdateContention()
		}
	}()
	// Invariant checker + advancing tick.
	for i := 1; i <= 200; i++ {
		if err := pinned.Advance(float64(i) * 0.005); err != nil {
			t.Fatal(err)
		}
		if _, used := sc.Usage(); used > tiles+1e-6 {
			close(stop)
			wg.Wait()
			t.Fatalf("ledger overcommitted mid-churn: %g > %d", used, tiles)
		}
		if f := sc.LedgerFaults(); f != 0 {
			close(stop)
			wg.Wait()
			t.Fatalf("%d ledger faults mid-churn", f)
		}
	}
	close(stop)
	wg.Wait()
	if f := sc.LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after churn", f)
	}
	if _, used := sc.Usage(); used > tiles+1e-6 {
		t.Fatalf("ledger overcommitted after churn: %g > %d", used, tiles)
	}
}
