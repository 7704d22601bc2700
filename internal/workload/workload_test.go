package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllSpecsValidate(t *testing.T) {
	for _, s := range Specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestFiveBenchmarksInPaperOrder(t *testing.T) {
	want := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	got := Specs()
	if len(got) != len(want) {
		t.Fatalf("Specs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].Name != want[i] {
			t.Fatalf("Specs()[%d] = %s, want %s", i, got[i].Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("ocean")
	if err != nil || s.Name != "ocean" {
		t.Fatalf("ByName(ocean) = %v, %v", s.Name, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("ByName(doom) did not error")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base, _ := ByName("water")
	cases := map[string]func(*Spec){
		"empty name":    func(s *Spec) { s.Name = "" },
		"bad parallel":  func(s *Spec) { s.ParallelFrac = 1.5 },
		"neg sync":      func(s *Spec) { s.SyncOverhead = -1 },
		"bad memops":    func(s *Spec) { s.MemOpsPerInstr = 2 },
		"bad floor":     func(s *Spec) { s.MissFloor = 1 },
		"neg zipf":      func(s *Spec) { s.ZipfS = -1 },
		"neg ws":        func(s *Spec) { s.PrivateWSKB = -4 },
		"bad beat work": func(s *Spec) { s.InstrPerBeat = 0 },
		"bad amp":       func(s *Spec) { s.PhaseAmp = 1 },
		"bad period":    func(s *Spec) { s.PhasePeriodBeats = 0 },
		"neg noise":     func(s *Spec) { s.NoiseStd = -0.1 },
		"nan parallel":  func(s *Spec) { s.ParallelFrac = math.NaN() },
		"nan work":      func(s *Spec) { s.InstrPerBeat = math.NaN() },
		"nan noise":     func(s *Spec) { s.NoiseStd = math.NaN() },
		"inf period":    func(s *Spec) { s.PhasePeriodBeats = math.Inf(1) },
		"inf ws":        func(s *Spec) { s.PrivateWSKB = math.Inf(1) },
		"neg inf sync":  func(s *Spec) { s.SyncOverhead = math.Inf(-1) },
	}
	for name, mut := range cases {
		s := base
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", name)
		}
	}
}

func TestParallelSpeedupMonotoneUpToScalingLimit(t *testing.T) {
	barnes, _ := ByName("barnes")
	prev := 0.0
	for c := 1; c <= 256; c *= 2 {
		s := barnes.ParallelSpeedup(c)
		if s <= prev {
			t.Fatalf("barnes speedup not increasing at %d cores: %g <= %g", c, s, prev)
		}
		prev = s
	}
}

func TestParallelSpeedupBounds(t *testing.T) {
	f := func(c uint8) bool {
		cores := int(c)%256 + 1
		for _, s := range Specs() {
			sp := s.ParallelSpeedup(cores)
			if sp < 0.5 || sp > float64(cores) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBarnesScalesBestVolrendWorst(t *testing.T) {
	barnes, _ := ByName("barnes")
	volrend, _ := ByName("volrend")
	if barnes.ParallelSpeedup(256) <= volrend.ParallelSpeedup(256) {
		t.Fatalf("barnes(256)=%g should scale past volrend(256)=%g",
			barnes.ParallelSpeedup(256), volrend.ParallelSpeedup(256))
	}
	// volrend must saturate well below 256.
	if volrend.ParallelSpeedup(256) > 40 {
		t.Fatalf("volrend speedup at 256 cores = %g, want saturation (< 40)",
			volrend.ParallelSpeedup(256))
	}
	// barnes must scale meaningfully from 64 to 256 cores (Figure 4's
	// in-text claim depends on it).
	ratio := barnes.ParallelSpeedup(256) / barnes.ParallelSpeedup(64)
	if ratio < 1.8 {
		t.Fatalf("barnes 256/64-core speedup ratio = %g, want >= 1.8", ratio)
	}
}

func TestMissRateDecreasesWithCache(t *testing.T) {
	// Strictly decreasing until the cache covers the working set, then
	// saturated at the floor.
	for _, s := range Specs() {
		prev := 1.1
		for _, kb := range []float64{16, 32, 64, 128, 256} {
			m := s.MissRate(kb, 16)
			saturated := kb >= s.EffectiveWSKB(16)
			if saturated {
				if m > prev {
					t.Fatalf("%s: miss rate rose at %g KB", s.Name, kb)
				}
			} else if m >= prev {
				t.Fatalf("%s: miss rate not decreasing at %g KB (%g >= %g)", s.Name, kb, m, prev)
			}
			if m < s.MissFloor {
				t.Fatalf("%s: miss rate %g below floor %g", s.Name, m, s.MissFloor)
			}
			prev = m
		}
	}
}

func TestMissRateSaturatesAtFloorWhenCovered(t *testing.T) {
	water, _ := ByName("water")
	ws := water.EffectiveWSKB(16)
	if got := water.MissRate(ws*2, 16); got != water.MissFloor {
		t.Fatalf("covered working set: miss = %g, want floor %g", got, water.MissFloor)
	}
}

func TestAggregateMissRateBelowPrivateForSharedFootprint(t *testing.T) {
	// A NUCA cache of the same total capacity sees the unpartitioned
	// footprint once instead of replicating it per core.
	ocean, _ := ByName("ocean")
	private := ocean.MissRate(64, 256)
	aggregate := ocean.AggregateMissRate(64 * 256)
	if aggregate >= private {
		t.Fatalf("aggregate miss %g not below private %g", aggregate, private)
	}
}

func TestMissRateDecreasesWithCores(t *testing.T) {
	// More cores → smaller per-core slice of the private data → fewer
	// capacity misses at equal cache size.
	ocean, _ := ByName("ocean")
	if ocean.MissRate(64, 256) >= ocean.MissRate(64, 1) {
		t.Fatal("ocean per-core miss rate should fall as cores divide the working set")
	}
}

func TestMissRateBoundsProperty(t *testing.T) {
	f := func(kb uint16, cores uint8) bool {
		c := int(cores)%256 + 1
		cache := float64(kb%512) + 1
		for _, s := range Specs() {
			m := s.MissRate(cache, c)
			if m < 0 || m > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMissRateZeroCache(t *testing.T) {
	barnes, _ := ByName("barnes")
	if got := barnes.MissRate(0, 1); got != 1 {
		t.Fatalf("MissRate(0) = %g, want 1", got)
	}
}

func TestOceanMoreMemoryBoundThanWater(t *testing.T) {
	ocean, _ := ByName("ocean")
	water, _ := ByName("water")
	if ocean.MissRate(64, 64)*ocean.MemOpsPerInstr <= water.MissRate(64, 64)*water.MemOpsPerInstr {
		t.Fatal("ocean must generate more memory traffic per instruction than water")
	}
}

func TestWorkAtMeanIsOne(t *testing.T) {
	for _, s := range Specs() {
		sum := 0.0
		n := uint64(10 * s.PhasePeriodBeats)
		for i := uint64(0); i < n; i++ {
			sum += s.WorkAt(i)
		}
		mean := sum / float64(n)
		if math.Abs(mean-1) > 0.02 {
			t.Errorf("%s: phase signal mean = %g, want ~1", s.Name, mean)
		}
	}
}

func TestWorkAtAmplitudeRespected(t *testing.T) {
	for _, s := range Specs() {
		for i := uint64(0); i < uint64(4*s.PhasePeriodBeats); i++ {
			w := s.WorkAt(i)
			if w < 1-s.PhaseAmp-1e-9 || w > 1+s.PhaseAmp+1e-9 {
				t.Fatalf("%s: WorkAt(%d) = %g outside 1±%g", s.Name, i, w, s.PhaseAmp)
			}
		}
	}
}

func TestSquareWaveIsBimodal(t *testing.T) {
	ray, _ := ByName("raytrace")
	seen := map[float64]bool{}
	for i := uint64(0); i < uint64(2*ray.PhasePeriodBeats); i++ {
		seen[ray.WorkAt(i)] = true
	}
	if len(seen) != 2 {
		t.Fatalf("square wave produced %d distinct levels, want 2", len(seen))
	}
}

func TestInstanceDeterministic(t *testing.T) {
	spec, _ := ByName("raytrace")
	a := NewInstance(spec, 42)
	b := NewInstance(spec, 42)
	for n := uint64(0); n < 100; n++ {
		if a.WorkForBeat(n) != b.WorkForBeat(n) {
			t.Fatalf("instances with same seed diverged at beat %d", n)
		}
	}
	c := NewInstance(spec, 43)
	same := 0
	for n := uint64(0); n < 100; n++ {
		if a.WorkForBeat(n) == c.WorkForBeat(n) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestWorkForBeatPositiveProperty(t *testing.T) {
	spec, _ := ByName("volrend")
	f := func(seed uint64, n uint16) bool {
		in := NewInstance(spec, seed)
		return in.WorkForBeat(uint64(n)) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTraceGenAddressPartitioning(t *testing.T) {
	spec, _ := ByName("barnes")
	const cores = 4
	gens := make([]*TraceGen, cores)
	for i := range gens {
		gens[i] = NewTraceGen(spec, cores, i, 7)
	}
	privSeen := make([]map[uint64]bool, cores)
	for i := range privSeen {
		privSeen[i] = make(map[uint64]bool)
	}
	sharedCount := 0
	sharedEnd := gens[0].privBase // core 0's private region follows the shared one
	for i, g := range gens {
		for n := 0; n < 20000; n++ {
			line, _ := g.Next()
			if line < sharedEnd {
				sharedCount++
			} else {
				privSeen[i][line] = true
			}
		}
	}
	if sharedCount == 0 {
		t.Fatal("no shared accesses generated")
	}
	// Private regions must be disjoint across cores.
	for i := 0; i < cores; i++ {
		for j := i + 1; j < cores; j++ {
			for line := range privSeen[i] {
				if privSeen[j][line] {
					t.Fatalf("line %d appears in private regions of cores %d and %d", line, i, j)
				}
			}
		}
	}
}

func TestTraceGenLocalitySkew(t *testing.T) {
	spec, _ := ByName("volrend") // highest Zipf skew
	g := NewTraceGen(spec, 1, 0, 3)
	counts := make(map[uint64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		line, _ := g.Next()
		counts[line]++
	}
	// The hottest line must be dramatically hotter than the median.
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < n/1000 {
		t.Fatalf("hottest line has %d/%d accesses; expected strong locality", maxC, n)
	}
}

func TestTraceGenWriteFraction(t *testing.T) {
	spec, _ := ByName("water")
	g := NewTraceGen(spec, 2, 0, 11)
	writes := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if _, w := g.Next(); w {
			writes++
		}
	}
	frac := float64(writes) / n
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("write fraction = %g, want ~0.3", frac)
	}
}
