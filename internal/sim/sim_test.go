package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClockStartsAtGivenTime(t *testing.T) {
	c := NewClock(3.5)
	if got := c.Now(); got != 3.5 {
		t.Fatalf("Now() = %g, want 3.5", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock(0)
	c.Advance(1.25)
	c.Advance(0.75)
	if got := c.Now(); got != 2.0 {
		t.Fatalf("Now() = %g, want 2.0", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock(1)
	c.AdvanceTo(4)
	if got := c.Now(); got != 4 {
		t.Fatalf("Now() = %g, want 4", got)
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock(0).Advance(-1)
}

func TestClockBackwardsAdvanceToPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo into the past did not panic")
		}
	}()
	NewClock(5).AdvanceTo(4)
}

func TestClockMonotoneProperty(t *testing.T) {
	// Property: any sequence of non-negative advances keeps time monotone
	// non-decreasing.
	f := func(steps []uint16) bool {
		c := NewClock(0)
		prev := c.Now()
		for _, s := range steps {
			c.Advance(float64(s) / 1000.0)
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across different seeds", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling streams produced identical first draw")
	}
	// Splitting again with the same id from an untouched parent must
	// reproduce the same child stream.
	parent2 := NewRNG(7)
	c1b := parent2.Split(1)
	if c1b.Uint64() != NewRNG(7).Split(1).Uint64() {
		t.Fatal("Split is not deterministic")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm(2.0, 3.0)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("normal mean = %g, want ~2.0", mean)
	}
	if math.Abs(math.Sqrt(variance)-3.0) > 0.05 {
		t.Fatalf("normal stddev = %g, want ~3.0", math.Sqrt(variance))
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(4.0)
	}
	mean := sum / n
	if math.Abs(mean-4.0) > 0.1 {
		t.Fatalf("exponential mean = %g, want ~4.0", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(17)
			if v < 0 || v >= 17 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := NewRNG(5)
	z := NewZipfFromCDF(r, ZipfCDF(4, 0))
	counts := make([]int, 4)
	const n = 40000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.25) > 0.02 {
			t.Fatalf("bucket %d frequency %g, want ~0.25", i, frac)
		}
	}
}

func TestZipfSkewsTowardSmallIndices(t *testing.T) {
	r := NewRNG(6)
	z := NewZipfFromCDF(r, ZipfCDF(100, 1.2))
	counts := make([]int, 100)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("count[0]=%d not greater than count[50]=%d for skewed Zipf",
			counts[0], counts[50])
	}
	head := counts[0] + counts[1] + counts[2]
	if float64(head)/n < 0.15 {
		t.Fatalf("head mass %g too small for s=1.2", float64(head)/n)
	}
}

func TestZipfDrawInRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		z := NewZipfFromCDF(r, ZipfCDF(13, 0.8))
		for i := 0; i < 200; i++ {
			v := z.Draw()
			if v < 0 || v >= 13 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPanicsOnEmptyDomain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipfFromCDF(_, ZipfCDF(0, 1)) did not panic")
		}
	}()
	NewZipfFromCDF(NewRNG(1), ZipfCDF(0, 1))
}
