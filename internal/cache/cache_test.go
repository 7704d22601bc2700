package cache

import (
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, kb, ways int) *Cache {
	t.Helper()
	c, err := New(kb, ways, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(0, 4, 64); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := New(64, 0, 64); err == nil {
		t.Fatal("zero ways accepted")
	}
	if _, err := New(3, 4, 64); err == nil {
		t.Fatal("non-power-of-two sets accepted")
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, 64, 8)
	if r := c.Access(0x42, false); r.Hit {
		t.Fatal("cold access reported hit")
	}
	if r := c.Access(0x42, false); !r.Hit {
		t.Fatal("second access reported miss")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 2/1/1", s)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, small cache: fill a set with lines A and B, touch A, insert
	// C mapping to the same set → B must be the victim.
	c := mustCache(t, 8, 2) // 8KB/64B/2 = 64 sets
	const sets = 64
	a, b, x := uint64(0), uint64(sets), uint64(2*sets) // same set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // A is now MRU
	r := c.Access(x, false)
	if !r.Evicted || r.EvictedLine != b {
		t.Fatalf("evicted %+v, want line %d (LRU)", r, b)
	}
	if !c.Contains(a) || c.Contains(b) || !c.Contains(x) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := mustCache(t, 8, 1) // direct-mapped, 128 sets
	const sets = 128
	c.Access(5, true) // dirty
	r := c.Access(5+sets, false)
	if !r.Evicted || !r.EvictedDirty || r.EvictedLine != 5 {
		t.Fatalf("eviction result = %+v, want dirty line 5", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestSmallerCacheMissesMore(t *testing.T) {
	// A fixed Zipf-ish working set of 2048 lines (128 KB): the 256 KB
	// configuration must hit more than the 16 KB one.
	run := func(kb, ways int) float64 {
		c := mustCache(t, kb, ways)
		// Stride pattern with reuse.
		for pass := 0; pass < 20; pass++ {
			for i := uint64(0); i < 2048; i++ {
				c.Access(i, false)
			}
		}
		return c.Stats().MissRate()
	}
	big := run(256, 8) // entire set fits
	small := run(16, 2)
	if big >= small {
		t.Fatalf("256KB miss rate %g not below 16KB miss rate %g", big, small)
	}
	if big > 0.06 {
		t.Fatalf("256KB cache should capture a 128KB working set; miss rate %g", big)
	}
}

func TestInvalidate(t *testing.T) {
	c := mustCache(t, 64, 4)
	c.Access(7, true)
	present, dirty := c.Invalidate(7)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if c.Contains(7) {
		t.Fatal("line still present after Invalidate")
	}
	if p, _ := c.Invalidate(7); p {
		t.Fatal("second Invalidate found the line")
	}
}

func TestFlushWritesBackDirtyLines(t *testing.T) {
	c := mustCache(t, 64, 4)
	c.Access(1, true)
	c.Access(2, false)
	c.Access(3, true)
	if wb := c.Flush(); wb != 2 {
		t.Fatalf("Flush writebacks = %d, want 2", wb)
	}
	if c.Contains(1) || c.Contains(2) || c.Contains(3) {
		t.Fatal("lines survive Flush")
	}
}

func TestCacheCapacityNeverExceededProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := mustCache(t, 16, 4) // 256 lines
		for _, a := range addrs {
			c.Access(uint64(a), a%2 == 0)
		}
		valid := 0
		for _, set := range c.sets {
			for _, ln := range set {
				if ln.valid {
					valid++
				}
			}
		}
		return valid <= 256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHitAfterAccessProperty(t *testing.T) {
	// Property: immediately re-accessing any line is a hit.
	f := func(addrs []uint16) bool {
		c := mustCache(t, 16, 4)
		for _, a := range addrs {
			c.Access(uint64(a), false)
			if r := c.Access(uint64(a), false); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSRAMVoltageScaling(t *testing.T) {
	s := DefaultSRAM()
	if !s.Operational(0.8) || !s.Operational(0.4) {
		t.Fatal("SRAM must operate across the Angstrom voltage range")
	}
	if s.Operational(0.3) {
		t.Fatal("SRAM must not operate below the assist limit")
	}
	if s.ReadPJ(0.4) >= s.ReadPJ(0.8) {
		t.Fatal("read energy must drop with voltage")
	}
	// CV²: quarter energy at half voltage.
	ratio := s.ReadPJ(0.4) / s.ReadPJ(0.8)
	if ratio < 0.24 || ratio > 0.26 {
		t.Fatalf("energy ratio at half voltage = %g, want 0.25", ratio)
	}
	if s.LatencyCycles(0.4) <= s.LatencyCycles(0.8) {
		t.Fatal("latency must rise at low voltage")
	}
	if s.LeakW(128, 0.4) >= s.LeakW(128, 0.8) {
		t.Fatal("leakage must drop with voltage")
	}
	if s.LeakW(256, 0.8) <= s.LeakW(128, 0.8) {
		t.Fatal("leakage must grow with capacity")
	}
	if s.WritePJ(0.8) != 15 {
		t.Fatalf("nominal write energy = %g, want 15", s.WritePJ(0.8))
	}
}
