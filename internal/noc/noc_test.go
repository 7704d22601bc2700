package noc

import (
	"testing"
	"testing/quick"
)

func mustMesh(t *testing.T, cfg Config) *Mesh {
	t.Helper()
	m, err := NewMesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMeshRejectsBadConfig(t *testing.T) {
	if _, err := NewMesh(Config{Width: 0, Height: 4}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := NewMesh(Config{Width: 4, Height: -1}); err == nil {
		t.Fatal("negative height accepted")
	}
}

func TestHopsIsManhattan(t *testing.T) {
	m := mustMesh(t, DefaultConfig(8, 8))
	if got := m.Hops(0, 63); got != 14 {
		t.Fatalf("Hops(corner,corner) = %d, want 14", got)
	}
	if got := m.Hops(9, 9); got != 0 {
		t.Fatalf("Hops(self) = %d, want 0", got)
	}
	if m.Hops(3, 4) != 1 {
		t.Fatal("adjacent hops wrong")
	}
}

func TestPathReachesDestinationProperty(t *testing.T) {
	m := mustMesh(t, DefaultConfig(6, 5))
	f := func(s, d uint8) bool {
		src, dst := int(s)%30, int(d)%30
		// Walk the path and confirm it lands on dst.
		hops := 0
		x, y := m.xy(src)
		for it := m.pathFrom(src, dst); it.next(); hops++ {
			if it.node != m.node(x, y) {
				return false
			}
			switch it.dir {
			case East:
				x++
			case West:
				x--
			case North:
				y++
			case South:
				y--
			}
			if x < 0 || x >= 6 || y < 0 || y >= 5 {
				return false // left the mesh
			}
		}
		return hops == m.Hops(src, dst) && m.node(x, y) == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestXYNeverTurnsFromYToX(t *testing.T) {
	// Dimension order is what makes XY deadlock-free: once a packet
	// moves in Y it must never turn back to X.
	m := mustMesh(t, DefaultConfig(8, 8))
	for src := 0; src < 64; src += 7 {
		for dst := 0; dst < 64; dst += 5 {
			sawY := false
			for it := m.pathFrom(src, dst); it.next(); {
				if it.dir == North || it.dir == South {
					sawY = true
				} else if sawY {
					t.Fatalf("XY route %d→%d turned from Y back to X", src, dst)
				}
			}
		}
	}
}

func TestUnloadedLatencyIsPipelineDepth(t *testing.T) {
	m := mustMesh(t, DefaultConfig(8, 8))
	// 0 → 3: 3 straight hops, no EVC: 3 × (3 router + 1 link) = 12.
	for range 2 { // computed, then memoized
		if got := m.LatencyCycles(0, 3); got != 12 {
			t.Fatalf("latency = %g, want 12", got)
		}
	}
	if got := m.LatencyCycles(5, 5); got != 0 {
		t.Fatalf("self latency = %g, want 0", got)
	}
}

func TestEVCReducesStraightLineLatency(t *testing.T) {
	base := mustMesh(t, DefaultConfig(8, 8))
	cfg := DefaultConfig(8, 8)
	cfg.EVC = true
	evc := mustMesh(t, cfg)
	// 7 straight hops: EVC bypasses 6 of them.
	withOut := base.LatencyCycles(0, 7)
	with := evc.LatencyCycles(0, 7)
	// 7×4 = 28 vs 4 + 6×2 = 16.
	if withOut != 28 || with != 16 {
		t.Fatalf("EVC latency %g vs %g, want 16 vs 28", with, withOut)
	}
	// Single hop: no bypass possible.
	if base.LatencyCycles(0, 1) != evc.LatencyCycles(0, 1) {
		t.Fatal("EVC changed single-hop latency")
	}
}

func TestEVCPaysFullPriceAtTurns(t *testing.T) {
	cfg := DefaultConfig(8, 8)
	cfg.EVC = true
	m := mustMesh(t, cfg)
	// 0 → 9 via XY: one East hop then one North hop (a turn): both pay
	// full router latency. 2×4 = 8.
	if got := m.LatencyCycles(0, 9); got != 8 {
		t.Fatalf("turning path latency = %g, want 8", got)
	}
}
