package angstrom

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceShrink is the shrink as the serving daemon's makeRoom ran it
// before it moved into the ledger: the same two passes, through the
// public accessors, one lock round trip per read and per write. It is
// the specification ShrinkShares is held to, bit for bit. It reports how
// many passes changed a share and whether it stopped with every tenant
// at the floor.
func referenceShrink(sc *SharedChip, tenants []*Partition, floor, slot float64) (passes int, floored bool) {
	tiles := float64(sc.Tiles())
	for iter := 0; iter < 2; iter++ {
		_, used := sc.Usage()
		excess := used - (tiles - slot)
		if excess <= 1e-9 {
			break
		}
		above := 0.0
		for _, part := range tenants {
			if s := part.Share(); s > floor {
				above += float64(part.Config().Cores) * (s - floor)
			}
		}
		if above <= 1e-12 {
			return passes, true
		}
		f := 1 - excess/above
		if f < 0 {
			f = 0
		}
		for _, part := range tenants {
			if s := part.Share(); s > floor {
				_ = part.SetShare(floor + (s-floor)*f)
			}
		}
		passes++
	}
	return passes, false
}

// The in-ledger shrink is the old shrink: on random dies — 1 to 400
// tenants, cores from the option ladder, shares exactly at the floor,
// one ulp above it, anywhere up to 1, some partitions released but still
// in the caller's list — and for slots that need no pass, one, two, and
// more than the die can give, every share and the ledger total agree
// with the reference to the last bit.
func TestShrinkSharesMatchesReferenceLoop(t *testing.T) {
	const floor = 0.01
	ladder := []int{1, 2, 4, 8, 16, 32, 64}
	var sawPasses [3]int
	sawFloored := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tiles := 1 + rng.Intn(1000)
		ref, got := newSharedChip(t, tiles), newSharedChip(t, tiles)
		var refT, gotT []*Partition
		n := 1 + rng.Intn(400)
		fill := 0.5 + rng.Float64()/2 // how full the die gets: sometimes to the brim
		if rng.Intn(3) == 0 {
			fill = 1
		}
		for i := 0; i < n; i++ {
			cores := ladder[rng.Intn(len(ladder))]
			var share float64
			switch rng.Intn(5) {
			case 0:
				share = floor
			case 1:
				share = math.Nextafter(floor, 1)
			case 2:
				share = 1
			default:
				share = floor + rng.Float64()*(1-floor)
			}
			_, used := ref.Usage()
			if room := float64(tiles)*fill - used; float64(cores)*share > room {
				cores = 1
				if share > room {
					share = room
				}
				if share < floor {
					break
				}
			}
			name := fmt.Sprintf("t%03d", i)
			a, _ := acquire(t, ref, name, cores, share)
			b, _ := acquire(t, got, name, cores, share)
			refT, gotT = append(refT, a), append(gotT, b)
		}
		// Withdrawn tenants a caller's snapshot still lists.
		for i := range refT {
			if len(refT) > 1 && rng.Intn(12) == 0 {
				ref.Release(refT[i].Name())
				got.Release(gotT[i].Name())
			}
		}
		parts, used := ref.Usage()
		var slot float64
		switch seed % 4 {
		case 0: // the daemon's: an even split including the newcomer
			slot = math.Min(float64(tiles)/float64(parts+1), 1)
		case 1: // fits in what is already free
			slot = (float64(tiles) - used) / 2
		case 2: // more than the die can give
			slot = float64(tiles)
		default:
			slot = rng.Float64() * float64(tiles) / 2
		}

		passes, floored := referenceShrink(ref, refT, floor, slot)
		sawPasses[passes]++
		if floored {
			sawFloored++
		}
		ret := got.ShrinkShares(gotT, floor, float64(tiles)-slot)

		_, wantUsed := ref.Usage()
		_, gotUsed := got.Usage()
		if math.Float64bits(gotUsed) != math.Float64bits(wantUsed) || math.Float64bits(ret) != math.Float64bits(gotUsed) {
			t.Fatalf("seed %d: ledger holds %v (returned %v), reference %v", seed, gotUsed, ret, wantUsed)
		}
		for i := range refT {
			if w, g := refT[i].Share(), gotT[i].Share(); math.Float64bits(w) != math.Float64bits(g) {
				t.Fatalf("seed %d: tenant %d (%d cores) share %v, reference %v", seed, i, gotT[i].Config().Cores, g, w)
			}
		}
		if got.LedgerFaults() != 0 {
			t.Fatalf("seed %d: %d ledger faults", seed, got.LedgerFaults())
		}
	}
	if sawPasses[0] == 0 || sawPasses[1] == 0 || sawPasses[2] == 0 || sawFloored == 0 {
		t.Fatalf("cases not all reached: passes %v, all-floored %d", sawPasses, sawFloored)
	}
}

// A partition of another die in the list belongs to another ledger: it
// is neither counted nor shrunk.
func TestShrinkSharesLeavesOtherDiesAlone(t *testing.T) {
	sc, other := newSharedChip(t, 4), newSharedChip(t, 4)
	a, _ := acquire(t, sc, "a", 4, 1)
	b, _ := acquire(t, other, "b", 4, 1)
	if used := sc.ShrinkShares([]*Partition{b, a}, 0.01, 3); math.Abs(used-3) > 1e-9 {
		t.Fatalf("die holds %g core-equivalents after the shrink, want 3", used)
	}
	if b.Share() != 1 {
		t.Fatalf("foreign partition shrunk to %g", b.Share())
	}
	if _, used := other.Usage(); used != 4 {
		t.Fatalf("foreign ledger moved to %g", used)
	}
}
