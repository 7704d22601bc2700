package angstrom

import "fmt"

// This file lifts the single-chip model to a fleet of dies. A Fleet is
// a fixed set of SharedChips — each with its own tile ledger and
// contention ledger — plus the fleet-level view placement needs: for
// every chip, the current core-equivalent headroom and the predicted
// mem/NoC utilization *if a candidate demand were added*. The fleet
// itself takes no placement decisions; it only exposes deterministic
// ledger state so the serving layer's bin-packer and migrator stay pure
// functions of it (the determinism contract: parallel/serial
// transcripts and journal replays must agree bit for bit).

// Fleet is a fixed-size collection of identically parameterized chips.
type Fleet struct {
	chips []*SharedChip
}

// NewFleet builds n chips of `tiles` tiles each.
func NewFleet(p Params, tiles, n int) (*Fleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("angstrom: fleet of %d chips", n)
	}
	f := &Fleet{chips: make([]*SharedChip, n)}
	for i := range f.chips {
		sc, err := NewSharedChip(p, tiles)
		if err != nil {
			return nil, err
		}
		f.chips[i] = sc
	}
	return f, nil
}

// Chips reports the die count.
func (f *Fleet) Chips() int { return len(f.chips) }

// Chip returns die i.
func (f *Fleet) Chip(i int) *SharedChip { return f.chips[i] }

// ChipLoad is one die's ledger view for placement: tile headroom plus
// the shared-resource demand the last contention pass measured.
type ChipLoad struct {
	Chip            int
	Partitions      int
	Tiles           int
	CoreEquivalents float64 // core-equivalents in use (Cores × Share summed)
	// Demand and capacity of the two unpartitionable resources, as of
	// the last contention pass. Demand here is the *offered* aggregate
	// (share-scaled full-rate, not slowdown-scaled): on a saturated die
	// the delivered aggregate collapses as tenants are throttled, which
	// would make the worst die look like the emptiest. Capacity is
	// derated by any SetMemBandwidthScale in effect.
	MemDemandBps   float64
	MemCapacityBps float64
	FlitHopsPerSec float64
	NoCCapacity    float64
	// MemRho and NoCRho are offered demand over capacity, unclamped so
	// callers can rank dies past saturation (the delivered, clamped
	// utilizations live in the chip's Contention snapshot).
	MemRho float64
	NoCRho float64
}

// Free is the die's unreserved core-equivalents.
func (l ChipLoad) Free() float64 { return float64(l.Tiles) - l.CoreEquivalents }

// PredictedRho is the mem/NoC utilization the die would sit at if a
// candidate demand (share-scaled bytes/s and flit-hops/s) were added to
// the measured aggregate — the bin-packing signal. Values are not
// clamped to rhoCap so callers can rank dies past saturation.
func (l ChipLoad) PredictedRho(memBps, flitHops float64) (mem, noc float64) {
	if l.MemCapacityBps > 0 {
		mem = (l.MemDemandBps + memBps) / l.MemCapacityBps
	}
	if l.NoCCapacity > 0 {
		noc = (l.FlitHopsPerSec + flitHops) / l.NoCCapacity
	}
	return mem, noc
}

// Load snapshots die i's ledger view.
func (f *Fleet) Load(i int) ChipLoad {
	sc := f.chips[i]
	parts, used := sc.Usage()
	c := sc.Contention()
	memCap := c.MemCapacityBps
	// Before the first contention pass the snapshot carries the nominal
	// capacity; apply any derating so placement sees the truth.
	if c.Passes == 0 {
		memCap = sc.p.MemBandwidthBps * sc.MemBandwidthScale()
	}
	l := ChipLoad{
		Chip:            i,
		Partitions:      parts,
		Tiles:           sc.tiles,
		CoreEquivalents: used,
		MemDemandBps:    c.OfferedMemBps,
		MemCapacityBps:  memCap,
		FlitHopsPerSec:  c.OfferedFlitHops,
		NoCCapacity:     c.NoCCapacity,
	}
	if l.MemCapacityBps > 0 {
		l.MemRho = l.MemDemandBps / l.MemCapacityBps
	}
	if l.NoCCapacity > 0 {
		l.NoCRho = l.FlitHopsPerSec / l.NoCCapacity
	}
	return l
}

// Loads appends every die's ledger view to dst (reusing its capacity)
// and returns the extended slice, in die order.
func (f *Fleet) Loads(dst []ChipLoad) []ChipLoad {
	for i := range f.chips {
		dst = append(dst, f.Load(i))
	}
	return dst
}

// LedgerFaults sums accounting violations across every die.
//
//lint:allow unusedexport the ledger tests assert it stays zero; ROADMAP L scores it as an invariant
func (f *Fleet) LedgerFaults() uint64 {
	var n uint64
	for _, sc := range f.chips {
		n += sc.LedgerFaults()
	}
	return n
}
