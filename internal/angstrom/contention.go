package angstrom

import "math"

// This file models cross-partition interference on a SharedChip: the
// two resources every partition touches but none owns — the off-chip
// memory bus and the chip-wide mesh. Each partition's isolated model
// evaluation (Evaluate) already prices its *own* bandwidth pressure;
// what it cannot see is the other tenants. The contention pass closes
// that gap with a chip-wide ledger:
//
//  1. Every partition declares its demand at configuration time: the
//     off-chip bytes/s and NoC flit-hops/s its (workload, config) pair
//     generates when running full-rate (Metrics.MemBytesPerSec,
//     Metrics.FlitHopsPerSec), plus the CPI terms those demands stall.
//  2. UpdateContention aggregates time-share-scaled demand across all
//     partitions, computes chip-wide utilization of both resources,
//     and re-prices each partition's CPI with the *shared* utilization
//     in place of the private one. Memory stalls inflate through the
//     same 1/(1-rho) service-time factor the assembler uses; network
//     stalls gain an M/M/1 queueing wait of rho/(1-rho) cycles per hop,
//     rho being the chip-wide flit-hop utilization.
//  3. The resulting slowdown (isolated CPI / contended CPI) multiplies
//     the partition's effective IPS and heart rate, flows into Sense,
//     Advance, and attributed power, and is re-estimated each pass by
//     a short fixed point (degraded tenants emit less traffic, which
//     in turn relieves the shared resources).
//
// A partition running alone reproduces its isolated evaluation for
// memory exactly (the shared rho equals its private one) and gains
// only its own small queueing term on the mesh. UpdateContention is a
// per-tick pass, not a hot path, but it is allocation-free in steady
// state (scratch reuse) so a ticking daemon does not churn the heap.

// stallFrac is the memory-stall fraction implied by a per-core CPI,
// clamped to [0, 1) for sub-unity or degenerate CPIs. Every producer
// of an Interference uses it so the clamp cannot diverge.
func stallFrac(cpi float64) float64 {
	s := 1 - 1/cpi
	if s < 0 || math.IsNaN(s) {
		return 0
	}
	return s
}

// nocEfficiency discounts the mesh's raw link-cycle capacity for the
// load imbalance of dimension-ordered routing under non-uniform
// traffic: center links saturate well before edge links are busy.
const nocEfficiency = 0.7

// rhoCap bounds both utilizations just below saturation, matching the
// assembler's memory fixed point and the mesh's queueing clamp.
const rhoCap = 0.95

// Interference is one partition's view of cross-partition contention:
// the degradation applied on top of its isolated model evaluation.
// The zero value of Slowdown is never used — an uncontended partition
// reports Slowdown 1.
type Interference struct {
	// Slowdown multiplies the isolated model's IPS and heart rate
	// (1 = no interference; 0.8 = the partition runs at 80% of its
	// isolated throughput because of co-tenant traffic).
	Slowdown float64
	// CPI is the contended per-core cycles per instruction.
	CPI float64
	// StallFrac is the contended memory-stall fraction (1 - 1/CPI).
	StallFrac float64
	// MemRho and NoCRho are the chip-wide utilizations this partition
	// observed at the last contention pass.
	MemRho, NoCRho float64
}

// Contention is the chip-wide snapshot of the shared-resource ledger
// after the last UpdateContention pass.
type Contention struct {
	// MemDemandBps is aggregate effective off-chip demand: the sum of
	// every partition's share- and slowdown-scaled bytes/s.
	MemDemandBps float64
	// MemCapacityBps is the chip's off-chip bandwidth.
	MemCapacityBps float64
	// MemRho is min(MemDemandBps/MemCapacityBps, 0.95).
	MemRho float64
	// FlitHopsPerSec is aggregate effective NoC injection demand.
	FlitHopsPerSec float64
	// NoCCapacity is the mesh's discounted flit-hop service capacity.
	NoCCapacity float64
	// NoCRho is min(FlitHopsPerSec/NoCCapacity, 0.95).
	NoCRho float64
	// OfferedMemBps and OfferedFlitHops are the aggregate *offered*
	// demands: share-scaled but NOT slowdown-scaled. On a saturated chip
	// the effective aggregates above collapse (throttled partitions
	// inject less), so delivered utilization can look low exactly when
	// the chip is drowning; the offered aggregates keep growing and are
	// what fleet-level placement and migration rank dies by.
	OfferedMemBps   float64
	OfferedFlitHops float64
	// Passes counts completed UpdateContention calls.
	Passes uint64
}

// contendTerms are the per-partition inputs of the contention pass,
// recomputed whenever the partition's configuration (and so its cached
// Metrics) changes. All terms describe full-rate execution; the pass
// scales by time share and slowdown.
type contendTerms struct {
	// memBps and flitHops are the full-rate demands.
	memBps, flitHops float64
	// offChipCPI is the CPI spent waiting off-chip per unit of the
	// memory service-time inflation factor: MemOpsPerInstr x
	// OffChipPerMemOp x base memory cycles at this VF point.
	offChipCPI float64
	// selfInflate is the inflation factor 1/max(1-rho, 0.05) the
	// isolated evaluation already charged for the partition's own rho.
	selfInflate float64
	// netQueueCPI is the CPI added per unit of mesh queueing delay
	// rho/(1-rho): round-trip miss traffic plus synchronization
	// traffic, times the configuration's average hop count.
	netQueueCPI float64
}

// contendSlot is the scratch state UpdateContention keeps per
// partition while iterating the fixed point.
type contendSlot struct {
	pt    *Partition
	share float64
	terms contendTerms
	m     Metrics
	slow  float64
}

// newContendTerms derives the contention inputs from a cached model
// evaluation. Mirrors the CPI assembly in Params.assemble: the
// off-chip component is MemOpsPerInstr x offChipPerMemOp x memCyc, the
// network components are miss round trips (2 x hops) and the
// synchronization stall fraction (0.2 flit-latency per flit).
func newContendTerms(p Params, memOpsPerInstr, flitsPerKiloInstr float64, cfg Config, m Metrics) contendTerms {
	f := p.VF[cfg.VF].FHz
	memCycBase := p.MemLatencyNs * 1e-9 * f
	hops := lnetHops(cfg)
	return contendTerms{
		memBps:      m.MemBytesPerSec,
		flitHops:    m.FlitHopsPerSec,
		offChipCPI:  memOpsPerInstr * m.OffChipPerMemOp * memCycBase,
		selfInflate: 1 / math.Max(1-m.MemRho, 0.05),
		netQueueCPI: (memOpsPerInstr*m.MissRate*2 + flitsPerKiloInstr/1000*0.2) * hops,
	}
}

// nocCapacity is the chip-wide mesh's flit-hop service capacity: every
// directed link of a side x side mesh moves NoCFlitBW flits per cycle
// at the top operating frequency, discounted for routing imbalance. A
// one-tile chip has no mesh and no NoC contention.
func nocCapacity(p Params, tiles int) float64 {
	side := int(math.Ceil(math.Sqrt(float64(tiles))))
	links := 4 * side * (side - 1)
	if links == 0 {
		return math.Inf(1)
	}
	flitBW := p.NoCFlitBW
	if flitBW <= 0 {
		flitBW = 1
	}
	fMax := 0.0
	for _, vf := range p.VF {
		fMax = math.Max(fMax, vf.FHz)
	}
	return float64(links) * flitBW * fMax * nocEfficiency
}

// Contention returns the chip-wide snapshot of the last contention
// pass. Before the first pass every field but the capacities is zero.
func (sc *SharedChip) Contention() Contention {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.contention
}

// UpdateContention runs one chip-wide contention pass: aggregate every
// partition's share-scaled demand on the memory bus and the mesh,
// derive chip-wide utilizations, and update each partition's cached
// Interference so Sense, Advance, and attributed power reflect real
// co-location costs. The caller (the serving tick) invokes it once per
// decision period; configuration changes between passes run at the
// previous pass's degradation until the next one.
//
// The pass is a three-iteration fixed point: a degraded partition
// executes fewer instructions per second and therefore injects less
// traffic, so effective demand is slowdown-scaled and re-aggregated.
func (sc *SharedChip) UpdateContention() {
	sc.mu.Lock()
	defer sc.mu.Unlock()

	slots := sc.scratch[:0]
	for _, pt := range sc.order {
		pt.mu.Lock()
		slots = append(slots, contendSlot{
			pt:    pt,
			share: pt.share,
			terms: pt.terms,
			m:     pt.m,
			slow:  1,
		})
		pt.mu.Unlock()
	}
	sc.scratch = slots[:0] // keep the backing array for the next pass

	memCap := sc.p.MemBandwidthBps * sc.memScale
	nocCap := sc.nocCap
	var memDemand, nocDemand float64
	for iter := 0; iter < 3; iter++ {
		memDemand, nocDemand = 0, 0
		for i := range slots {
			s := &slots[i]
			memDemand += s.share * s.slow * s.terms.memBps
			nocDemand += s.share * s.slow * s.terms.flitHops
		}
		for i := range slots {
			s := &slots[i]
			// The partition sees the bus at its own full-rate pressure
			// plus everybody else's effective pressure: while its time
			// share runs, it injects at full rate.
			othersMem := memDemand - s.share*s.slow*s.terms.memBps
			othersNoC := nocDemand - s.share*s.slow*s.terms.flitHops
			rhoMem := math.Min((othersMem+s.terms.memBps)/memCap, rhoCap)
			rhoNoC := math.Min((othersNoC+s.terms.flitHops)/nocCap, rhoCap)

			extra := s.terms.offChipCPI * (1/math.Max(1-rhoMem, 0.05) - s.terms.selfInflate)
			if extra < 0 {
				extra = 0 // shared rho below the private one: no relief beyond the isolated model
			}
			extra += s.terms.netQueueCPI * rhoNoC / (1 - rhoNoC)
			cpi := s.m.CPI + extra
			s.slow = s.m.CPI / cpi
		}
	}

	// Re-aggregate once with the final slowdowns so the written-back
	// rhos and the chip snapshot describe exactly the demand the fleet
	// was priced at (the loop above leaves the aggregate one iteration
	// stale).
	memDemand, nocDemand = 0, 0
	for i := range slots {
		s := &slots[i]
		memDemand += s.share * s.slow * s.terms.memBps
		nocDemand += s.share * s.slow * s.terms.flitHops
	}
	for i := range slots {
		s := &slots[i]
		othersMem := memDemand - s.share*s.slow*s.terms.memBps
		othersNoC := nocDemand - s.share*s.slow*s.terms.flitHops
		rhoMem := math.Min((othersMem+s.terms.memBps)/memCap, rhoCap)
		rhoNoC := math.Min((othersNoC+s.terms.flitHops)/nocCap, rhoCap)
		cpi := s.m.CPI / s.slow
		// Per-access energy (NoC transport, off-chip DRAM) scales with
		// achieved throughput; core and cache power keep their leakage
		// and stall-activity floors.
		powerW := s.m.PowerW - (s.m.NoCW+s.m.MemW)*(1-s.slow)
		s.pt.mu.Lock()
		if !s.pt.released {
			s.pt.intf = Interference{
				Slowdown:  s.slow,
				CPI:       cpi,
				StallFrac: stallFrac(cpi),
				MemRho:    rhoMem,
				NoCRho:    rhoNoC,
			}
			s.pt.contendedPowerW = powerW
		}
		s.pt.mu.Unlock()
	}

	var offeredMem, offeredNoC float64
	for i := range slots {
		s := &slots[i]
		offeredMem += s.share * s.terms.memBps
		offeredNoC += s.share * s.terms.flitHops
	}

	sc.contention = Contention{
		MemDemandBps:    memDemand,
		MemCapacityBps:  memCap,
		MemRho:          math.Min(memDemand/memCap, rhoCap),
		FlitHopsPerSec:  nocDemand,
		NoCCapacity:     nocCap,
		NoCRho:          math.Min(nocDemand/nocCap, rhoCap),
		OfferedMemBps:   offeredMem,
		OfferedFlitHops: offeredNoC,
		Passes:          sc.contention.Passes + 1,
	}

	// Zero the scratch backing array: entries past the next pass's
	// length would otherwise pin released partitions (and their
	// monitors) for as long as the historical peak fleet size.
	full := slots[:cap(slots)]
	for i := range full {
		full[i] = contendSlot{}
	}
}
