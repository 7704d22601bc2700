package angstrom

import (
	"fmt"
	"math"

	"angstrom/internal/cache"
	"angstrom/internal/noc"
	"angstrom/internal/workload"
)

// meshNet adapts a noc.Mesh to the cache.Network interface.
type meshNet struct{ m *noc.Mesh }

func (n meshNet) LatencyCycles(src, dst int) float64 { return n.m.LatencyCycles(src, dst) }
func (n meshNet) Hops(src, dst int) int              { return n.m.Hops(src, dst) }

// EvaluateDetailed is the trace-driven chip model: real set-associative
// caches per tile, a real coherence protocol, and a real mesh carry a
// sampled synthetic address trace; the measured memory behaviour then
// feeds the same assembler as the statistical model. This is the mode
// behind Figure 2 (the Graphite experiment of §2), where configurations
// are few and fidelity matters more than speed.
func EvaluateDetailed(p Params, spec workload.Spec, cfg Config, accesses int, seed uint64) (Metrics, error) {
	if err := p.Validate(cfg); err != nil {
		return Metrics{}, err
	}
	if err := spec.Validate(); err != nil {
		return Metrics{}, err
	}
	if accesses < 1000 {
		return Metrics{}, fmt.Errorf("angstrom: %d accesses too few to measure", accesses)
	}
	side := int(math.Ceil(math.Sqrt(float64(cfg.Cores))))
	ncfg := noc.DefaultConfig(side, side)
	ncfg.RouterCycles = p.RouterCycles
	ncfg.LinkCycles = p.LinkCycles
	ncfg.EVCCycles = p.EVCCycles
	ncfg.EVC = cfg.EVC
	mesh, err := noc.NewMesh(ncfg)
	if err != nil {
		return Metrics{}, err
	}

	vf := p.VF[cfg.VF]
	l2Cyc := p.SRAM.LatencyCycles(vf.Volts)
	memCyc := p.MemLatencyNs * 1e-9 * vf.FHz

	caches := make([]*cache.Cache, cfg.Cores)
	for i := range caches {
		caches[i], err = cache.New(cfg.CacheKB, 8, workload.LineBytes)
		if err != nil {
			return Metrics{}, err
		}
	}
	var prot cache.Protocol
	switch cfg.Coherence {
	case CoherenceNUCA:
		prot, err = cache.NewNUCA(caches, meshNet{mesh}, l2Cyc, memCyc)
	case CoherenceAdaptive:
		var dir, nuca cache.Protocol
		dir, err = cache.NewDirectory(caches, meshNet{mesh}, l2Cyc, memCyc)
		if err != nil {
			return Metrics{}, err
		}
		shadow := make([]*cache.Cache, cfg.Cores)
		for i := range shadow {
			shadow[i], err = cache.New(cfg.CacheKB, 8, workload.LineBytes)
			if err != nil {
				return Metrics{}, err
			}
		}
		nuca, err = cache.NewNUCA(shadow, meshNet{mesh}, l2Cyc, memCyc)
		if err != nil {
			return Metrics{}, err
		}
		prot, err = cache.NewAdaptive(dir, nuca, 4096, 10*memCyc)
	default:
		prot, err = cache.NewDirectory(caches, meshNet{mesh}, l2Cyc, memCyc)
	}
	if err != nil {
		return Metrics{}, err
	}

	gens := make([]*workload.TraceGen, cfg.Cores)
	for i := range gens {
		gens[i] = workload.NewTraceGen(spec, cfg.Cores, i, seed)
	}

	// Warm up for one fifth of the trace, then measure. Each core's
	// events land in its own padded counter block (PerCore), with the
	// float cycle sums in the matching PerCoreFloat bank; both are
	// aggregated once after the trace, in core order, so the totals are
	// identical whether configurations run serially or on sweep workers.
	warm := accesses / 5
	ctrs := NewPerCore(cfg.Cores)
	cycleAcc := NewPerCoreFloat(cfg.Cores)
	for i := 0; i < accesses; i++ {
		core := i % cfg.Cores
		line, write := gens[core].Next()
		out := prot.Access(core, line, write)
		if i < warm {
			continue
		}
		cf := ctrs.File(core)
		cf.Add(CtrMemOps, 1)
		cf.Add(CtrFlitsTx, uint64(out.Flits))
		cf.Add(CtrFlitHops, uint64(out.FlitHops))
		cf.Add(CtrMemAccesses, uint64(out.MemAccesses))
		if out.Hit {
			cf.Add(CtrL2Hits, 1)
		} else {
			cf.Add(CtrL2Misses, 1)
		}
		cycleAcc.Add(core, out.Cycles)
	}
	totals := ctrs.Aggregate()
	measured := int(totals[CtrMemOps])
	flitHops := int(totals[CtrFlitHops])
	memAcc := int(totals[CtrMemAccesses])
	cycles := cycleAcc.Sum()
	if measured == 0 {
		return Metrics{}, fmt.Errorf("angstrom: no measured accesses (trace of %d too short for warmup)", accesses)
	}
	offChip := float64(memAcc) / float64(measured)
	stall := cycles/float64(measured) - offChip*memCyc - l2Cyc
	if stall < 0 {
		stall = 0
	}
	b := memBehavior{
		perMemOpStallCycles: stall,
		offChipPerMemOp:     offChip,
		flitHopsPerInstr: spec.MemOpsPerInstr*float64(flitHops)/float64(measured) +
			spec.FlitsPerKiloInstr/1000*lnetHops(cfg),
		missRate: prot.Stats().MissRate(),
	}
	return p.assemble(spec, cfg, b), nil
}
