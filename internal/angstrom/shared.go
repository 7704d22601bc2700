package angstrom

import (
	"errors"
	"fmt"
	"sync"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// This file implements multi-application sharing of one Angstrom chip:
// a SharedChip splits its tile pool into per-application Partitions,
// each an independently configurable slice of the hardware with its own
// actuation knobs (cores, L2 capacity, DVFS) and its own Sensor view
// (IPS, power, stall fraction). It is the package's one chip model: a
// long-lived daemon binds every enrolled application to real hardware
// knobs on one chip — the paper's vision of the runtime arbitrating a
// 1000-core die across a fleet of self-aware applications — and the
// single-app closed loop of the experiments is a fleet of one, a
// partition holding the whole die at share 1.
//
// Concurrency model: SharedChip's mutex guards the tile ledger and the
// partition directory; each Partition's mutex guards its configuration,
// cached model metrics, and execution state. Lock order is SharedChip
// before Partition; Sense and Advance take only the partition lock, so
// status reads and the daemon's tick never serialize behind enrollment.
//
// Partitions evaluate the chip model independently for their own
// (workload, configuration) slice; the explicit resource ledgers (the
// tile pool here, time shares and power budgets in the serving layer)
// arbitrate what each may hold. On top of that, contention.go models
// the two resources no ledger partitions cleanly — off-chip memory
// bandwidth and the chip-wide mesh: UpdateContention aggregates every
// partition's traffic demand and degrades each one's effective IPS,
// stall fraction, and per-access power when the chip saturates, so
// co-location costs are visible to Sense and Advance.

// SharedChip is one Angstrom chip whose tiles are partitioned among many
// applications. The ledger is kept in fractional core-equivalents: a
// partition holding C cores at time share s consumes C×s, so an
// oversubscribed fleet (time-sharing units) still respects the physical
// tile pool.
type SharedChip struct {
	p      Params
	tiles  int
	nocCap float64 // mesh flit-hop capacity (contention.go)

	mu   sync.Mutex
	used float64 // sum over partitions of Cores × Share
	// memScale derates the chip's off-chip bandwidth (thermal throttle,
	// failed channel, chaos injection). 1 = nominal.
	memScale float64
	parts    map[string]*Partition
	// order lists partitions in acquisition order: deterministic float
	// aggregation for the contention pass and power sums (map iteration
	// order would vary run to run and perturb last-ulp results).
	order        []*Partition
	contention   Contention    // last UpdateContention snapshot
	scratch      []contendSlot // reused by UpdateContention
	ledgerFaults uint64        // accounting violations caught by Release
}

// NewSharedChip builds a chip with the given tile count.
func NewSharedChip(p Params, tiles int) (*SharedChip, error) {
	if tiles < 1 || tiles > p.MaxCores {
		return nil, fmt.Errorf("angstrom: %d tiles outside [1, %d]", tiles, p.MaxCores)
	}
	sc := &SharedChip{p: p, tiles: tiles, nocCap: nocCapacity(p, tiles), memScale: 1, parts: make(map[string]*Partition)}
	sc.contention = Contention{MemCapacityBps: p.MemBandwidthBps, NoCCapacity: sc.nocCap}
	return sc, nil
}

// SetMemBandwidthScale derates the chip's off-chip bandwidth to
// scale × nominal — a thermal throttle, a failed memory channel, or a
// chaos injection. The derated capacity takes effect at the next
// contention pass. Inside internal/server this is journaled daemon
// state: only persist.go writers may call it.
//
//angstrom:journaled mutator
func (sc *SharedChip) SetMemBandwidthScale(scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("angstrom: mem bandwidth scale %g outside (0, 1]", scale)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.memScale = scale
	return nil
}

// MemBandwidthScale reports the current off-chip bandwidth derating.
func (sc *SharedChip) MemBandwidthScale() float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.memScale
}

// Tiles reports the physical tile count.
func (sc *SharedChip) Tiles() int { return sc.tiles }

// Acquire carves a partition for the named application, reserving
// cfg.Cores × share core-equivalents. The monitor receives the beats the
// partition emits as it advances; the instance supplies per-beat work.
// The tile ledger is journaled daemon state: inside internal/server
// only persist.go writers may call this.
//
//angstrom:journaled mutator
func (sc *SharedChip) Acquire(name string, inst *workload.Instance, mon *heartbeat.Monitor, cfg Config, share float64, start sim.Time) (*Partition, error) {
	if inst == nil || mon == nil {
		return nil, fmt.Errorf("angstrom: acquire %q with nil instance or monitor", name)
	}
	if err := sc.p.Validate(cfg); err != nil {
		return nil, err
	}
	if share <= 0 || share > 1 {
		return nil, fmt.Errorf("angstrom: time share %g outside (0, 1]", share)
	}
	m, err := Evaluate(sc.p, inst.Spec, cfg)
	if err != nil {
		return nil, err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if _, dup := sc.parts[name]; dup {
		return nil, fmt.Errorf("angstrom: partition %q already acquired", name)
	}
	need := float64(cfg.Cores) * share
	if sc.used+need > float64(sc.tiles)+1e-9 {
		return nil, fmt.Errorf("angstrom: %g core-equivalents requested, %g of %d free",
			need, float64(sc.tiles)-sc.used, sc.tiles)
	}
	pt := &Partition{sc: sc, name: name, inst: inst, mon: mon, cfg: cfg, share: share, m: m, now: start}
	pt.terms = newContendTerms(sc.p, inst.Spec.MemOpsPerInstr, inst.Spec.FlitsPerKiloInstr, cfg, m)
	pt.intf = isolatedInterference(m)
	pt.contendedPowerW = m.PowerW
	sc.used += need
	sc.parts[name] = pt
	sc.order = append(sc.order, pt)
	return pt, nil
}

// isolatedInterference is the identity degradation: the partition runs
// exactly as its isolated model evaluation predicts, which is the state
// before the first contention pass (and after a reconfiguration, until
// the next pass re-prices the new demand).
func isolatedInterference(m Metrics) Interference {
	return Interference{Slowdown: 1, CPI: m.CPI, StallFrac: stallFrac(m.CPI), MemRho: m.MemRho}
}

// ledgerEps absorbs the float residue of repeated fractional-share
// add/subtract cycles; a deficit beyond it is an accounting bug.
const ledgerEps = 1e-6

// Release returns a partition's tiles to the pool. Releasing an unknown
// name is a no-op. A ledger that would go negative beyond float residue
// means double-release or lost accounting — it is counted as a fault
// (LedgerFaults) instead of being silently clamped away.
//
//angstrom:journaled mutator
func (sc *SharedChip) Release(name string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pt, ok := sc.parts[name]
	if !ok {
		return
	}
	pt.mu.Lock()
	sc.used -= float64(pt.cfg.Cores) * pt.share
	pt.released = true
	pt.mu.Unlock()
	delete(sc.parts, name)
	for i, o := range sc.order {
		if o == pt {
			sc.order = append(sc.order[:i], sc.order[i+1:]...)
			break
		}
	}
	if sc.used < 0 {
		if sc.used < -ledgerEps {
			sc.ledgerFaults++
		}
		sc.used = 0
	}
}

// LedgerFaults counts accounting violations the tile ledger has caught
// (a release that would drive usage negative). Always zero unless a
// bookkeeping bug exists; tests and /v1/chips surface it so drift fails
// loudly instead of being masked.
func (sc *SharedChip) LedgerFaults() uint64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ledgerFaults
}

// Usage reports the partition count and the core-equivalents in use.
func (sc *SharedChip) Usage() (partitions int, coreEquivalents float64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return len(sc.parts), sc.used
}

// TotalPowerW sums every partition's attributed power plus the chip's
// constant uncore overhead — the quantity a shared power budget bounds.
func (sc *SharedChip) TotalPowerW() float64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	total := sc.p.UncoreW
	for _, pt := range sc.order {
		total += pt.Sense().PowerW
	}
	return total
}

// Partition is one application's slice of a SharedChip: a private
// configuration over shared tiles, a cached model evaluation, and the
// execution state that turns model IPS into heartbeats.
type Partition struct {
	sc   *SharedChip
	name string
	inst *workload.Instance
	mon  *heartbeat.Monitor

	mu       sync.Mutex
	cfg      Config
	share    float64         // time share of the held cores (1 = dedicated)
	m        Metrics         // model evaluation for cfg, cached until reconfigured
	cur      workload.Cursor // execution position of inst
	now      sim.Time        // partition-local execution frontier
	energyJ  float64
	released bool

	// Cross-partition contention state (contention.go): the demand
	// terms recomputed at every reconfiguration, and the degradation
	// the last chip-wide pass assigned. Reads are cached-float loads,
	// so Sense stays allocation-free.
	terms           contendTerms
	intf            Interference
	contendedPowerW float64 // m.PowerW minus throughput-scaled NoC/DRAM energy
}

// Config returns the partition's current hardware configuration.
func (pt *Partition) Config() Config {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.cfg
}

// Share returns the current time share.
func (pt *Partition) Share() float64 {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.share
}

// Now reports the partition's execution frontier: the simulated time up
// to which Advance has run the application.
func (pt *Partition) Now() sim.Time {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.now
}

// ErrShareRefused is SetShare's refusal of a share the tile pool has no
// room for. A serving tick re-offers refused shares every period —
// thousands of refusals a tick on a crowded fleet — so the refusal is a
// sentinel: nothing is formatted for a caller that only counts it.
var ErrShareRefused = errors.New("angstrom: time share would exceed the tile pool")

// SetShare changes the partition's time share, adjusting the chip's
// core-equivalent ledger. Growth beyond the free pool is refused with
// ErrShareRefused.
//
//angstrom:journaled mutator
func (pt *Partition) SetShare(share float64) error {
	if share <= 0 || share > 1 {
		return fmt.Errorf("angstrom: time share %g outside (0, 1]", share)
	}
	sc := pt.sc
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.released {
		return fmt.Errorf("angstrom: partition %q released", pt.name)
	}
	delta := float64(pt.cfg.Cores) * (share - pt.share)
	if sc.used+delta > float64(sc.tiles)+1e-9 {
		return ErrShareRefused
	}
	sc.used += delta
	pt.share = share
	return nil
}

// ShrinkShares makes room on the die: it shrinks the time shares of
// tenants — partitions of this chip, in the order the caller wants their
// core-equivalents summed — proportionally toward floor until the ledger
// holds at most target core-equivalents, and returns what it holds
// afterwards. No share goes below floor, so the mass above it can fall
// short of the excess: the deficit is re-spread over that mass once more,
// after which the target is met or every tenant is floored and the pool
// is genuinely full. Shares at or below floor, released partitions and
// partitions of another chip are left alone; every change passes the
// checks SetShare makes. Both passes run under one acquisition of the
// ledger lock: a partition's share, core count and released flag are only
// written with it held (SetShare, setConfig, Release), so it suffices to
// read them; the partition's own lock is taken for the write, which Sense
// and Advance — holding only theirs — would otherwise race.
//
//angstrom:journaled mutator
func (sc *SharedChip) ShrinkShares(tenants []*Partition, floor, target float64) (coreEquivalents float64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for pass := 0; pass < 2; pass++ {
		excess := sc.used - target
		if excess <= 1e-9 {
			break
		}
		above := 0.0 // shrinkable core-equivalents: share mass beyond the floor
		for _, pt := range tenants {
			if pt.sc == sc && pt.share > floor {
				above += float64(pt.cfg.Cores) * (pt.share - floor)
			}
		}
		if above <= 1e-12 {
			break // every tenant already at the floor
		}
		f := 1 - excess/above
		if f < 0 {
			f = 0
		}
		for _, pt := range tenants {
			if pt.sc != sc || pt.released || pt.share <= floor {
				continue
			}
			s := pt.share
			share := floor + (s-floor)*f
			delta := float64(pt.cfg.Cores) * (share - s)
			if share <= 0 || share > 1 || sc.used+delta > float64(sc.tiles)+1e-9 {
				continue // what SetShare refuses
			}
			sc.used += delta
			pt.mu.Lock()
			pt.share = share
			pt.mu.Unlock()
		}
	}
	return sc.used
}

// setConfig validates and applies a new configuration, adjusting the
// tile ledger for core-count changes and re-evaluating the cached model.
func (pt *Partition) setConfig(cfg Config) error {
	if err := pt.sc.p.Validate(cfg); err != nil {
		return err
	}
	m, err := Evaluate(pt.sc.p, pt.inst.Spec, cfg)
	if err != nil {
		return err
	}
	sc := pt.sc
	sc.mu.Lock()
	defer sc.mu.Unlock()
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.released {
		return fmt.Errorf("angstrom: partition %q released", pt.name)
	}
	delta := float64(cfg.Cores-pt.cfg.Cores) * pt.share
	if sc.used+delta > float64(sc.tiles)+1e-9 {
		return fmt.Errorf("angstrom: %d cores would exceed the tile pool", cfg.Cores)
	}
	sc.used += delta
	pt.cfg = cfg
	pt.m = m
	// Re-derive the contention inputs, carrying the current slowdown
	// onto the new evaluation (a reconfiguration does not relieve
	// co-tenant pressure; the next chip-wide pass re-prices it exactly).
	// Resetting to the identity here would let the schedule's per-tick
	// knob flips erase the contention pass before Advance ever saw it.
	pt.terms = newContendTerms(sc.p, pt.inst.Spec.MemOpsPerInstr, pt.inst.Spec.FlitsPerKiloInstr, cfg, m)
	slow := pt.intf.Slowdown
	if !(slow > 0 && slow <= 1) {
		slow = 1
	}
	cpi := m.CPI / slow
	pt.intf.Slowdown, pt.intf.CPI, pt.intf.StallFrac = slow, cpi, stallFrac(cpi)
	pt.contendedPowerW = m.PowerW - (m.NoCW+m.MemW)*(1-slow)
	return nil
}

// Sense implements actuator.Sensor: the partition's share-scaled view of
// the chip model — aggregate IPS, attributed power (active power beyond
// uncore, scaled by the time share), memory stall fraction, predicted
// heart rate, and cumulative energy. Every figure is degraded by the
// last contention pass's Interference, so the controller and the
// manager observe real co-location costs, not per-app projections. It
// is a cached-struct read under one mutex: allocation-free and cheap
// enough for every status request (TestSenseZeroAlloc holds it to 0
// allocations).
//
//angstrom:hotpath
func (pt *Partition) Sense() actuator.Sample {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	active := pt.contendedPowerW - pt.sc.p.UncoreW
	if active < 0 {
		active = 0
	}
	return actuator.Sample{
		Time:      pt.now,
		IPS:       pt.m.IPS * pt.share * pt.intf.Slowdown,
		PowerW:    active * pt.share,
		StallFrac: pt.intf.StallFrac,
		HeartRate: pt.m.HeartRate * pt.share * pt.intf.Slowdown,
		EnergyJ:   pt.energyJ,
	}
}

// Interference returns the degradation the last contention pass
// assigned to this partition (the identity before the first pass).
func (pt *Partition) Interference() Interference {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.intf
}

// Metrics returns the cached model evaluation for the current
// configuration (unscaled by the time share).
func (pt *Partition) Metrics() Metrics {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.m
}

// Advance executes the partition's application up to time `until`,
// emitting heartbeats into the monitor at their model-exact completion
// times (so windowed rates see no batching bias) and integrating energy.
// The effective execution rate is the model's IPS scaled by the time
// share. Calls with `until` at or before the current frontier are no-ops.
func (pt *Partition) Advance(until sim.Time) error {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.released {
		return fmt.Errorf("angstrom: partition %q released", pt.name)
	}
	ips := pt.m.IPS * pt.share * pt.intf.Slowdown
	for pt.now < until-1e-12 {
		dt, beat, err := pt.cur.Step(pt.inst, ips, pt.now, until)
		if err != nil {
			return fmt.Errorf("angstrom: partition %q: %w", pt.name, err)
		}
		pt.energyJ += pt.attributedPowerW() * dt
		if !beat {
			// Land exactly on `until`: now+(until-now) can miss it by an ulp.
			pt.now = until
			break
		}
		// Stamped on the partition's own frontier, not a shared clock.
		pt.now += dt
		pt.mon.BeatAt(pt.now)
	}
	return nil
}

// attributedPowerW is the power charged to this partition, degraded by
// the contention pass (stalled cycles still burn core and cache power;
// NoC and DRAM energy scale with achieved throughput); caller holds
// pt.mu.
func (pt *Partition) attributedPowerW() float64 {
	active := pt.contendedPowerW - pt.sc.p.UncoreW
	if active < 0 {
		active = 0
	}
	return active * pt.share
}

// --- Knobs: the act-side hardware contract ---------------------------

// Knobs returns the partition's three hardware knobs — core allocation,
// per-core L2 capacity, and the DVFS operating point — as
// actuator.Knob implementations. The option slices must be ascending and
// include the partition's current setting (so every knob has a
// well-defined starting rung).
func (pt *Partition) Knobs(coreOptions, cacheOptionsKB []int) (cores, cache, dvfs actuator.Knob, err error) {
	cfg := pt.Config()
	if err := validOptions("core", coreOptions, cfg.Cores); err != nil {
		return nil, nil, nil, err
	}
	if err := validOptions("cache", cacheOptionsKB, cfg.CacheKB); err != nil {
		return nil, nil, nil, err
	}
	return &fieldKnob{pt, AxisCores, coreOptions},
		&fieldKnob{pt, AxisL2, cacheOptionsKB},
		&fieldKnob{pt, AxisDVFS, actuator.Range(0, len(pt.sc.p.VF)-1)}, nil
}

func validOptions(kind string, options []int, current int) error {
	if len(options) == 0 {
		return fmt.Errorf("angstrom: no %s options", kind)
	}
	found := false
	for i, v := range options {
		if i > 0 && v <= options[i-1] {
			return fmt.Errorf("angstrom: %s options not ascending", kind)
		}
		if v == current {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("angstrom: current %s setting %d not among options %v", kind, current, options)
	}
	return nil
}

func indexOf(options []int, v int) int {
	for i, o := range options {
		if o == v {
			return i
		}
	}
	return 0
}

// fieldKnob is one axis of the partition's Config as a hardware knob:
// level i holds the axis at options[i] (core allocation, per-core L2
// capacity in KB, DVFS operating point).
type fieldKnob struct {
	pt      *Partition
	axis    int
	options []int
}

func (k *fieldKnob) Name() string { return axes[k.axis].name }
func (k *fieldKnob) Level() int   { return indexOf(k.options, k.pt.Config().Level(k.axis)) }
func (k *fieldKnob) SetLevel(level int) error {
	if level < 0 || level >= len(k.options) {
		return fmt.Errorf("angstrom: %s level %d outside [0, %d)", k.Name(), level, len(k.options))
	}
	return k.pt.setConfig(k.pt.Config().With(k.axis, k.options[level]))
}

var (
	_ actuator.Sensor = (*Partition)(nil)
	_ actuator.Knob   = (*fieldKnob)(nil)
)
