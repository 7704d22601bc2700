package server

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// This file binds the serving daemon to the Angstrom chip model: in
// chip-backed mode every enrolled application holds a Partition of one
// shared angstrom.SharedChip, and the decision engine actuates *real*
// hardware knobs — core allocation, L2 capacity, DVFS — through the
// actuator.Knob contract instead of handing the client an advisory
// ladder. Observation flows the other way through actuator.Sensor:
// model IPS, attributed power, and stall fraction feed the controller
// alongside the heartbeats the partition emits as its workload executes.

// ChipConfig enables and tunes chip-backed serving.
type ChipConfig struct {
	// Chips is the number of identical dies in the fleet (default 1).
	// Each die has its own tile ledger, contention ledger, and manager;
	// enrollments are placed across dies by predicted shared-resource
	// pressure and may migrate between them (see MigrateSlowdown).
	Chips int
	// Tiles is the physical tile count of each die (default: the
	// daemon's core pool, capped at the model's MaxCores).
	Tiles int
	// CacheOptionsKB is the ascending per-core L2 capacity ladder.
	// Default: 32, 64, 128.
	CacheOptionsKB []int
	// PowerBudgetW, when positive, is a chip-wide power budget: each
	// tick the daemon splits the budget beyond uncore evenly across
	// chip-backed applications and caps each decision engine's power
	// multiplier accordingly.
	PowerBudgetW float64
	// MigrateSlowdown is the contention slowdown below which a
	// chip-backed application becomes a migration candidate in a
	// multi-die fleet (default 0.8: an app losing more than 20% of its
	// isolated throughput to co-tenant traffic may move). Negative
	// disables migration.
	MigrateSlowdown float64
	// Params overrides the chip model constants (default DefaultParams),
	// among them the off-chip bandwidth (MemBandwidthBps) and mesh link
	// bandwidth (NoCFlitBW) the cross-partition contention ledger
	// divides among co-located applications.
	Params *angstrom.Params
	// KnobWrap, when non-nil, wraps each partition's raw hardware knobs.
	// Tests and the benchmark use it to interpose recording fakes at the
	// exact Knob interface boundary. The daemon reads the partition's
	// configuration, not the wrapper's Level, and calls the wrapper's
	// SetLevel only for a rung that moves, one rung at a time.
	KnobWrap func(app string, k actuator.Knob) actuator.Knob

	// ladders are the ascending rungs of a partition's three knobs,
	// indexed by axis (see axisCores), derived by fill: the core counts
	// offered to every application (the powers of two from 1, where every
	// app starts, up to 64, capped at Tiles), CacheOptionsKB, and the
	// DVFS operating points.
	ladders [3][]int
}

// The chip action space's axes, in the order Partition.Knobs returns a
// partition's knobs and buildChipSpace declares its actuators: they
// index ChipConfig.ladders, app.knobs and every chip actuator.Config.
const (
	axisCores = iota
	axisL2
	axisDVFS
)

// fill selects defaults in place (Config.fill hands it a copy).
func (c *ChipConfig) fill(cores int) {
	c.Chips = cmp.Or(c.Chips, 1)
	c.MigrateSlowdown = cmp.Or(c.MigrateSlowdown, 0.8)
	if c.Params == nil {
		p := angstrom.DefaultParams()
		c.Params = &p
	}
	c.Tiles = min(cmp.Or(c.Tiles, cores), c.Params.MaxCores)
	var coreOptions []int
	for v := 1; v <= 64 && v <= c.Tiles; v *= 2 {
		coreOptions = append(coreOptions, v)
	}
	if len(c.CacheOptionsKB) == 0 {
		c.CacheOptionsKB = []int{32, 64, 128}
	}
	c.ladders = [3][]int{coreOptions, c.CacheOptionsKB, actuator.Range(0, len(c.Params.VF)-1)}
}

// baseConfig is the configuration every partition is first acquired at
// and every action space is declared relative to.
func (c *ChipConfig) baseConfig() angstrom.Config {
	return angstrom.Config{Cores: 1, CacheKB: c.CacheOptionsKB[0], VF: 0}
}

func (c *ChipConfig) validate() error {
	if c.Chips < 1 {
		return fmt.Errorf("server: fleet of %d chips", c.Chips)
	}
	if c.Tiles < 1 {
		return fmt.Errorf("server: chip with %d tiles", c.Tiles)
	}
	// Partition.Knobs refuses any other L2 ladder, so each enrollment
	// would fail.
	for i, kb := range c.CacheOptionsKB {
		if kb < 1 || (i > 0 && kb <= c.CacheOptionsKB[i-1]) {
			return fmt.Errorf("server: L2 ladder %v is not strictly ascending from at least 1 KB", c.CacheOptionsKB)
		}
	}
	return nil
}

// clampToUnits is the highest rung at or below level whose option fits
// in units (rung 0 always does: every application holds one unit) — the
// seam where the water-filling arbiter bounds the per-application
// decision engine.
//
//angstrom:hotpath
func clampToUnits(options []int, level, units int) int {
	if max := len(options) - 1; level > max {
		level = max
	}
	for level > 0 && options[level] > units {
		level--
	}
	return level
}

// bindChipAt binds a to a partition of die a.chip acquired at an
// explicit start configuration, time share, and time. Fresh enrollments
// start at the base configuration; snapshot restore and migration
// re-acquire each partition at its recorded placement, which re-sums
// the tile ledger to its pre-crash value. The action space (and the
// nominal power the power rebalance prices from) is the workload class's
// (see classFor), declared against the canonical base configuration
// whatever the placement, so a restored app's controller sees the same
// effect tables an uncrashed one does. Reached only from journaling
// writers (admit, applyMigration).
//
//angstrom:journaled writer
func (d *Daemon) bindChipAt(a *app, start angstrom.Config, share float64, now sim.Time) error {
	cc := d.cfg.Chip
	sc := d.fleet.Chip(a.chip)
	cl, err := d.classFor(a.spec, true)
	if err != nil {
		return err
	}
	// Seeding the workload with the name's hash makes re-enrolling the
	// same name reproduce the same beat sequence.
	inst := workload.NewInstance(a.spec, hashName(a.name))
	part, err := sc.Acquire(a.name, inst, a.mon, start, share, now)
	if err != nil {
		return fmt.Errorf("server: %w: %v", ErrPoolExhausted, err)
	}

	var knobs [3]actuator.Knob
	knobs[axisCores], knobs[axisL2], knobs[axisDVFS], err = part.Knobs(cc.ladders[axisCores], cc.ladders[axisL2])
	if err != nil {
		sc.Release(a.name)
		return err
	}
	if cc.KnobWrap != nil {
		for i, k := range knobs {
			knobs[i] = cc.KnobWrap(a.name, k)
		}
	}
	rt, err := cl.ctl.New(a.name, d.clock, a.mon, core.Options{})
	if err != nil {
		sc.Release(a.name)
		return err
	}
	// rt is swapped under a.mu because a migration replaces it while
	// concurrent status readers render the standing decision against it;
	// part is an atomic pointer for the same reason.
	a.mu.Lock()
	a.rt = rt
	a.mu.Unlock()
	a.knobs = knobs
	a.part.Store(part)
	a.nomActiveW, a.minPowerX = cl.nomActiveW, cl.minPowerX
	return nil
}

// appClass is the part of an admission that depends only on the
// application's workload, its mode, and this daemon's parameters: the
// designer-declared model of §3.2, as opposed to what SEEC learns per
// application and the knobs it drives, which admit builds per app.
// Immutable once classFor has stored it.
type appClass struct {
	// space is the class's action space, a declaration every runtime of
	// the class decides over; nothing applies it (a chip app's act phase
	// steps its partition's knobs, an advisory app actuates on its side).
	space *actuator.Space
	// ctl is what the class's runtimes share of their controller state
	// (see core.Class), built from space.
	ctl *core.Class
	// Chip classes only: active watts at the base configuration, and the
	// cheapest power multiplier in the space (see rebalancePowerCaps).
	nomActiveW, minPowerX float64
}

type classKey struct {
	spec workload.Spec
	chip bool
}

// classFor returns the class of (spec, mode), tabulating it on the
// class's first admission. d.classes is written here only, under d.mu or
// during single-goroutine boot (admit's and applyMigration's contract).
func (d *Daemon) classFor(spec workload.Spec, chip bool) (*appClass, error) {
	key := classKey{spec, chip}
	if cl := d.classes[key]; cl != nil {
		return cl, nil
	}
	cl := &appClass{}
	if chip {
		cc := d.cfg.Chip
		p, base := *cc.Params, cc.baseConfig()
		baseM, err := angstrom.Evaluate(p, spec, base)
		if err != nil {
			return nil, err
		}
		if cl.space, err = buildChipSpace(p, spec, base, baseM, cc); err != nil {
			return nil, err
		}
		cl.nomActiveW = math.Max(baseM.PowerW-p.UncoreW, 1e-6)
		cl.minPowerX = math.Inf(1)
		for _, pt := range cl.space.Points() {
			cl.minPowerX = math.Min(cl.minPowerX, pt.Effect.PowerX)
		}
	} else {
		var err error
		if cl.space, err = buildSpace(spec); err != nil {
			return nil, err
		}
	}
	var err error
	if cl.ctl, err = core.NewClass(cl.space); err != nil {
		return nil, err
	}
	d.classes[key] = cl
	return cl, nil
}

// makeRoom returns the time share a new chip partition on die `chip`
// should start with. When that die has a free core the newcomer gets a
// dedicated one; otherwise (oversubscribed fleet) every existing
// partition *on that die* is shrunk proportionally toward the new fair
// share so the newcomer fits — co-located dies are untouched. The
// policy is here (when to shrink, the slot, the floor, what is refused);
// the shrink itself is the die's ledger arithmetic
// (angstrom.SharedChip.ShrinkShares). Called with d.mu held (which
// serializes it against the tick's share pass and owns d.roomBuf).
// Reached only from the Enroll writer: the incumbent shrinks it applies
// are covered by the enrollment record (replay re-runs the same shrink).
//
//angstrom:journaled writer
func (d *Daemon) makeRoom(chip int) (float64, error) {
	sc := d.fleet.Chip(chip)
	tiles := float64(sc.Tiles())
	parts, used := sc.Usage()
	free := tiles - used
	if free >= 1 {
		return 1, nil
	}
	if !d.cfg.Oversubscribe {
		return 0, fmt.Errorf("server: %w (chip pool full)", ErrPoolExhausted)
	}
	slot := tiles / float64(parts+1)
	if slot > 1 {
		slot = 1
	}
	if slot < minChipShare {
		return 0, fmt.Errorf("server: %w (chip oversubscribed beyond %gx)", ErrPoolExhausted, 1/minChipShare)
	}
	// The die's tenants in directory order (shard by shard): the ledger
	// sums their shares as floats, so the order is part of the result.
	tenants := d.roomBuf[:0]
	for i := range d.dir.shards {
		for _, other := range d.dir.shardList(i) {
			if part := other.partition(); part != nil && other.chip == chip {
				tenants = append(tenants, part)
			}
		}
	}
	used = sc.ShrinkShares(tenants, minChipShare, tiles-slot)
	clear(tenants) // the scratch must not keep withdrawn partitions alive
	d.roomBuf = tenants
	free = tiles - used
	if free < minChipShare {
		return 0, fmt.Errorf("server: %w (chip pool full)", ErrPoolExhausted)
	}
	if slot > free {
		slot = free
	}
	return slot, nil
}

// minChipShare is the smallest time share a chip partition may hold —
// beyond ~100 applications per tile the model's rates stop being
// meaningful within one decision period.
const minChipShare = 0.01

// buildChipSpace declares a workload's chip action space: one SEEC
// actuator per partition knob (angstrom.Partition.Knobs: same names, same
// order), whose declared effects are the chip model's predicted
// multipliers relative to the base configuration (the designer-declared
// model of §3.2; the runtime's RLS layer corrects divergence on line).
// The result is the class's declaration (see appClass): nothing applies
// it; the act phase steps the partition's knobs (see step).
func buildChipSpace(p angstrom.Params, spec workload.Spec, base angstrom.Config, baseM angstrom.Metrics, cc *ChipConfig) (*actuator.Space, error) {
	baseActive := math.Max(baseM.PowerW-p.UncoreW, 1e-9)
	// One knob is one Config field: with returns a configuration holding
	// value v there, to price the setting against base. Indexed by axis.
	knobs := []struct {
		name    string
		nominal int
		delay   float64
		label   func(v int) string
		with    func(c angstrom.Config, v int) angstrom.Config
	}{
		{"cores", base.Cores, 0.001,
			func(v int) string { return fmt.Sprintf("%d cores", v) }, func(c angstrom.Config, v int) angstrom.Config { c.Cores = v; return c }},
		{"l2-capacity", base.CacheKB, 0.0001,
			func(v int) string { return fmt.Sprintf("%dKB L2", v) }, func(c angstrom.Config, v int) angstrom.Config { c.CacheKB = v; return c }},
		{"dvfs", base.VF, 0.0005,
			func(v int) string { return fmt.Sprintf("%.1fV/%.0fMHz", p.VF[v].Volts, p.VF[v].FHz/1e6) },
			func(c angstrom.Config, v int) angstrom.Config { c.VF = v; return c }},
	}
	acts := make([]*actuator.Actuator, len(knobs))
	for i, k := range knobs {
		var err error
		acts[i], err = actuator.Sweep(k.name, cc.ladders[i], k.nominal, k.delay, actuator.GlobalScope, k.label,
			func(v int) (actuator.Effect, error) {
				m, merr := angstrom.Evaluate(p, spec, k.with(base, v))
				if merr != nil {
					return actuator.Effect{}, merr
				}
				return actuator.Effect{
					Speedup: m.HeartRate / baseM.HeartRate,
					PowerX:  math.Max(m.PowerW-p.UncoreW, 1e-9) / baseActive,
					Distort: 1,
				}, nil
			}, nil)
		if err != nil {
			return nil, err
		}
	}
	return actuator.NewSpace(acts...)
}

// runChipInterval is the act+observe phase for one chip-backed app:
// execute the previous decision's schedule (low slice first) over the
// elapsed wall/simulated interval, advancing the partition so it emits
// heartbeats at model-exact times. Called only from the tick goroutine.
// It runs once per chip-backed app per tick, mostly to find that no knob
// has anywhere to go (see step), so it formats and allocates nothing.
//
//angstrom:hotpath
func (d *Daemon) runChipInterval(a *app, now sim.Time) {
	part := a.partition()
	start := part.Now()
	dt := now - start
	if dt <= 0 {
		return
	}
	beatsBefore := a.mon.Count()
	cc := d.cfg.Chip
	pc := part.Config()
	var err, actErr error
	t := start
	for _, sl := range a.pending {
		if pc, err = cc.step(&a.knobs, part, pc, sl.Cfg, a.allocUnits()); err != nil && actErr == nil {
			actErr = err // knob refusals during rebalance are transient
		}
		t += sl.Duration * dt
		if t > now {
			t = now
		}
		if err = part.Advance(t); err != nil {
			if actErr == nil {
				actErr = err
			}
			break
		}
	}
	if err = part.Advance(now); err != nil && actErr == nil {
		actErr = err
	}
	// Park the knobs at the schedule's duration-weighted configuration
	// for the inter-tick gap. Without this, a wide bang-bang schedule
	// (lo at the ladder bottom, hi at the top) deadlocks the one-rung
	// steps: stepping toward lo then hi moves one rung down then one rung
	// up — net zero movement every tick — while the schedule's intent is
	// the weighted middle. The settle step always ratchets one rung
	// toward that intent.
	if len(a.settle) > 0 {
		if _, err = cc.step(&a.knobs, part, pc, a.settle, a.allocUnits()); err != nil && actErr == nil {
			actErr = err
		}
	}
	a.mu.Lock()
	if actErr != nil {
		a.actErr = actErr.Error()
	} else {
		a.actErr = ""
	}
	a.mu.Unlock()
	if emitted := a.mon.Count() - beatsBefore; emitted > 0 {
		d.beats.Add(emitted)
	}
}

// step moves each of a chip-backed app's knobs at most one rung toward
// cfg, axis by axis (cores, L2 capacity, DVFS), from pc, the
// configuration its partition holds, and returns the configuration the
// partition holds afterwards. Each axis's target is clamped to its ladder
// and, on the cores axis, to the units the manager granted
// (clampToUnits); the knob is called only when its rung moves, and the
// first refusal stops the step, wrapped as the axis's actuator names it.
// Which knobs move is a function of pc, cfg and units alone. A schedule
// asks for the same few configurations tick after tick, so nearly every
// call moves nothing and calls no knob.
//
//angstrom:hotpath
func (cc *ChipConfig) step(knobs *[3]actuator.Knob, part *angstrom.Partition, pc angstrom.Config, cfg actuator.Config, units int) (angstrom.Config, error) {
	for axis, k := range knobs {
		ladder := cc.ladders[axis]
		target := min(max(cfg[axis], 0), len(ladder)-1)
		if axis == axisCores {
			target = clampToUnits(ladder, target, units)
		}
		at := slices.Index(ladder, [3]int{pc.Cores, pc.CacheKB, pc.VF}[axis])
		next := at + cmp.Compare(target, at)
		if next == at {
			continue
		}
		if err := k.SetLevel(next); err != nil {
			// Worded as Actuator.Set words a refusal: status and
			// state_hash carry this text.
			//lint:allow hotpath cold branch: a refused knob ends the step
			return part.Config(), fmt.Errorf("actuator %q: apply setting %d: %w", k.Name(), cfg[axis], err)
		}
		pc = part.Config()
	}
	return pc, nil
}

// settleConfig is the schedule's duration-weighted configuration: the
// per-axis rounded mean of the low and high settings. It is where the
// knobs should rest between intervals so repeated schedules make
// monotone progress toward the schedule's intent (see runChipInterval).
// It is appended to dst, the app's previous settle configuration cut to
// length zero.
func settleConfig(dst actuator.Config, dec core.Decision) actuator.Config {
	if len(dec.LoCfg) == 0 || len(dec.HiCfg) != len(dec.LoCfg) {
		return nil
	}
	for i := range dec.LoCfg {
		w := float64(dec.LoCfg[i])*(1-dec.HiFrac) + float64(dec.HiCfg[i])*dec.HiFrac
		// Ceil, not round: parking below the weighted level caps the
		// real mix at the lower rung pair and can pin a saturated
		// controller just under its band; erring high leaves the
		// continuous HiFrac room to trim the overshoot.
		dst = append(dst, int(math.Ceil(w-1e-9)))
	}
	return dst
}
