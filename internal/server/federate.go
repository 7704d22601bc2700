package server

import (
	"fmt"
	"math"

	"angstrom/internal/angstrom"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// This file is the federation layer's serving-side policy: where a new
// enrollment lands in a multi-die fleet (placeChip), when and where a
// contention-saturated application moves (maybeMigrate), and the chaos
// entry point that derates one die's memory bandwidth (SaturateChip).
//
// Both decisions are pure functions of the fleet's ledger state — tile
// headroom and the last contention pass's demand aggregates — with
// index-order tie-breaks, so a journal replay that rebuilds the same
// ledgers re-derives the same placements. Their *outcomes* are what the
// journal records (an enrollment's pinned die, an opMigrate record):
// replay re-applies the outcome rather than re-running the scan, the
// same pattern evictions use, so recovery never depends on the policy
// and the policy is free to evolve.

// coreLoadWeight blends tile pressure into the placement score: rho
// dominates (the unpartitionable resources are what co-location
// poisons), core occupancy breaks near-ties toward the emptier die.
const coreLoadWeight = 0.1

// migrateHysteresis is how much a migration must improve the worse of
// the two dies involved before it fires — moves that would only shuffle
// saturation (or ping-pong comparable hogs between comparably loaded
// dies) stay put.
const migrateHysteresis = 0.05

// migrateSettleTicks is how many ticks the migration scan sits out
// after any move. A migration invalidates the moved app's decision and
// re-splits the broker budget, so the next few contention passes carry
// a transient the scan must not price as imbalance.
const migrateSettleTicks = 4

// migrateCooldownTicks is how many ticks a migrated app is ineligible
// to be picked as a victim again — roughly the horizon its controller
// needs to re-converge on the new die. Without it a persistent-scarcity
// fleet (every die contended, every tenant below the slowdown
// threshold) bounces its heaviest hogs between dies forever.
const migrateCooldownTicks = 40

// loadAvgAlpha is the per-tick EWMA weight for the smoothed per-die
// utilization the migration scan prices (~4-tick time constant, the
// same horizon as the settle window).
const loadAvgAlpha = 0.2

// migrateSaturation is the smoothed offered utilization a die must
// reach before its tenants are migration candidates. Below saturation
// the die can serve its aggregate demand — tenant slowdown reflects
// fleet-wide scarcity that no placement fixes, and because controllers
// escalate their configurations on a contended die and relax on an
// idle one, demand-chasing moves below this line oscillate forever.
const migrateSaturation = 1.0

// tickSimSeconds is the simulated-time width of one decision period:
// the accelerated clock advances Accel per tick, the wall clock one
// Period.
func (d *Daemon) tickSimSeconds() float64 {
	if d.cfg.Accel > 0 {
		return d.cfg.Accel
	}
	return d.cfg.Period.Seconds()
}

// placeChip picks the die for a new enrollment: the candidate's
// full-rate demand (base-configuration bytes/s and flit-hops/s) is
// added to each die's measured aggregate, and the die with the lowest
// predicted max(mem rho, NoC rho) — tile pressure as tie-break — wins.
// Dies without a whole free tile are skipped unless the daemon
// oversubscribes; if every die is skipped the one with the most
// fractional headroom is used (admission then decides). Called with
// d.mu held; pure function of ledger state, die-index tie-break.
//
//angstrom:deterministic
func (d *Daemon) placeChip(spec workload.Spec) int {
	if d.fleet.Chips() == 1 {
		return 0
	}
	cc := d.cfg.Chip
	var memBps, flitHops float64
	if m, err := angstrom.Evaluate(*cc.Params, spec, cc.baseConfig()); err == nil {
		memBps, flitHops = m.MemBytesPerSec, m.FlitHopsPerSec
	}
	d.loadBuf = d.fleet.Loads(d.loadBuf[:0])
	best, bestScore := -1, math.Inf(1)
	fallback, fallbackFree := 0, math.Inf(-1)
	for i, l := range d.loadBuf {
		if free := l.Free(); free > fallbackFree {
			fallback, fallbackFree = i, free
		}
		if l.Free() < 1 && !d.cfg.Oversubscribe {
			continue
		}
		mem, noc := l.PredictedRho(memBps, flitHops)
		score := math.Max(mem, noc) + coreLoadWeight*l.CoreEquivalents/float64(l.Tiles)
		if score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		return fallback
	}
	return best
}

// maybeMigrate runs the per-tick migration scan: if a *saturated* die
// (smoothed offered utilization at or past migrateSaturation) has
// degraded a tenant past the configured slowdown threshold, move the
// heaviest degraded contributor to the die where its demand is
// predicted to fit best — provided the move improves the worse of the
// two dies involved by at least the hysteresis. Comparing the
// post-move pair (source without the victim, target with it) against
// the pre-move source keeps the policy monotone: a move that merely
// swaps which die is saturated never qualifies. The saturation
// precondition, the smoothed load signal, and the two cooldowns
// (fleet-wide settle window, per-app re-migration cooldown) all damp
// the same failure mode from different angles: offered demand is
// elastic — controllers escalate on a contended die and relax on an
// idle one — so chasing sub-saturation imbalance bounces hogs between
// dies forever without making anyone faster. At most one migration per
// tick: each move invalidates every ledger the scan priced, and the
// next tick re-scans with fresh contention.
//
// Called from the tick goroutine after the tick's opTick record and
// before eviction. The move itself is journaled as its own record
// (commit-before-mutate), so crash recovery replays the outcome at the
// exact point in the mutation order it happened live.
//
//angstrom:journaled writer
func (d *Daemon) maybeMigrate(now sim.Time) {
	if d.fleet == nil || d.fleet.Chips() < 2 {
		return
	}
	thr := d.cfg.Chip.MigrateSlowdown
	if thr <= 0 {
		return
	}
	dt := d.tickSimSeconds()
	if d.lastMigrate > 0 && now-d.lastMigrate < sim.Time(migrateSettleTicks)*sim.Time(dt) {
		return // let the last move's re-decision transient settle first
	}
	// Victim: among apps on a saturated die degraded past the slowdown
	// threshold, the one whose share-scaled memory demand is largest —
	// moving the heaviest contributor relieves its die the most. Apps
	// still inside their post-migration cooldown are ineligible.
	// d.chipApps is this tick's name-sorted fleet, so ties resolve by
	// name.
	var victim *app
	var victimPart *angstrom.Partition
	var victimLoad float64
	for _, a := range d.chipApps {
		part := a.partition()
		if part == nil {
			continue
		}
		if math.Max(d.loadAvgMem[a.chip], d.loadAvgNoC[a.chip]) < migrateSaturation {
			continue
		}
		if a.migratedAt > 0 && now-a.migratedAt < sim.Time(migrateCooldownTicks)*sim.Time(dt) {
			continue
		}
		in := part.Interference()
		if in.Slowdown >= thr {
			continue
		}
		load := part.Metrics().MemBytesPerSec * part.Share()
		if victim == nil || load > victimLoad {
			victim, victimPart, victimLoad = a, part, load
		}
	}
	if victim == nil {
		return
	}

	from := victim.chip
	cfg := victimPart.Config()
	share := victimPart.Share()
	memBps := victimPart.Metrics().MemBytesPerSec * share
	flitHops := victimPart.Metrics().FlitHopsPerSec * share
	// Price the scan on the smoothed per-die utilization, not the last
	// contention pass: instantaneous offered demand swings tick to tick
	// as bang-bang schedules alternate configurations, and sampling one
	// die at its peak against another at its trough reads as imbalance
	// that isn't there. Capacities and tile headroom still come from the
	// live ledgers (they move in steps, not noise).
	d.loadBuf = d.fleet.Loads(d.loadBuf[:0])
	src := d.loadBuf[from]
	vMem, vNoC := 0.0, 0.0
	if src.MemCapacityBps > 0 {
		vMem = memBps / src.MemCapacityBps
	}
	if src.NoCCapacity > 0 {
		vNoC = flitHops / src.NoCCapacity
	}
	srcRho := math.Max(d.loadAvgMem[from], d.loadAvgNoC[from])
	// Source utilization after the victim departs — its demand priced at
	// this die's (possibly derated) capacity comes off the aggregate.
	srcAfter := math.Max(d.loadAvgMem[from]-vMem, d.loadAvgNoC[from]-vNoC)

	// Target: the die whose predicted utilization with the victim's
	// demand added is lowest, among dies with ledger room to re-acquire
	// the partition at its current configuration and share.
	to, toScore := -1, math.Inf(1)
	for i, l := range d.loadBuf {
		if i == from {
			continue
		}
		if l.Free() < float64(cfg.Cores)*share {
			continue
		}
		mem, noc := d.loadAvgMem[i], d.loadAvgNoC[i]
		if l.MemCapacityBps > 0 {
			mem += memBps / l.MemCapacityBps
		}
		if l.NoCCapacity > 0 {
			noc += flitHops / l.NoCCapacity
		}
		if score := math.Max(mem, noc); score < toScore {
			to, toScore = i, score
		}
	}
	if to < 0 || math.Max(toScore, srcAfter) >= srcRho-migrateHysteresis {
		return // the move wouldn't relieve the worst die; stay put
	}
	if err := d.journalCommit(record{Op: opMigrate, T: now, Name: victim.name, Chip: to}); err != nil {
		return // degraded: no move without a durable record
	}
	_ = d.applyMigration(victim.name, to, now)
}

// applyMigration moves one chip-backed application between dies: drain
// its partition from the source ledger, re-acquire on the target at the
// same configuration and time share, and re-enroll it with the target
// die's manager under its standing goal and priority. The app keeps its
// monitor (heartbeat history survives the move); controller learning
// restarts against the new die's action space, exactly as it does on a
// snapshot restore. Reached from the maybeMigrate writer live and from
// journal replay (the opMigrate record), never concurrently with a
// tick's worker phases — always downstream of a durable opMigrate, so
// it plays the writer role for the ledger mutators it drives.
//
//angstrom:journaled writer
func (d *Daemon) applyMigration(name string, to int, now sim.Time) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.dir.get(name)
	if !ok {
		return fmt.Errorf("server: %q %w", name, ErrNotEnrolled)
	}
	part := a.partition()
	if part == nil {
		return fmt.Errorf("server: %q is not chip-backed", name)
	}
	if to < 0 || to >= d.fleet.Chips() || to == a.chip {
		return fmt.Errorf("server: migration of %q to chip %d invalid", name, to)
	}
	from := a.chip
	cfg := part.Config()
	share := part.Share()

	// bind puts the app on one die: partition first, then that die's
	// manager; a manager refusal gives the partition back.
	bind := func(chip int) error {
		a.mu.Lock() // status readers render the die index
		a.chip = chip
		a.mu.Unlock()
		if err := d.bindChipAt(a, cfg, share, now); err != nil {
			return err
		}
		if err := d.joinManager(a); err != nil {
			d.fleet.Chip(chip).Release(name)
			return err
		}
		return nil
	}
	d.fleet.Chip(from).Release(name)
	d.mgrs[from].RemoveApp(name)
	if err := bind(to); err != nil {
		// Roll the drain back: re-bind on the source so the app is never
		// left partitionless. The source ledger and manager just freed
		// exactly this reservation, so the re-bind cannot fail for space.
		if err2 := bind(from); err2 != nil {
			return fmt.Errorf("server: migration of %q failed and could not re-bind source: %v (after %w)", name, err2, err)
		}
		return err
	}

	// The standing decision was made against the old die's action space:
	// drop it and force a fresh step. The goal-epoch bump breaks the
	// quiescence skip even if no beat arrives before the next tick.
	a.pending = nil
	a.settle = nil
	a.stepped = false
	a.lastCapX = 0
	a.goalEpoch.Add(1)
	a.mu.Lock()
	a.hasDecision = false
	a.decisionErr = ""
	a.actErr = ""
	a.mu.Unlock()
	// Stamp both cooldowns from the record's time, so a journal replay
	// (which re-enters here with the durable T) rebuilds the exact same
	// scan eligibility the live daemon had.
	a.migratedAt = now
	d.lastMigrate = now
	d.migrations.Add(1)
	return nil
}

// Migrations reports how many inter-die moves the daemon has applied.
func (d *Daemon) Migrations() uint64 { return d.migrations.Load() }

// SaturateChip derates one die's off-chip memory bandwidth to scale
// times nominal (0 < scale <= 1; 1 restores it) — the serving-side
// fault/chaos injection the scenario harness drives to model a thermal
// throttle or failed memory channel. Journaled ahead of the apply, so
// recovery reproduces the derated fleet and the migrations it caused.
//
//angstrom:journaled writer
func (d *Daemon) SaturateChip(chip int, scale float64) error {
	if d.fleet == nil {
		return fmt.Errorf("server: chip mode not enabled on this daemon")
	}
	if chip < 0 || chip >= d.fleet.Chips() {
		return fmt.Errorf("server: chip %d outside fleet of %d", chip, d.fleet.Chips())
	}
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("server: mem bandwidth scale %g outside (0, 1]", scale)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.journalCommit(record{Op: opChipScale, T: d.clock.Now(), Chip: chip, Scale: scale}); err != nil {
		return err
	}
	return d.applyChipScale(chip, scale)
}

// applyChipScale applies a journaled bandwidth derating (live tail of
// SaturateChip; re-entered by replay for opChipScale records — both
// paths run downstream of a durable opChipScale record).
//
//angstrom:journaled writer
func (d *Daemon) applyChipScale(chip int, scale float64) error {
	if d.fleet == nil || chip < 0 || chip >= d.fleet.Chips() {
		return fmt.Errorf("server: chip %d outside fleet", chip)
	}
	return d.fleet.Chip(chip).SetMemBandwidthScale(scale)
}
