package server

import (
	"sync"
	"sync/atomic"

	"angstrom/internal/sim"
)

// Tick runs one decision period for every enrolled application: advance
// the accelerated clock (if any), execute chip-backed apps over the
// elapsed interval (emitting their heartbeats), arbitrate shared cores,
// then step each app's SEEC runtime and queue its schedule for the next
// interval. Every phase walks the fleet in enrollment order; the decide
// phase fans it out across the tick worker pool in fixed-size chunks.
// Quiescent apps (no new beats, unchanged allocation and goal,
// last step clean) keep their previous decision without re-running the
// decision engine. Start runs this on a timer; accelerated drivers and
// benchmarks may call it directly instead (never concurrently with
// Start).
func (d *Daemon) Tick() {
	if d.simClock != nil {
		d.simClock.Advance(d.cfg.Accel)
	}
	now := d.clock.Now()
	d.tickAt(now)
	// The tick record (the decision epoch) is appended after the tick
	// ran but before any eviction it triggers, so replay interleaves
	// tick and eviction withdrawals in live order. Appending is pure
	// buffering — no I/O on the tick path; the background flusher (or
	// the next commit) makes it durable.
	d.journalAppend(record{Op: opTick, T: now})
	// Migration rides after the tick record, not inside tickAt: replaying
	// an opTick must not re-run the migration scan (its outcome is its
	// own journaled record, the same pattern evictions use).
	d.maybeMigrate(now)
	d.evictStale(now)
	d.maybeSnapshot()
}

// tick is the state tickAt's phases hand one another, owned by the tick
// goroutine (by boot's single goroutine during replay) and reused from
// tick to tick. The migration and eviction scans read it after the
// opTick record.
type tick struct {
	// apps is the tick's snapshot of the fleet in enrollment order: the
	// immutable slice header the directory published, valid for the
	// whole tick.
	apps []*app
	// chipApps is the tick's chip-backed fleet, in the same order.
	chipApps []*app
	// stepped records, per die, whether arbitrate's Manager.Step ran
	// this tick: only then are the die's tenants granted anew.
	stepped []bool
}

// tickAt is one decision epoch at time now, phase by phase. Journal
// replay calls it directly (the clock already set to the recorded time);
// the live path wraps it with the tick record, eviction, and snapshot
// phases above. Tick state is journaled by the opTick record, so this is
// the writer for every per-tick mutation (interference pricing,
// Manager.Step, partition shares, power caps).
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) tickAt(now sim.Time) {
	d.priceContention()
	d.snapshotFleet()
	d.actObserve(now)
	d.arbitrate()
	d.rebalancePowerCaps(d.tick.chipApps) // no-op without a budget; cheap when caps are stable
	d.decideAll()
	d.ticks.Add(1)
}

// priceContention re-prices cross-partition contention before the
// interval executes: this tick's Advance (and every Sense the
// controllers read) runs at the degradation implied by the fleet's
// current configurations. Die order — each chip's ledger is
// independent, so the pass order only needs to be stable.
func (d *Daemon) priceContention() {
	if d.fleet != nil {
		for i := 0; i < d.fleet.Chips(); i++ {
			d.fleet.Chip(i).UpdateContention()
		}
	}
}

// snapshotFleet takes the tick's snapshot of the fleet: one load of the
// list header the directory published. Withdrawn apps may linger in the
// snapshot; every later phase skips the ones retire has flagged.
func (d *Daemon) snapshotFleet() { d.tick.apps = d.dir.apps() }

// actObserve runs every chip partition up to now under the previous
// decision's schedule, so the heartbeats the manager and controllers
// are about to read reflect this interval's execution. Serial, in
// enrollment order: knob moves land in their die's shared tile ledger,
// so one order keeps a chip fleet byte-identical at any TickWorkers.
// The chip apps it ran, in that order, become the tick's chipApps, which
// the share, power-cap and migration passes walk.
//
//angstrom:deterministic
func (d *Daemon) actObserve(now sim.Time) {
	if d.fleet == nil {
		return
	}
	t := &d.tick
	t.chipApps = t.chipApps[:0]
	for _, a := range t.apps {
		if a.partition() == nil || a.retired.Load() {
			continue // advisory, or withdrawn since the snapshot (partition released)
		}
		t.chipApps = append(t.chipApps, a)
		d.runChipInterval(a, now)
	}
}

// arbitrate is the control-plane phase, run under d.mu: it folds the
// tick's load into the migration EWMAs, prices each chip app's
// contention into its manager, splits the core pool across the dies,
// steps every manager, copies each app's grant onto the app, and
// applies the granted time shares to the chip partitions.
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) arbitrate() {
	t := &d.tick
	d.mu.Lock()
	defer d.mu.Unlock()
	// Fold this tick's offered utilization into the per-die EWMAs the
	// migration scan prices (under d.mu so snapshots capture a
	// consistent value; replayed ticks rebuild it identically).
	if d.loadAvgMem != nil {
		d.loadBuf = d.fleet.Loads(d.loadBuf[:0])
		for i, l := range d.loadBuf {
			d.loadAvgMem[i] += loadAvgAlpha * (l.MemRho - d.loadAvgMem[i])
			d.loadAvgNoC[i] += loadAvgAlpha * (l.NoCRho - d.loadAvgNoC[i])
		}
	}
	// Feed each chip app's measured contention factor to its die's
	// manager so water-filling provisions for contended throughput.
	// (retired is exact under d.mu: a handle freed since the act phase
	// may already name a newcomer.)
	for _, a := range t.chipApps {
		if !a.retired.Load() {
			d.mgrs[a.chip].SetInterference(a.mgrID, a.partition().Interference().Slowdown)
		}
	}
	// Broker pass: split the global core pool across the per-chip
	// managers by last tick's aggregate corrected demand. One manager is
	// a fleet of one: the broker hands it the whole pool, bit for bit.
	units := d.broker.SplitUnits(d.cfg.Cores, d.mgrs)
	for i, m := range d.mgrs {
		if m.Apps() > 0 {
			if err := m.SetBudget(units[i]); err != nil {
				d.stepErrors.Add(1) // the die arbitrates under last tick's budget
			}
		}
	}
	t.stepped = append(t.stepped[:0], make([]bool, len(d.mgrs))...)
	for ci, m := range d.mgrs {
		if m.Apps() == 0 {
			continue
		}
		if _, err := m.Step(); err != nil {
			d.stepErrors.Add(1) // the die's tenants keep last tick's grants
			continue
		}
		t.stepped[ci] = true
	}
	// Each app reads its grant back by the handle its die's manager
	// knows it by. retired is exact under d.mu, and a withdrawn app is
	// never granted: its handle may already name a newcomer.
	for _, a := range t.apps {
		a.granted = false
		if !a.retired.Load() && t.stepped[a.chip] {
			a.grant, a.granted = d.mgrs[a.chip].Grant(a.mgrID)
		}
	}

	// Apply the managers' time shares to chip partitions, shrinks first
	// so the grows always find the freed core-equivalents in the ledger.
	// Still under d.mu: Enroll's makeRoom also shrinks shares (to carve
	// a slot for a newcomer), and a concurrent grow pass working from
	// pre-shrink values would undo it and spuriously refuse admission.
	for pass := 0; pass < 2; pass++ {
		for _, a := range t.chipApps {
			share := a.grant.Share
			if !a.granted || share <= 0 {
				continue
			}
			part := a.partition()
			cur := part.Share()
			if (pass == 0 && share < cur) || (pass == 1 && share > cur) {
				if err := part.SetShare(share); err != nil {
					d.shareRefusals.Add(1) // transient: re-offered next tick
				}
			}
		}
	}
}

// decideChunk is how many apps a decide worker claims at a time: enough
// that claiming costs nothing next to stepping, few enough that the
// workers finish together.
const decideChunk = 64

// decideAll steps every non-quiescent app's runtime, the fleet fanned out
// across TickWorkers in chunks of decideChunk apps. Each app's decision
// is independent of every other's, so the fan-out matches the serial
// pass byte for byte. Each app's grant is written by arbitrate and only
// read from here on, so the workers need no synchronization for it.
//
//angstrom:deterministic
func (d *Daemon) decideAll() {
	t := &d.tick
	forEachChunk(len(t.apps), d.cfg.TickWorkers, func(lo, hi int) {
		for _, a := range t.apps[lo:hi] {
			// Skip apps withdrawn since the snapshot: stepping them would
			// count decisions for (and actuate) an app no longer enrolled.
			if a.retired.Load() {
				continue
			}
			d.decide(a)
		}
	})
}

// forEachChunk runs fn over [0, n) in chunks of decideChunk indices
// across a pool of `workers` goroutines, the caller among them, each
// claiming the next unclaimed chunk. workers <= 1, or a single chunk,
// runs inline: the serial pass the parallel one must match byte for
// byte.
func forEachChunk(n, workers int, fn func(lo, hi int)) {
	if n <= decideChunk {
		workers = 1
	}
	var next atomic.Int64
	work := func() {
		for {
			hi := int(next.Add(decideChunk))
			lo := hi - decideChunk
			if lo >= n {
				return
			}
			fn(lo, min(hi, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for range workers - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// evictStale withdraws advisory applications whose last heartbeat (or
// enrollment, for apps that never beat) is older than BeatTimeout
// daemon-clock seconds, returning their cores and power share to the
// pool. Chip-backed apps are exempt — the chip emits their beats, so a
// silent client does not mean a dead one. Called from the tick
// goroutine; evictions are journaled as withdraw records so replay
// reproduces them without re-running the scan.
func (d *Daemon) evictStale(now sim.Time) {
	timeout := d.cfg.BeatTimeout.Seconds()
	if timeout <= 0 {
		return
	}
	// Enrollment order: eviction writes journal records, so it walks the
	// tick's list, the one order every state-writing pass shares.
	for _, a := range d.tick.apps {
		if a.partition() != nil || a.retired.Load() {
			continue
		}
		last := a.mon.LastTime()
		a.mu.Lock()
		if a.enrolledAt > last {
			last = a.enrolledAt
		}
		a.mu.Unlock()
		if now-last > timeout {
			// Evict a only: its name may already belong to a successor the
			// snapshot never saw. Already-withdrawn races are no-ops.
			_ = d.withdraw(a.name, true, a)
		}
	}
}

// Evicted reports how many stale applications BeatTimeout has evicted.
//
//lint:allow unusedexport the BeatTimeout eviction tests count evictions through it
func (d *Daemon) Evicted() uint64 { return d.evicted.Load() }

// decide runs (or skips) one app's decision under this tick's grant.
// Called only by the app's tick worker.
func (d *Daemon) decide(a *app) {
	al, hasAlloc := a.grant, a.granted
	// Load the quiescence inputs before stepping: anything that moves
	// after these reads re-triggers a step next tick, never silently
	// extends a skip.
	goalEpoch := a.goalEpoch.Load()
	beats := a.mon.Count()
	if a.partition() == nil && a.stepped && !a.steppedErrored &&
		beats == a.steppedBeats && goalEpoch == a.steppedGoalEpoch &&
		(!hasAlloc || (al.Units == a.steppedUnits && al.Share == a.steppedShare)) {
		// Quiescent: hold the standing decision. Stepping an idle app
		// would feed the controller a zero-rate interval artifact and
		// wind it up; MarkIdle keeps the runtime's observation interval
		// current so the wake-up step measures only the period in which
		// beats actually reappeared, not the whole gap. Refresh the
		// allocation view (Demand/GoalMet can move even when Units/Share
		// do not).
		a.rt.MarkIdle()
		if hasAlloc {
			a.mu.Lock()
			a.alloc = al
			a.mu.Unlock()
		}
		return
	}
	dec, err := a.rt.Step()
	a.stepped = true
	a.steppedErrored = err != nil
	a.steppedBeats = beats
	a.steppedGoalEpoch = goalEpoch
	if hasAlloc {
		a.steppedUnits, a.steppedShare = al.Units, al.Share
	}
	a.mu.Lock()
	if err != nil {
		a.decisionErr = err.Error()
	} else {
		a.decision = dec
		a.hasDecision = true
		a.decisionErr = ""
		d.decisions.Add(1)
	}
	if hasAlloc {
		a.alloc = al
	}
	a.mu.Unlock()
	if a.partition() != nil && err == nil {
		// Slices(1) yields fractions of the next interval; the next
		// tick scales them by the real elapsed time.
		a.pending = dec.AppendSlices(a.pending[:0], 1)
		a.settle = settleConfig(a.settle[:0], dec)
	}
}
