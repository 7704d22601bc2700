package server

import (
	"slices"
	"sort"
	"strings"

	"angstrom/internal/core"
	"angstrom/internal/sim"
)

// Tick runs one decision period for every enrolled application: advance
// the accelerated clock (if any), execute chip-backed apps over the
// elapsed interval (emitting their heartbeats), arbitrate shared cores,
// then step each app's SEEC runtime and queue its schedule for the next
// interval. The decide phase fans out across the tick worker pool shard
// by shard; quiescent apps (no new beats, unchanged allocation and goal,
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
	// snapBuf holds the tick's per-shard snapshots: immutable slice
	// headers published by the directory, valid for the whole tick.
	snapBuf [][]*app
	// chipApps is the tick's name-sorted chip-backed fleet. chipSeq is
	// the same fleet in the shard order the act phase gathered it in,
	// last tick's kept in chipSeqPrev: while the two agree, pointer for
	// pointer, membership has not changed and chipApps is still sorted.
	chipApps    []*app
	chipSeq     []*app
	chipSeqPrev []*app
	// The allocation table, indexed by [chip][Manager app ID] (no string
	// hashing on the per-app path): an entry is valid for this tick iff
	// its epoch stamp matches allocTick. Written by arbitrate under d.mu,
	// read-only by the decide workers.
	allocByID [][]core.Allocation
	allocSeen [][]uint64
	allocTick uint64
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
	d.snapshotShards()
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

// snapshotShards takes one immutable slice header per shard. Withdrawn
// apps may linger in a snapshot; every later phase skips the ones
// retire has flagged.
func (d *Daemon) snapshotShards() {
	for i := range d.tick.snapBuf {
		d.tick.snapBuf[i] = d.dir.shardList(i)
	}
}

// actObserve runs every chip partition up to now under the previous
// decision's schedule, so the heartbeats the manager and controllers
// are about to read reflect this interval's execution. Serial, in shard
// order: knob moves land in their die's shared tile ledger, so one order
// keeps a chip fleet byte-identical at any TickWorkers. The chip apps it
// ran become the tick's chipApps.
//
//angstrom:deterministic
func (d *Daemon) actObserve(now sim.Time) {
	if d.fleet == nil {
		return
	}
	t := &d.tick
	seq := t.chipSeqPrev[:0]
	for _, shard := range t.snapBuf {
		for _, a := range shard {
			if a.partition() == nil || a.retired.Load() {
				continue // advisory, or withdrawn since the snapshot (partition released)
			}
			seq = append(seq, a)
			d.runChipInterval(a, now)
		}
	}
	t.chipSeq, t.chipSeqPrev = seq, t.chipSeq
	// Name order, not shard order: the later share-apply and power-cap
	// passes interact with the shared tile ledgers, so a stable
	// order keeps them independent of the shard layout. Names are
	// unique, so the order is a function of membership alone, and
	// membership changes on a handful of ticks: the sort runs only
	// when the gathered sequence differs from last tick's. (A withdraw
	// and re-enroll under one name is a new *app: it differs.)
	if !slices.Equal(t.chipSeq, t.chipSeqPrev) {
		t.chipApps = append(t.chipApps[:0], t.chipSeq...)
		sort.Slice(t.chipApps, func(i, j int) bool { return t.chipApps[i].name < t.chipApps[j].name })
	}
}

// arbitrate is the control-plane phase, run under d.mu: it folds the
// tick's load into the migration EWMAs, prices each chip app's
// contention into its manager, splits the core pool across the dies,
// steps every manager into the allocation table, and applies the
// granted time shares to the chip partitions.
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
	// Publish each manager's allocations into its ID-indexed table:
	// integer reads on the per-app path instead of a 10k-entry name map
	// rebuilt every tick. Epoch stamping makes last tick's entries
	// invisible without clearing anything.
	t.allocTick++
	for ci, m := range d.mgrs {
		if m.Apps() == 0 {
			continue
		}
		allocs, err := m.Step()
		if err != nil {
			d.stepErrors.Add(1) // the die's tenants keep last tick's grants
			continue
		}
		tbl, seen := t.allocByID[ci], t.allocSeen[ci]
		for _, al := range allocs {
			if al.ID >= len(tbl) {
				tbl = append(tbl, make([]core.Allocation, al.ID+1)...)
				seen = append(seen, make([]uint64, al.ID+1)...)
			}
			tbl[al.ID] = al
			seen[al.ID] = t.allocTick
		}
		t.allocByID[ci], t.allocSeen[ci] = tbl, seen
	}

	// Apply the managers' time shares to chip partitions, shrinks first
	// so the grows always find the freed core-equivalents in the ledger.
	// Still under d.mu: Enroll's makeRoom also shrinks shares (to carve
	// a slot for a newcomer), and a concurrent grow pass working from
	// pre-shrink values would undo it and spuriously refuse admission.
	for pass := 0; pass < 2; pass++ {
		for _, a := range t.chipApps {
			al, ok := t.allocFor(a.chip, a.mgrID)
			if !ok || al.Share <= 0 {
				continue
			}
			part := a.partition()
			cur := part.Share()
			if (pass == 0 && al.Share < cur) || (pass == 1 && al.Share > cur) {
				if err := part.SetShare(al.Share); err != nil {
					d.shareRefusals.Add(1) // transient: re-offered next tick
				}
			}
		}
	}
}

// decideAll steps every non-quiescent app's runtime, fanned per shard.
// The allocation table is written by arbitrate and only read from here
// on, so the workers share it without synchronization.
//
//angstrom:deterministic
func (d *Daemon) decideAll() {
	t := &d.tick
	d.dir.forEachShard(d.cfg.TickWorkers, func(i int) {
		for _, a := range t.snapBuf[i] {
			// Skip apps withdrawn since the snapshot: stepping them would
			// count decisions for (and actuate) an app no longer enrolled.
			if a.retired.Load() {
				continue
			}
			al, hasAlloc := t.allocFor(a.chip, a.mgrID)
			if hasAlloc {
				a.units.Store(int64(al.Units))
			}
			d.decide(a, al, hasAlloc)
		}
	})
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
	var stale []*app
	for i := range d.tick.snapBuf {
		for _, a := range d.tick.snapBuf[i] {
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
				stale = append(stale, a)
			}
		}
	}
	// Name order, not shard order: eviction writes journal records, so
	// a deterministic order keeps replay independent of shard layout.
	slices.SortFunc(stale, func(a, b *app) int { return strings.Compare(a.name, b.name) })
	for _, a := range stale {
		// Evict a only: its name may already belong to a successor the
		// snapshot never saw. Already-withdrawn races are no-ops.
		_ = d.withdraw(a.name, true, a)
	}
}

// Evicted reports how many stale applications BeatTimeout has evicted.
func (d *Daemon) Evicted() uint64 { return d.evicted.Load() }

// allocFor reads this tick's allocation for a Manager app ID on one
// chip's manager (ok=false when the app was not part of the tick's Step
// — e.g. enrolled after it, or the Step errored). An ID freed by a
// withdraw and re-issued to a newer app is safe: the entry is
// overwritten before it is consulted, or epoch-invisible. IDs are only
// meaningful per manager, which is why the table is two-level.
func (t *tick) allocFor(chip, id int) (core.Allocation, bool) {
	tbl := t.allocByID[chip]
	if id < 0 || id >= len(tbl) || t.allocSeen[chip][id] != t.allocTick {
		return core.Allocation{}, false
	}
	return tbl[id], true
}

// decide runs (or skips) one app's decision. Called only by the app's
// tick worker.
func (d *Daemon) decide(a *app, al core.Allocation, hasAlloc bool) {
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
