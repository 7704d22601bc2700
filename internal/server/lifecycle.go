package server

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"sync"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// buildSpace builds the app's advisory action space: a thread-count
// ladder whose speedups come from the workload's declared Amdahl curve
// (power scales with active cores) crossed with a DVFS-like frequency
// ladder (power ~ f³). The rungs drive nothing (advisory): the daemon
// decides a rung; the application reads it back and actuates on its
// side. The result is the class's declaration (see appClass).
func buildSpace(spec workload.Spec) (*actuator.Space, error) {
	threads, err := actuator.Sweep("threads", []int{1, 2, 4, 8, 16}, 1, 0, actuator.ApplicationScope,
		func(t int) string { return fmt.Sprintf("%d threads", t) },
		func(t int) (actuator.Effect, error) {
			return actuator.Effect{Speedup: spec.ParallelSpeedup(t), PowerX: float64(t), Distort: 1}, nil
		}, nil)
	if err != nil {
		return nil, err
	}
	freqs := []float64{0.6, 0.8, 1.0, 1.2}
	dvfs, err := actuator.Sweep("dvfs", []int{0, 1, 2, 3}, 2, 0, actuator.ApplicationScope,
		func(i int) string { return fmt.Sprintf("%.1fx clock", freqs[i]) },
		func(i int) (actuator.Effect, error) {
			return actuator.Effect{Speedup: freqs[i], PowerX: freqs[i] * freqs[i] * freqs[i], Distort: 1}, nil
		}, nil)
	if err != nil {
		return nil, err
	}
	return actuator.NewSpace(threads, dvfs)
}

// curveShapes memoizes core.VerifyCurve per scaling curve. The key
// mirrors workload's speedup-table memo — the curve is a pure function
// of (ParallelFrac, SyncOverhead) sampled over the pool size — so a
// fleet enrolled over a handful of workloads verifies each curve once.
var curveShapes sync.Map // curveShapeKey -> curveShape

type curveShapeKey struct {
	parallelFrac float64
	syncOverhead float64
	cores        int
}

type curveShape struct {
	peak     int
	unimodal bool
}

func curveShapeFor(spec workload.Spec, cores int, scaling func(int) float64) curveShape {
	key := curveShapeKey{spec.ParallelFrac, spec.SyncOverhead, cores}
	if v, ok := curveShapes.Load(key); ok {
		return v.(curveShape)
	}
	peak, unimodal := core.VerifyCurve(scaling, cores)
	v, _ := curveShapes.LoadOrStore(key, curveShape{peak: peak, unimodal: unimodal})
	return v.(curveShape)
}

// validPriority vets an enrollment's water-fill weight: 0 selects the
// default weight 1; anything else must be finite, positive, and within
// a sane magnitude (a runaway weight would starve every other class to
// its one-unit floor).
func validPriority(p float64) error {
	if p == 0 {
		return nil
	}
	if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1e6 {
		return fmt.Errorf("server: priority %g outside (0, 1e6]", p)
	}
	return nil
}

func validGoal(minRate, maxRate float64) error {
	// NaN slips through ordered comparisons, so finiteness is checked
	// explicitly: a NaN/Inf band would poison every controller estimate
	// downstream.
	if math.IsNaN(minRate) || math.IsInf(minRate, 0) || math.IsNaN(maxRate) || math.IsInf(maxRate, 0) {
		return fmt.Errorf("server: non-finite rate band [%g, %g]", minRate, maxRate)
	}
	if minRate <= 0 {
		return fmt.Errorf("server: min_rate %g must be positive", minRate)
	}
	if maxRate != 0 && maxRate < minRate {
		return fmt.Errorf("server: inverted rate band [%g, %g]", minRate, maxRate)
	}
	return nil
}

// Enroll registers an application and starts controlling it on the next
// tick. The request must carry a performance goal: a goalless app would
// stall both decision layers (core.Runtime and core.Manager refuse to
// step without one). In chip-backed mode the application is bound to a
// partition of the shared chip unless it asks for advisory mode.
//
// Enroll is a journaling writer: it commits the record ahead of every
// mutation, and replay re-enters it to rebuild the fleet.
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) Enroll(req EnrollRequest) error {
	// The name is an URL path segment and the directory key; accept only
	// names that round-trip unchanged (no whitespace, no separators) so
	// the client's name and the enrolled name can never diverge.
	name := req.Name
	if name == "" || name != strings.TrimSpace(name) || strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("server: invalid app name %q", req.Name)
	}
	if err := validGoal(req.MinRate, req.MaxRate); err != nil {
		return err
	}
	if err := validPriority(req.Priority); err != nil {
		return err
	}
	chipBacked := false
	switch req.Mode {
	case "", ModeDefault:
		chipBacked = d.fleet != nil
	case ModeChip:
		if d.fleet == nil {
			return fmt.Errorf("server: chip mode not enabled on this daemon")
		}
		chipBacked = true
	case ModeAdvisory:
	default:
		return fmt.Errorf("server: unknown mode %q", req.Mode)
	}
	if req.Chip != nil {
		if !chipBacked {
			return fmt.Errorf("server: chip pin on a non-chip enrollment")
		}
		if *req.Chip < 0 || *req.Chip >= d.fleet.Chips() {
			return fmt.Errorf("server: chip %d outside fleet of %d", *req.Chip, d.fleet.Chips())
		}
	}
	wl := req.Workload
	if wl == "" {
		wl = "barnes"
	}
	spec, err := workload.ByName(wl)
	if err != nil {
		return err
	}
	window := cmp.Or(req.Window, heartbeat.DefaultWindow)
	if err := validWindow(window); err != nil {
		return err
	}

	a := d.newApp(name, spec, window, req.MinRate, req.MaxRate, req.Priority)

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.dir.get(name); dup {
		return fmt.Errorf("server: %q %w", name, ErrDuplicate)
	}
	if apps := d.dir.len(); !d.cfg.Oversubscribe && apps >= d.cfg.Cores {
		return fmt.Errorf("server: %w (%d apps on %d cores)", ErrPoolExhausted, apps, d.cfg.Cores)
	}
	// Place the enrollment before journaling and stamp the decision into
	// the record: the chosen die is part of the durable history, so
	// replay re-binds at the recorded placement instead of re-running the
	// bin-packer against a ledger mid-rebuild. (Old journals carry no pin
	// and re-place; a single-chip fleet always resolves to die 0.)
	if chipBacked && req.Chip == nil {
		idx := d.placeChip(spec)
		req.Chip = &idx
	}
	if req.Chip != nil {
		a.chip = *req.Chip
	}
	// Journal ahead of the apply (after the cheap pre-checks): a commit
	// failure degrades the daemon before any state changes, and an
	// apply failure below replays to the same failure. One timestamp
	// covers enrollment and chip acquisition so replay reproduces both.
	now := d.clock.Now()
	if err := d.journalCommit(record{Op: opEnroll, T: now, Enroll: &req}); err != nil {
		return err
	}
	a.enrolledAt = now
	var at *placement
	if chipBacked {
		share, err := d.makeRoom(a.chip)
		if err != nil {
			return err
		}
		at = &placement{cfg: d.cfg.Chip.baseConfig(), share: share}
	}
	return d.admit(a, at, now)
}

// newApp builds an application's serving state around a fresh monitor
// carrying its goal, holding the one unit every app starts with. The
// app is private to the calling writer until admit publishes it.
//
//angstrom:journaled writer
func (d *Daemon) newApp(name string, spec workload.Spec, window int, minRate, maxRate, prio float64) *app {
	mon := heartbeat.New(d.clock, heartbeat.WithWindow(window))
	mon.SetPerformanceGoal(minRate, maxRate)
	a := &app{name: name, spec: spec, mon: mon, window: window, prio: prio}
	a.units.Store(1)
	a.alloc = core.Allocation{App: name, Units: 1, Share: 1}
	return a
}

// placement is where a chip-backed app's partition starts on die a.chip:
// base configuration and a makeRoom share for a fresh enrollment, the
// recorded ones for a snapshot restore.
type placement struct {
	cfg   angstrom.Config
	share float64
}

// admitStage counts the stages of an admission completed so far.
type admitStage int

const (
	stageBound    admitStage = iota + 1 // partition acquired, or advisory runtime built
	stageManaged                        // enrolled with the die's manager
	stageAdmitted                       // in the directory: visible to beats, status, ticks
)

// admit is the one way an application enters the fleet; Enroll (live and
// replayed) and restoreApp validate, build the app, and hand it here. It
// binds the app to a chip partition at `at` (or, when at is nil, builds
// its runtime on its advisory class), then joins the die's manager and
// then the directory, at the end of its list: admissions serialize, so
// the directory's order is enrollment order. A stage that refuses
// retires the stages before it, so a failed admission leaves no trace. Called with d.mu held (or single-goroutine during boot),
// downstream of the caller's durable record.
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) admit(a *app, at *placement, now sim.Time) error {
	if at != nil {
		if err := d.bindChipAt(a, at.cfg, at.share, now); err != nil {
			return err
		}
	} else {
		cl, err := d.classFor(a.spec, false)
		if err != nil {
			return err
		}
		if a.rt, err = cl.ctl.New(a.name, d.clock, a.mon, core.Options{}); err != nil {
			return err
		}
		a.cls = cl
	}
	if err := d.joinManager(a); err != nil {
		d.retire(a, stageBound)
		return err
	}
	if !d.dir.insert(a.name, a) {
		// Unreachable while admissions serialize on d.mu, but keep the
		// bookkeeping honest if that ever changes.
		d.retire(a, stageManaged)
		return fmt.Errorf("server: %q %w", a.name, ErrDuplicate)
	}
	return nil
}

// joinManager enrolls a with its die's manager (d.mgrs[a.chip]) under
// its priority and records the manager's handle; admission and migration
// both come through here. On failure the manager is unchanged.
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) joinManager(a *app) error {
	// The memoized curve shares one table across every app on the same
	// workload, and its verified shape is memoized alongside it: the
	// manager's per-tick demand inversion reads array slots, and the
	// O(cores) VerifyCurve scan runs once per curve, not once per
	// enrollment (a 10k-app burst re-deriving it cost more than the
	// enrollments themselves).
	scaling := a.spec.CachedSpeedup(d.cfg.Cores)
	shape := curveShapeFor(a.spec, d.cfg.Cores, scaling)
	mgr := d.mgrs[a.chip]
	if err := mgr.AddAppWithShape(a.name, a.mon, scaling, shape.peak, shape.unimodal); err != nil {
		return err
	}
	if a.prio > 0 {
		if err := mgr.SetPriority(a.name, a.prio); err != nil {
			mgr.RemoveApp(a.name)
			return err
		}
	}
	a.mgrID, _ = mgr.AppID(a.name)
	a.mu.Lock()
	a.alloc.ID = a.mgrID
	a.mu.Unlock()
	return nil
}

// retire is admit's inverse: it undoes the stages up to `done`, last
// first. withdraw retires a fully admitted app, admit's rollback a
// partial one — never touching a stage the app did not complete, where
// the name may be another app's. The partition pointer is left in place
// (tick workers may hold a snapshot of the app); a released partition
// turns further actuation into clean errors.
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) retire(a *app, done admitStage) {
	if done >= stageAdmitted {
		d.dir.remove(a.name)
		a.retired.Store(true)
	}
	if done >= stageManaged {
		d.mgrs[a.chip].RemoveApp(a.name)
	}
	if a.partition() != nil {
		d.fleet.Chip(a.chip).Release(a.name)
	}
}

// Withdraw removes an application and frees its core share.
func (d *Daemon) Withdraw(name string) error { return d.withdraw(name, false, nil) }

// withdraw journals and applies one withdrawal. Client withdrawals
// commit synchronously (refused when degraded); evictions append
// asynchronously — a lost eviction record replays to a stale app that
// the next tick simply evicts again. A non-nil only must still be the
// app enrolled under name, or nothing is withdrawn or journaled.
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) withdraw(name string, evict bool, only *app) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.dir.get(name)
	if !ok || (only != nil && a != only) {
		return fmt.Errorf("server: %q %w", name, ErrNotEnrolled)
	}
	rec := record{Op: opWithdraw, T: d.clock.Now(), Name: name, Evict: evict}
	if evict {
		d.journalAppend(rec)
	} else if err := d.journalCommit(rec); err != nil {
		return err
	}
	d.retire(a, stageAdmitted)
	if evict {
		d.evicted.Add(1)
	}
	return nil
}

// SetGoal replaces the application's performance goal. Chip-backed apps
// under a power budget see their budget share re-derived on the next
// tick. Goal changes serialize on d.mu (they are rare next to beats):
// journaling them outside the lock could race a snapshot rotation and
// strand a committed change in a pruned segment.
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) SetGoal(name string, minRate, maxRate float64) error {
	if err := validGoal(minRate, maxRate); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.lookup(name)
	if !ok {
		return fmt.Errorf("server: %q %w", name, ErrNotEnrolled)
	}
	rec := record{Op: opGoal, T: d.clock.Now(), Name: name, MinRate: minRate, MaxRate: maxRate}
	if err := d.journalCommit(rec); err != nil {
		return err
	}
	a.mon.SetPerformanceGoal(minRate, maxRate)
	a.goalEpoch.Add(1)
	return nil
}
