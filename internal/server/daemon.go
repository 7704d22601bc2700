// Package server runs the SEEC observe–decide–act loop as a long-lived
// concurrent service: many applications enroll through an HTTP/JSON API,
// POST heartbeats (batched) as they make progress, and read back the
// runtime's latest Decision and core allocation. This is the paper's
// §3.1/§3.3 machinery lifted from a single simulated experiment to a
// daemon — one heartbeat.Monitor and one core.Runtime per enrolled
// application, plus core.Manager water-filling arbitration over a shared
// core pool, ticking continuously on a wall clock (or an accelerated
// simulated clock for tests and offline drivers).
//
// Concurrency model: the application directory is sharded (shard.go) —
// beat ingestion and status lookups resolve an app with one lock-free
// atomic load, enroll/withdraw update one shard under its own mutex,
// and the tick fans its per-application phases across a worker pool one
// shard at a time. The Daemon's own mutex guards only the control plane
// (the single-threaded Manager and chip admission); per-app decision
// state is guarded by the app's mutex; each app's core.Runtime is
// touched by exactly one tick worker per tick (ticks never overlap).
// The sharded tick is byte-identical to the serial pass: allocations
// come from one deterministic Manager.Step, and every per-app phase is
// independent across apps (enforced by the invariant tests).
package server

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/heartbeat"
	"angstrom/internal/journal"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// Sentinel errors the HTTP layer maps to status codes with errors.Is.
var (
	// ErrNotEnrolled marks requests naming an unknown application.
	ErrNotEnrolled = errors.New("not enrolled")
	// ErrDuplicate marks an enrollment under a name already in use.
	ErrDuplicate = errors.New("already enrolled")
	// ErrPoolExhausted marks enrollment beyond one app per pool core.
	ErrPoolExhausted = errors.New("core pool exhausted")
)

// MaxBeatBatch bounds one BeatRequest's count: large enough for any
// sane batching interval, small enough that a single request cannot
// monopolize the daemon.
const MaxBeatBatch = 10000

// MaxDistortion bounds a beat's |distortion| report. Distortion is a
// linear distance from the application's nominal value — any real
// report is modest — while values near MaxFloat64 would overflow the
// monitor's windowed sum to Inf (found by FuzzBeatTimestampsDirect)
// and poison the accuracy goal check.
const MaxDistortion = 1e150

// MaxWindow bounds a heartbeat averaging window, in beats: a monitor
// allocates its whole ring (56 bytes a beat) when it is built, so without
// a bound one enrollment request, or one snapshot entry, could ask for
// more memory than the machine has. Far above any useful window.
const MaxWindow = 1 << 16

func validWindow(w int) error {
	if w < 2 || w > MaxWindow {
		return fmt.Errorf("server: window %d outside [2, %d]", w, MaxWindow)
	}
	return nil
}

func validDistortion(d float64) error {
	if math.IsNaN(d) || d > MaxDistortion || d < -MaxDistortion {
		return fmt.Errorf("server: distortion %g outside [-%g, %g]", d, MaxDistortion, MaxDistortion)
	}
	return nil
}

// Config tunes the daemon. Zero fields select documented defaults.
type Config struct {
	// Cores is the shared resource pool the Manager water-fills across
	// enrolled applications (default 1024). Enrollment beyond one app per
	// core is refused, exactly like the in-simulation Manager, unless
	// Oversubscribe is set.
	Cores int
	// Period is the decision period of the ODA loop (default 100ms).
	Period time.Duration
	// Accel, when positive, replaces the wall clock with an accelerated
	// simulated clock that advances Accel seconds per tick. Zero (the
	// default) serves in real time.
	Accel float64
	// Window is the default heartbeat averaging window in beats when an
	// enrollment does not specify one (default heartbeat.DefaultWindow).
	Window int
	// Oversubscribe admits fleets larger than the core pool: surplus
	// applications time-share units (fractional Allocation.Share)
	// instead of being refused at enrollment.
	Oversubscribe bool
	// Shards is the application-directory shard count, rounded up to a
	// power of two (default: scaled from GOMAXPROCS). One shard plus one
	// tick worker reproduces the serial daemon exactly.
	Shards int
	// TickWorkers is the tick's worker-pool size for the per-shard
	// advance and decide phases (default GOMAXPROCS). Allocations are
	// byte-identical for any worker count.
	TickWorkers int
	// Chip, when non-nil, turns on chip-backed serving: every enrolled
	// application is bound to a partition of a shared angstrom chip —
	// one die by default, a placed and migratable fleet of ChipConfig.
	// Chips dies — and actuated through real hardware knobs (cores, L2,
	// DVFS) instead of an advisory ladder.
	Chip *ChipConfig
	// DataDir, when set, turns on the durability layer (persist.go):
	// control-plane mutations are journaled to a write-ahead log under
	// this directory, periodic snapshots compact it, and boot restores
	// the enrolled fleet from it instead of starting empty.
	DataDir string
	// SnapshotEvery is the snapshot interval (default 30s). Negative
	// disables periodic snapshots — journal-only mode, where recovery
	// replays the full history and is byte-identical to an uncrashed
	// daemon.
	SnapshotEvery time.Duration
	// JournalFlush bounds how long an asynchronously appended record
	// (beats, tick marks) stays buffered before the background flusher
	// makes it durable (default 100ms). Negative disables the flusher;
	// synchronous commits still flush. Requires DataDir.
	JournalFlush time.Duration
	// BeatTimeout, when positive, evicts advisory applications whose
	// last heartbeat (or enrollment, if they never beat) is older than
	// this many daemon-clock seconds — their cores, tiles, and power
	// caps return to the pool and stats.evicted counts them. Chip-backed
	// apps are exempt: the chip emits their beats, so client silence
	// does not mean death.
	BeatTimeout time.Duration
	// FS overrides the journal's filesystem (default: the real one).
	// Tests interpose journal.MemFS to inject faults and crash images.
	FS journal.FS

	// journalBeforeSync, when set, runs before every journal fsync with
	// the batch about to become durable — the commit-boundary hook the
	// crash-injection tests image the filesystem from.
	journalBeforeSync func(batch []byte)
}

func (c *Config) fill() {
	if c.Cores == 0 {
		c.Cores = 1024
	}
	if c.Period == 0 {
		c.Period = 100 * time.Millisecond
	}
	if c.Window == 0 {
		c.Window = heartbeat.DefaultWindow
	}
	if c.Shards == 0 {
		c.Shards = defaultShardCount()
	}
	if c.TickWorkers == 0 {
		c.TickWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Chip != nil {
		// Fill a copy: defaults derived from this daemon's Cores must not
		// leak into a second daemon built from the caller's same struct.
		chip := *c.Chip
		chip.fill(c.Cores)
		c.Chip = &chip
	}
}

// app is one enrolled application's serving state.
type app struct {
	name string
	// seq orders apps by enrollment (assigned under d.mu): snapshots
	// store the fleet in this order so a restore re-enrolls it exactly
	// as it was built (manager and contention-pass iteration order).
	seq    uint64
	window int // heartbeat averaging window (persisted by snapshots)
	// prio is the enrollment's declared water-fill weight (0 = default
	// 1); persisted by snapshots so a restore re-weights the manager.
	prio  float64
	mgrID int // the Manager's stable handle; indexes the tick's alloc table
	// hash is the name's directory hash and shard the directory shard
	// it selects, both stamped by insert: lookups compare hashes before
	// names, and the ingestion path bumps the shard beat counter without
	// rehashing the name per batch.
	hash  uint64
	shard int
	spec  workload.Spec
	mon   *heartbeat.Monitor
	rt    *core.Runtime // stepped only by the owning tick worker

	// goalEpoch counts SetGoal calls; the tick's quiescence check uses
	// it to re-decide after a goal change without re-reading the goal.
	goalEpoch atomic.Uint64
	// retired is set when retire takes the app out of the directory, and
	// never cleared (a re-enrollment under the same name is a new app). A
	// tick holds its per-shard snapshots across phases; this is how each
	// phase learns an app in them has since been withdrawn.
	retired atomic.Bool

	// Chip-backed state (nil/zero for advisory apps). part is the app's
	// slice of its chip — an atomic pointer because live migration
	// rebinds it while lock-free beat/status readers race the tick;
	// chip is the die index it is placed on (0 for advisory apps;
	// rewritten by a migration — between ticks, under d.mu and a.mu;
	// status readers read it under a.mu); units mirrors the manager's
	// latest unit grant for the core-knob clamp; pending is the previous
	// decision's schedule, executed by the next tick; settle is the
	// schedule's duration-weighted configuration the knobs are parked at
	// between intervals (tick workers only); every decision rewrites both
	// in place, over the backing arrays the first one allocated.
	part atomic.Pointer[angstrom.Partition]
	chip int
	// migratedAt is when the app last moved between dies (zero if
	// never): the migration scan won't pick it as a victim again until
	// its controller has had a cooldown to re-converge on the new die.
	// Written under d.mu on migration, read by the tick goroutine;
	// persisted by snapshots.
	migratedAt sim.Time
	units      atomic.Int64
	pending    []core.Slice
	settle     actuator.Config
	nomActiveW float64 // active watts at the nominal configuration
	minPowerX  float64 // cheapest power multiplier in the action space
	lastCapX   float64 // last applied power cap (tick goroutine only)

	// Quiescence tracking, touched only by the app's tick worker: the
	// inputs the last real rt.Step consumed. While none move (no new
	// beats, same allocation, same goal epoch, last step clean) the
	// previous decision stands and the decide phase skips the app.
	stepped          bool
	steppedErrored   bool
	steppedBeats     uint64
	steppedGoalEpoch uint64
	steppedUnits     int
	steppedShare     float64

	mu          sync.Mutex
	decision    core.Decision
	hasDecision bool
	decisionErr string
	actErr      string // last chip actuation error ("" when clean)
	alloc       core.Allocation
	enrolledAt  sim.Time
}

// allocUnits reports the manager's current unit grant (the core-knob
// clamp reads it from the actuation path).
func (a *app) allocUnits() int { return int(a.units.Load()) }

// partition is the app's current chip slice (nil for advisory apps).
// One atomic load: safe from the lock-free beat/status paths while a
// migration rebinds the app.
//
//angstrom:hotpath
func (a *app) partition() *angstrom.Partition { return a.part.Load() }

// Daemon is the multi-application serving runtime.
type Daemon struct {
	cfg      Config
	clock    sim.Nower
	simClock *AtomicClock // non-nil iff Accel > 0
	// swClock indirects the clock when a data directory is configured,
	// so boot-time journal replay can run under a settable clock and
	// hand over to the serving clock afterwards (non-nil iff DataDir).
	swClock *swapClock
	workers int

	// jd is the durability layer (persist.go), nil without DataDir.
	jd *durability

	reg   *heartbeat.Registry
	fleet *angstrom.Fleet // non-nil iff cfg.Chip != nil

	dir *directory // sharded app index; lock-free reads

	// mu is the control-plane lock: the (single-threaded) per-chip
	// Managers and broker, chip admission (makeRoom), placement,
	// migration, enroll/withdraw/goal sequencing, and the journal's
	// snapshot rotation. The beat and status paths never take it.
	mu sync.Mutex
	// mgrs is one water-filling Manager per chip (one entry for a
	// non-chip daemon; advisory apps always live in mgrs[0]). broker
	// splits the global core/power budget across them each tick by
	// aggregate corrected demand.
	mgrs      []*core.Manager
	broker    *core.Broker
	appSeq    uint64 // enrollment counter behind app.seq (under mu)
	chipCount atomic.Int64
	// classes holds what admission derives once per (workload, mode)
	// instead of once per app (see appClass); written by classFor only,
	// under mu or during single-goroutine boot.
	classes map[classKey]*appClass

	// The tick's allocation table, indexed by [chip][Manager app ID]
	// (no string hashing on the per-app path): an entry is valid for
	// this tick iff its epoch stamp matches allocTick. Written under
	// d.mu before the decide fan-out, read-only by the workers.
	allocByID [][]core.Allocation
	allocSeen [][]uint64
	allocTick uint64

	// snapBuf holds the tick's per-shard snapshots: immutable slice
	// headers published by the directory, valid for the whole tick.
	snapBuf [][]*app
	chipBuf [][]*app // reused per-shard chip-app scratch
	// chipApps is the tick's name-sorted chip-backed fleet, reused
	// across ticks (tick goroutine only); the migration scan reads it
	// after the tick. chipSeq is the same fleet in the shard order the
	// act phase gathered it in, last tick's kept in chipSeqPrev: while
	// the two agree, pointer for pointer, membership has not changed and
	// chipApps is still sorted. loadBuf is the placement/migration ledger
	// scratch.
	chipApps    []*app
	chipSeq     []*app
	chipSeqPrev []*app
	loadBuf     []angstrom.ChipLoad
	roomBuf     []*angstrom.Partition // makeRoom's tenant scratch (under mu)
	// loadAvgMem/loadAvgNoC are per-die EWMAs of the offered mem/NoC
	// utilization (alpha = loadAvgAlpha, updated once per tick under
	// d.mu). The migration scan prices these instead of the last
	// contention pass: instantaneous offered demand swings tick to tick
	// as bang-bang schedules alternate configurations, and pricing that
	// noise made balanced dies look transiently imbalanced. Nil unless
	// the fleet has more than one die; persisted by snapshots and
	// rebuilt by opTick replay.
	loadAvgMem []float64
	loadAvgNoC []float64

	// testHookAfterSnapshot, when set, runs between the tick's snapshot
	// phase and the advance phase — the window where a concurrent
	// withdraw historically raced the held snapshots. Tests use it to
	// withdraw deterministically mid-tick.
	testHookAfterSnapshot func()

	ticks atomic.Uint64
	// beats is the fleet-wide ingested-beat total. It sits on its own
	// cache line (heartbeat.Counter) because every ingesting connection
	// adds to it: JSON handlers add per request, binary wire connections
	// buffer writer-private deltas (heartbeat.Delta) and publish at
	// flush barriers, so the line is contended at flush rate rather than
	// beat rate.
	beats heartbeat.Counter
	// wireConns gauges live binary-protocol connections; wireFrames
	// counts accepted wire batch frames (delta-published per conn).
	wireConns  atomic.Int64
	wireFrames heartbeat.Counter
	decisions  atomic.Uint64
	evicted    atomic.Uint64 // stale apps withdrawn by BeatTimeout
	migrations atomic.Uint64 // apps moved between chips by maybeMigrate
	// The tick's refusals, counted where it used to drop them: time
	// shares a die's tile ledger would not grant (the arbiter re-offers
	// them next tick), and per-die arbitrations skipped because SetBudget
	// or Manager.Step failed. Both surface in /v1/stats.
	shareRefusals heartbeat.Counter
	stepErrors    heartbeat.Counter
	// lastMigrate is when the most recent inter-die move was applied —
	// the migration scan sits out a settle window after it so the
	// re-decision transient a move causes is never priced as imbalance.
	// Written by applyMigration (under d.mu, from the tick goroutine or
	// boot replay), read by the tick goroutine; persisted by snapshots.
	lastMigrate sim.Time
	// powerOvercommit is the float64 bits of the watts by which the sum
	// of floored per-app power caps exceeds the chip budget (0 when the
	// budget is satisfiable). Written by the tick goroutine, read by
	// Stats.
	powerOvercommit atomic.Uint64
	started         time.Time

	running  atomic.Bool // set by Start; Stop only waits when it ran
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewDaemon builds a daemon; call Start to begin ticking.
func NewDaemon(cfg Config) (*Daemon, error) {
	cfg.fill()
	if cfg.Cores < 1 {
		return nil, fmt.Errorf("server: %d cores", cfg.Cores)
	}
	if err := validWindow(cfg.Window); err != nil {
		return nil, err
	}
	if cfg.Shards < 1 || cfg.Shards > 1<<16 {
		return nil, fmt.Errorf("server: shard count %d outside [1, 65536]", cfg.Shards)
	}
	if cfg.TickWorkers < 1 {
		return nil, fmt.Errorf("server: %d tick workers", cfg.TickWorkers)
	}
	d := &Daemon{
		cfg:     cfg,
		workers: cfg.TickWorkers,
		reg:     heartbeat.NewRegistry(),
		dir:     newDirectory(cfg.Shards),
		classes: make(map[classKey]*appClass),
		started: time.Now(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	d.snapBuf = make([][]*app, len(d.dir.shards))
	d.chipBuf = make([][]*app, len(d.dir.shards))
	if cfg.Accel > 0 {
		d.simClock = NewAtomicClock(0)
		d.clock = d.simClock
	} else {
		d.clock = NewWallClock()
	}
	if cfg.DataDir != "" {
		// Indirect the clock so boot-time journal replay can drive every
		// component that captures it (manager, monitors, runtimes)
		// through a settable replay clock, then swap the serving clock
		// back in at the recovered frontier.
		d.swClock = newSwapClock(d.clock)
		d.clock = d.swClock
	}
	chips := 1
	if cfg.Chip != nil {
		if err := cfg.Chip.validate(); err != nil {
			return nil, err
		}
		chips = cfg.Chip.Chips
		if cfg.Cores < chips {
			// The broker floors every non-empty chip at one unit, so the
			// global pool must cover the fleet.
			return nil, fmt.Errorf("server: %d cores cannot cover %d chips", cfg.Cores, chips)
		}
		var err error
		if d.fleet, err = angstrom.NewFleet(*cfg.Chip.Params, cfg.Chip.Tiles, chips); err != nil {
			return nil, err
		}
		if chips > 1 {
			d.loadAvgMem = make([]float64, chips)
			d.loadAvgNoC = make([]float64, chips)
		}
	}
	d.mgrs = make([]*core.Manager, chips)
	for i := range d.mgrs {
		m, err := core.NewManager(d.clock, cfg.Cores)
		if err != nil {
			return nil, err
		}
		m.SetOversubscription(cfg.Oversubscribe)
		d.mgrs[i] = m
	}
	d.broker = core.NewBroker()
	d.allocByID = make([][]core.Allocation, chips)
	d.allocSeen = make([][]uint64, chips)
	if cfg.DataDir != "" {
		if err := d.openJournal(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Registry exposes the shared application directory (observer side).
func (d *Daemon) Registry() *heartbeat.Registry { return d.reg }

// Clock exposes the daemon's clock (read-only).
func (d *Daemon) Clock() sim.Nower { return d.clock }

// buildSpace builds the app's advisory action space: a thread-count
// ladder whose speedups come from the workload's declared Amdahl curve
// (power scales with active cores) crossed with a DVFS-like frequency
// ladder (power ~ f³). The rungs drive nothing (advisory): the daemon
// decides a rung; the application reads it back and actuates on its
// side. The result is a class template (see appClass), re-bound per app.
func buildSpace(spec workload.Spec) (*actuator.Space, error) {
	threads, err := actuator.Sweep("threads", []int{1, 2, 4, 8, 16}, 1, 0, actuator.ApplicationScope,
		func(t int) string { return fmt.Sprintf("%d threads", t) },
		func(t int) (actuator.Effect, error) {
			return actuator.Effect{Speedup: spec.ParallelSpeedup(t), PowerX: float64(t), Distort: 1}, nil
		}, advisory)
	if err != nil {
		return nil, err
	}
	freqs := []float64{0.6, 0.8, 1.0, 1.2}
	dvfs, err := actuator.Sweep("dvfs", []int{0, 1, 2, 3}, 2, 0, actuator.ApplicationScope,
		func(i int) string { return fmt.Sprintf("%.1fx clock", freqs[i]) },
		func(i int) (actuator.Effect, error) {
			return actuator.Effect{Speedup: freqs[i], PowerX: freqs[i] * freqs[i] * freqs[i], Distort: 1}, nil
		}, advisory)
	if err != nil {
		return nil, err
	}
	return actuator.NewSpace(threads, dvfs)
}

// advisory is the Apply of an advisory rung: nothing to drive.
func advisory(int) error { return nil }

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
	// The name is an URL path segment and the registry key; accept only
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
	window := req.Window
	if window == 0 {
		window = d.cfg.Window
	}
	if err := validWindow(window); err != nil {
		return err
	}

	a := d.newApp(name, spec, window, req.MinRate, req.MaxRate, req.Priority)

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.dir.get(name); dup {
		return fmt.Errorf("server: %q %w", name, ErrDuplicate)
	}
	if apps := d.totalApps(); !d.cfg.Oversubscribe && apps >= d.cfg.Cores {
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
	stageBound      admitStage = iota + 1 // partition acquired, or advisory runtime built
	stageManaged                          // enrolled with the die's manager
	stageRegistered                       // in the heartbeat registry
	stageAdmitted                         // in the directory: visible to beats, status, ticks
)

// admit is the one way an application enters the fleet; Enroll (live and
// replayed) and restoreApp validate, build the app, and hand it here. It
// binds the app to a chip partition at `at` (or, when at is nil, to an
// advisory action space), then joins the die's manager, the registry, the
// enrollment order, and the directory, in that order. A stage that
// refuses retires the stages before it, so a failed admission leaves no
// trace. Called with d.mu held (or single-goroutine during boot),
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
		space, err := cl.space.Rebind(advisory, advisory) // threads, dvfs
		if err != nil {
			return err
		}
		if a.rt, err = core.New(a.name, d.clock, a.mon, space, core.Options{}); err != nil {
			return err
		}
	}
	if err := d.joinManager(a); err != nil {
		d.retire(a, stageBound)
		return err
	}
	if err := d.reg.Enroll(a.name, a.mon); err != nil {
		d.retire(a, stageManaged)
		return err
	}
	d.appSeq++
	a.seq = d.appSeq
	if !d.dir.insert(a.name, a) {
		// Unreachable while admissions serialize on d.mu, but keep the
		// bookkeeping honest if that ever changes.
		d.retire(a, stageRegistered)
		return fmt.Errorf("server: %q %w", a.name, ErrDuplicate)
	}
	if a.partition() != nil {
		d.chipCount.Add(1)
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
	if done >= stageRegistered {
		d.reg.Withdraw(a.name)
	}
	if done >= stageManaged {
		d.mgrs[a.chip].RemoveApp(a.name)
	}
	if a.partition() != nil {
		d.fleet.Chip(a.chip).Release(a.name)
		if done >= stageAdmitted {
			d.chipCount.Add(-1)
		}
	}
}

// totalApps sums enrollments across the per-chip managers (under d.mu).
func (d *Daemon) totalApps() int {
	n := 0
	for _, m := range d.mgrs {
		n += m.Apps()
	}
	return n
}

// Withdraw removes an application and frees its core share.
func (d *Daemon) Withdraw(name string) error { return d.withdraw(name, false) }

// withdraw journals and applies one withdrawal. Client withdrawals
// commit synchronously (refused when degraded); evictions append
// asynchronously — a lost eviction record replays to a stale app that
// the next tick simply evicts again.
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) withdraw(name string, evict bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.dir.get(name)
	if !ok {
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

// lookup resolves an app through the sharded directory: one hash, one
// atomic load, one short probe — no locks on the ingestion path.
func (d *Daemon) lookup(name string) (*app, bool) { return d.dir.get(name) }

// Beat ingests count heartbeats for name, the last one carrying the
// given distortion. The monitor is internally synchronized, so beats
// from many connections interleave safely with the tick workers.
//
// A batch does not share one timestamp: the beats are spread evenly
// across the interval since the application's previous beat, so
// windowed rates stay unbiased even when the averaging window is
// smaller than a batch. (The very first batch has no prior reference
// and lands at the current time; clients that need exact placement send
// per-beat timestamps via BeatTimestamps.)
//
// Chip-backed applications are refused: their partition is the beat
// source, and a client beat stamped at wall-clock time would drag the
// monitor ahead of the partition's execution frontier and corrupt the
// controller's signal.
func (d *Daemon) Beat(name string, count int, distortion float64) error {
	a, err := d.beatTarget(name, count, distortion)
	if err != nil {
		return err
	}
	d.ingestSpread(a, count, distortion)
	d.beats.Add(uint64(count))
	return nil
}

// beatTarget validates a beat batch's shape and resolves its target
// application. It is shared by the JSON handlers and the binary wire
// decoder so the two transports enforce identical admission rules —
// the first link in the chain that makes them equivalent by
// construction (wire_equiv_test locks the whole chain in end to end).
func (d *Daemon) beatTarget(name string, count int, distortion float64) (*app, error) {
	if count < 1 || count > MaxBeatBatch {
		return nil, fmt.Errorf("server: beat count %d outside [1, %d]", count, MaxBeatBatch)
	}
	if err := validDistortion(distortion); err != nil {
		return nil, err
	}
	a, ok := d.lookup(name)
	if !ok {
		return nil, fmt.Errorf("server: %q %w", name, ErrNotEnrolled)
	}
	if a.partition() != nil {
		return nil, fmt.Errorf("server: %q is chip-backed; its beats are chip-emitted", name)
	}
	return a, nil
}

// ingestSpread journals and applies a validated server-spread batch:
// count beats spread across the interval since the app's previous
// beat, the last carrying distortion (one lock acquisition on the
// monitor, one atomic add on the app's shard counter). Both ingestion
// transports funnel here; only the fleet-wide beats total is left to
// the caller, because the wire path publishes it through per-connection
// deltas instead of per batch.
func (d *Daemon) ingestSpread(a *app, count int, distortion float64) {
	now := d.clock.Now()
	if d.jd != nil {
		d.journalAppend(record{Op: opBeat, T: now, Name: a.name, Count: count, Distortion: distortion})
	}
	a.mon.BeatBatchSpreadAt(now, count, distortion)
	d.dir.shards[a.shard].ingested.Add(uint64(count))
}

// ingestShifted journals and applies a validated client-timestamped
// batch, shifted so its final beat lands at the daemon's current time.
// ts must be finite and non-decreasing (the JSON handler validates, the
// wire decoder guarantees it by construction); it may alias a reusable
// buffer — the journal record is encoded and the monitor copies the
// values before ingestShifted returns.
func (d *Daemon) ingestShifted(a *app, ts []float64, distortion float64) {
	now := d.clock.Now()
	if d.jd != nil {
		// The raw client timestamps are journaled: replay recomputes the
		// same shift from the same `now` (the record's T).
		d.journalAppend(record{Op: opBeatTS, T: now, Name: a.name, Timestamps: ts, Distortion: distortion})
	}
	shift := now - ts[len(ts)-1]
	a.mon.BeatBatchShiftedAt(ts[:len(ts)-1], shift, now, distortion)
	d.dir.shards[a.shard].ingested.Add(uint64(len(ts)))
}

// BeatTimestamps ingests a batch whose per-beat timestamps the client
// supplied. The timestamps may use any epoch (a client monotonic clock,
// Unix seconds): only their spacing is used — the batch is shifted so
// its last beat lands at the daemon's current time, which makes the
// path immune to client/server clock skew. Timestamps must be finite
// and non-decreasing; beats that would land before the application's
// previous beat are clamped to it by the monitor.
func (d *Daemon) BeatTimestamps(name string, ts []float64, distortion float64) error {
	for i, t := range ts {
		// NaN also passes ordered comparisons, so check finiteness
		// first: a NaN timestamp would corrupt the monitor's frontier.
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("server: non-finite timestamp %g at index %d", t, i)
		}
		if i > 0 && t < ts[i-1] {
			return fmt.Errorf("server: timestamps decrease at index %d (%g after %g)", i, t, ts[i-1])
		}
	}
	a, err := d.beatTarget(name, len(ts), distortion)
	if err != nil {
		return err
	}
	d.ingestShifted(a, ts, distortion)
	d.beats.Add(uint64(len(ts)))
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

// Tick runs one decision period for every enrolled application: advance
// the accelerated clock (if any), execute chip-backed apps over the
// elapsed interval (emitting their heartbeats), arbitrate shared cores,
// then step each app's SEEC runtime and queue its schedule for the next
// interval. The per-application phases fan out across the tick worker
// pool shard by shard; quiescent apps (no new beats, unchanged
// allocation and goal, last step clean) keep their previous decision
// without re-running the decision engine. Start runs this on a timer;
// accelerated drivers and benchmarks may call it directly instead
// (never concurrently with Start).
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
	if d.jd != nil {
		d.journalAppend(record{Op: opTick, T: now})
	}
	// Migration rides after the tick record, not inside tickAt: replaying
	// an opTick must not re-run the migration scan (its outcome is its
	// own journaled record, the same pattern evictions use).
	d.maybeMigrate(now)
	d.evictStale(now)
	d.maybeSnapshot()
}

// tickAt is one decision epoch at time now. Journal replay calls it
// directly (the clock already set to the recorded time); the live path
// wraps it with the tick record, eviction, and snapshot phases above.
// Tick state is journaled by the opTick record, so this is the writer
// for every per-tick mutation (interference pricing, Manager.Step,
// partition shares).
//
//angstrom:journaled writer
//angstrom:deterministic
func (d *Daemon) tickAt(now sim.Time) {
	// Re-price cross-partition contention before executing the interval:
	// this tick's Advance (and every Sense the controllers read) runs at
	// the degradation implied by the fleet's current configurations.
	// Die order — each chip's ledger is independent, so the pass order
	// only needs to be stable.
	if d.fleet != nil {
		for i := 0; i < d.fleet.Chips(); i++ {
			d.fleet.Chip(i).UpdateContention()
		}
	}

	// Snapshot phase: one immutable slice header per shard. Withdrawn
	// apps may linger in a snapshot; every later phase skips the ones
	// retire has flagged.
	for i := range d.snapBuf {
		d.snapBuf[i] = d.dir.shardList(i)
	}
	if d.testHookAfterSnapshot != nil {
		d.testHookAfterSnapshot()
	}

	// Act + observe: run every chip partition up to `now` under the
	// previous decision's schedule, so the heartbeats the manager and
	// controllers are about to read reflect this interval's execution.
	// Fanned per shard; partitions advance independently.
	if d.fleet != nil {
		d.dir.forEachShard(d.workers, func(i int) {
			chips := d.chipBuf[i][:0]
			for _, a := range d.snapBuf[i] {
				if a.partition() == nil {
					continue
				}
				if a.retired.Load() {
					continue // withdrawn since the snapshot; partition released
				}
				chips = append(chips, a)
				d.runChipInterval(a, now)
			}
			d.chipBuf[i] = chips
		})
	}
	if d.fleet != nil {
		seq := d.chipSeqPrev[:0]
		for i := range d.chipBuf {
			seq = append(seq, d.chipBuf[i]...)
		}
		d.chipSeq, d.chipSeqPrev = seq, d.chipSeq
		// Name order, not shard order: the share-apply and power-cap
		// passes below interact with the shared tile ledgers, so a stable
		// order keeps them independent of the shard layout. Names are
		// unique, so the order is a function of membership alone, and
		// membership changes on a handful of ticks: the sort runs only
		// when the gathered sequence differs from last tick's. (A withdraw
		// and re-enroll under one name is a new *app: it differs.)
		if !slices.Equal(d.chipSeq, d.chipSeqPrev) {
			d.chipApps = append(d.chipApps[:0], d.chipSeq...)
			sort.Slice(d.chipApps, func(i, j int) bool { return d.chipApps[i].name < d.chipApps[j].name })
		}
	}
	chipApps := d.chipApps // the post-tick migration scan reads it too

	d.mu.Lock()
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
	for _, a := range chipApps {
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
	d.allocTick++
	for ci, m := range d.mgrs {
		if m.Apps() == 0 {
			continue
		}
		allocs, err := m.Step()
		if err != nil {
			d.stepErrors.Add(1) // the die's tenants keep last tick's grants
			continue
		}
		tbl, seen := d.allocByID[ci], d.allocSeen[ci]
		for _, al := range allocs {
			if al.ID >= len(tbl) {
				grown := make([]core.Allocation, al.ID+1+len(tbl))
				copy(grown, tbl)
				tbl = grown
				grownSeen := make([]uint64, len(grown))
				copy(grownSeen, seen)
				seen = grownSeen
			}
			tbl[al.ID] = al
			seen[al.ID] = d.allocTick
		}
		d.allocByID[ci], d.allocSeen[ci] = tbl, seen
	}

	// Apply the managers' time shares to chip partitions, shrinks first
	// so the grows always find the freed core-equivalents in the ledger.
	// Still under d.mu: Enroll's makeRoom also shrinks shares (to carve
	// a slot for a newcomer), and a concurrent grow pass working from
	// pre-shrink values would undo it and spuriously refuse admission.
	for pass := 0; pass < 2; pass++ {
		for _, a := range chipApps {
			al, ok := d.allocFor(a.chip, a.mgrID)
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
	d.mu.Unlock()

	d.rebalancePowerCaps(chipApps) // no-op without a budget; cheap when caps are stable

	// Decide: step every non-quiescent app's runtime, fanned per shard.
	// The allocation table is written above and only read from here on,
	// so the workers share it without synchronization.
	d.dir.forEachShard(d.workers, func(i int) {
		for _, a := range d.snapBuf[i] {
			// Skip apps withdrawn since the snapshot: stepping them would
			// count decisions for (and actuate) an app no longer enrolled.
			if a.retired.Load() {
				continue
			}
			al, hasAlloc := d.allocFor(a.chip, a.mgrID)
			if hasAlloc {
				a.units.Store(int64(al.Units))
			}
			d.decide(a, al, hasAlloc)
		}
	})
	d.ticks.Add(1)
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
	var stale []string
	for i := range d.snapBuf {
		for _, a := range d.snapBuf[i] {
			if a.partition() != nil {
				continue
			}
			last := a.mon.LastTime()
			a.mu.Lock()
			if a.enrolledAt > last {
				last = a.enrolledAt
			}
			a.mu.Unlock()
			if now-last > timeout {
				stale = append(stale, a.name)
			}
		}
	}
	// Name order, not shard order: eviction writes journal records, so
	// a deterministic order keeps replay independent of shard layout.
	sort.Strings(stale)
	for _, name := range stale {
		_ = d.withdraw(name, true) // already-withdrawn races are no-ops
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
func (d *Daemon) allocFor(chip, id int) (core.Allocation, bool) {
	tbl := d.allocByID[chip]
	if id < 0 || id >= len(tbl) || d.allocSeen[chip][id] != d.allocTick {
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

// Start launches the ODA loop. It returns immediately; Stop shuts the
// loop down and waits for it to exit.
func (d *Daemon) Start() {
	d.running.Store(true)
	go func() {
		defer close(d.done)
		ticker := time.NewTicker(d.cfg.Period)
		defer ticker.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-ticker.C:
				d.Tick()
			}
		}
	}()
}

// Stop halts the ODA loop, waiting for an in-flight tick to finish.
// Safe to call more than once, and before Start (it then only marks
// the daemon stopped). Close additionally drains the journal.
func (d *Daemon) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	if d.running.Load() {
		<-d.done
	}
}

// Status reports one application's serving state.
func (d *Daemon) Status(name string) (AppStatus, error) {
	a, ok := d.lookup(name)
	if !ok {
		return AppStatus{}, fmt.Errorf("server: %q %w", name, ErrNotEnrolled)
	}
	return d.status(a), nil
}

// List reports every enrolled application, sorted by name.
func (d *Daemon) List() []AppStatus {
	snapshot := d.dir.snapshot(make([]*app, 0, d.dir.len()))
	out := make([]AppStatus, len(snapshot))
	for i, a := range snapshot {
		out[i] = d.status(a)
	}
	sortAppStatuses(out)
	return out
}

func (d *Daemon) status(a *app) AppStatus {
	obs := a.mon.Observe()
	goals := a.mon.Goals()
	st := AppStatus{
		Name:     a.name,
		Workload: a.spec.Name,
		Observation: ObservationView{
			Beats:         obs.Beats,
			WindowRate:    obs.WindowRate,
			GlobalRate:    obs.GlobalRate,
			InstantRate:   obs.InstantRate,
			WindowLatency: obs.WindowLatency,
			Distortion:    obs.Distortion,
			LastTime:      obs.LastTime,
		},
		GoalMet: a.mon.Check().AllMet(),
	}
	if g := goals.Performance; g != nil {
		st.Goal = GoalView{MinRate: g.MinRate, MaxRate: g.MaxRate}
	}
	if part := a.partition(); part != nil {
		st.Chip = d.chipView(part)
	}
	a.mu.Lock()
	st.EnrolledAt = a.enrolledAt
	st.Cores = AllocationView{
		Units:   a.alloc.Units,
		Demand:  a.alloc.Demand,
		Share:   a.alloc.Share,
		GoalFit: a.alloc.GoalMet,
	}
	st.DecisionErr = a.decisionErr
	if st.Chip != nil {
		st.Chip.Chip = a.chip
		st.Chip.ActuationErr = a.actErr
	}
	if a.hasDecision {
		// Capture the runtime alongside the decision: a migration swaps
		// a.rt under this mutex, and the decision must be rendered against
		// the space it was decided in.
		dec, rt := a.decision, a.rt
		a.mu.Unlock()
		v := decisionView(dec, rt.Space())
		st.Decision = &v
		return st
	}
	a.mu.Unlock()
	return st
}

// decisionView renders a core.Decision with actuator settings resolved
// to their human-readable labels.
func decisionView(dec core.Decision, space *actuator.Space) DecisionView {
	label := func(cfg actuator.Config) map[string]string {
		out := make(map[string]string, len(space.Acts))
		for i, act := range space.Acts {
			if i < len(cfg) && cfg[i] >= 0 && cfg[i] < len(act.Settings) {
				out[act.Name] = act.Settings[cfg[i]].Label
			}
		}
		return out
	}
	return DecisionView{
		Time:           dec.Time,
		Goal:           dec.Goal,
		Observed:       dec.Observed,
		BaseEstimate:   dec.BaseEstimate,
		TargetSpeedup:  dec.TargetSpeedup,
		HiFrac:         dec.HiFrac,
		PredictedPower: dec.PredictedPower,
		LoConfig:       label(dec.LoCfg),
		HiConfig:       label(dec.HiCfg),
	}
}

// chipView renders one chip-backed app's hardware state for the wire.
// The caller passes the partition it already loaded so the view is
// internally consistent even while a migration rebinds the app (and
// fills in the die index and actuation error under the app's mutex).
func (d *Daemon) chipView(part *angstrom.Partition) *ChipView {
	s := part.Sense()
	cfg := part.Config()
	in := part.Interference()
	vf := d.cfg.Chip.Params.VF[cfg.VF]
	return &ChipView{
		Cores:     cfg.Cores,
		CacheKB:   cfg.CacheKB,
		VF:        fmt.Sprintf("%.1fV/%.0fMHz", vf.Volts, vf.FHz/1e6),
		TimeShare: part.Share(),
		IPS:       s.IPS,
		PowerW:    s.PowerW,
		StallFrac: s.StallFrac,
		HeartRate: s.HeartRate,
		EnergyJ:   s.EnergyJ,
		Slowdown:  in.Slowdown,
		MemRho:    in.MemRho,
		NoCRho:    in.NoCRho,
	}
}

// ChipStatus reports the shared chip's ledger for a single-die daemon,
// or ok=false when the daemon is not chip-backed or runs more than one
// die (clients of a fleet must use ChipStatuses — the legacy view would
// silently hide every other die).
func (d *Daemon) ChipStatus() (ChipStatusResponse, bool) {
	if d.fleet == nil || d.fleet.Chips() != 1 {
		return ChipStatusResponse{}, false
	}
	return d.chipStatusAt(0), true
}

// ChipStatuses reports every die's ledger, in die order (nil when the
// daemon is not chip-backed).
func (d *Daemon) ChipStatuses() []ChipStatusResponse {
	if d.fleet == nil {
		return nil
	}
	out := make([]ChipStatusResponse, d.fleet.Chips())
	for i := range out {
		out[i] = d.chipStatusAt(i)
	}
	return out
}

func (d *Daemon) chipStatusAt(i int) ChipStatusResponse {
	sc := d.fleet.Chip(i)
	parts, used := sc.Usage()
	c := sc.Contention()
	return ChipStatusResponse{
		Chip:              i,
		Tiles:             sc.Tiles(),
		Partitions:        parts,
		CoreEquivalents:   used,
		PowerW:            sc.TotalPowerW(),
		PowerBudgetW:      d.cfg.Chip.PowerBudgetW,
		UncoreW:           d.cfg.Chip.Params.UncoreW,
		MemBandwidthBps:   c.MemCapacityBps,
		MemDemandBps:      c.MemDemandBps,
		MemRho:            c.MemRho,
		NoCRho:            c.NoCRho,
		MemBandwidthScale: sc.MemBandwidthScale(),
		LedgerFaults:      sc.LedgerFaults(),
	}
}

// ShardBeats reports each directory shard's client-ingested beat count
// (JSON and binary wire alike; chip-emitted beats are not client
// ingestion). Under concurrent ingestion each entry is an independent
// atomic load; once writers have flushed their deltas and stopped,
// the slice sums exactly to Stats().Beats — the reconciliation the
// churn race test enforces against per-beat ground truth.
func (d *Daemon) ShardBeats() []uint64 {
	return d.dir.ingestTotals(make([]uint64, 0, len(d.dir.shards)))
}

// Stats reports daemon-wide counters.
func (d *Daemon) Stats() StatsResponse {
	st := StatsResponse{
		Apps:             d.dir.len(),
		ChipApps:         int(d.chipCount.Load()),
		Cores:            d.cfg.Cores,
		Shards:           len(d.dir.shards),
		Migrations:       d.migrations.Load(),
		Ticks:            d.ticks.Load(),
		Beats:            d.beats.Load(),
		Decisions:        d.decisions.Load(),
		Evicted:          d.evicted.Load(),
		WireConns:        int(d.wireConns.Load()),
		WireFrames:       d.wireFrames.Load(),
		ClockSeconds:     d.clock.Now(),
		UptimeSeconds:    time.Since(d.started).Seconds(),
		PeriodSeconds:    d.cfg.Period.Seconds(),
		Accelerated:      d.simClock != nil,
		PowerOvercommitW: math.Float64frombits(d.powerOvercommit.Load()),
		Tick:             TickStats{StepErrors: d.stepErrors.Load()},
	}
	if d.fleet != nil {
		st.Chips = d.fleet.Chips()
		st.Chip = &ChipStats{ShareRefusals: d.shareRefusals.Load()}
	}
	if jd := d.jd; jd != nil {
		js := &JournalStats{
			SnapshotSeq:    jd.snapSeq.Load(),
			Degraded:       jd.degraded.Load(),
			Error:          jd.reason(),
			DroppedRecords: jd.dropped.Load(),
		}
		if jd.w != nil {
			js.Records = jd.w.Seq()
		}
		st.Journal = js
	}
	return st
}
