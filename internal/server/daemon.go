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
// Concurrency model: the application directory (shard.go) resolves an
// app for beat ingestion and status lookups with one lock-free atomic
// load in a sharded name index, and keeps the fleet in one
// enrollment-ordered list that enroll/withdraw republish under the
// directory's writer mutex. The tick walks that list: serially where
// order is part of the result (the chip act phase, whose knob moves
// share each die's tile ledger, and the share, power-cap, migration
// and eviction passes), and fanned across a worker pool in fixed-size
// chunks for the decide phase. The Daemon's own mutex guards the
// control plane (the single-threaded Manager and chip admission);
// per-app decision state is guarded by the app's mutex; each app's
// core.Runtime is touched by exactly one tick worker per tick (ticks
// never overlap). The fanned-out tick is byte-identical to the serial
// pass at any shard or worker count: allocations come from one
// deterministic Manager.Step, and every decision is independent across
// apps (enforced by the invariant tests).
package server

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
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
	// Oversubscribe admits fleets larger than the core pool: surplus
	// applications time-share units (fractional Allocation.Share)
	// instead of being refused at enrollment.
	Oversubscribe bool
	// Shards sizes the application directory's name index: the number
	// of hash-partitioned lookup tables, rounded up to a power of two
	// (default: scaled from GOMAXPROCS). A pure performance knob:
	// nothing the daemon decides depends on it.
	Shards int
	// TickWorkers is the tick's worker-pool size for the decide phase
	// (default GOMAXPROCS). Allocations, and a chip fleet's knob moves,
	// are byte-identical for any worker count.
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
	// makes it durable (default 100ms); the flusher also runs as soon
	// as 1 MiB of records is buffered. Negative disables the flusher;
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
}

func (c *Config) fill() {
	c.Cores = cmp.Or(c.Cores, 1024)
	c.Period = cmp.Or(c.Period, 100*time.Millisecond)
	c.Shards = cmp.Or(c.Shards, defaultShardCount())
	c.TickWorkers = cmp.Or(c.TickWorkers, runtime.GOMAXPROCS(0))
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
	name   string
	window int // heartbeat averaging window (persisted by snapshots)
	// prio is the enrollment's declared water-fill weight (0 = default
	// 1); persisted by snapshots so a restore re-weights the manager.
	prio  float64
	mgrID int // the Manager's stable handle; indexes the tick's alloc table
	// hash is the name's directory hash, stamped by insert: lookups
	// compare hashes before names.
	hash uint64
	spec workload.Spec
	mon  *heartbeat.Monitor
	rt   *core.Runtime // stepped only by the owning tick worker
	// cls is the app's class, which renders its decisions' labels; set
	// with rt (under mu once the app is visible).
	cls *appClass

	// goalEpoch counts SetGoal calls; the tick's quiescence check uses
	// it to re-decide after a goal change without re-reading the goal.
	goalEpoch atomic.Uint64
	// retired is set when retire takes the app out of the directory, and
	// never cleared (a re-enrollment under the same name is a new app). A
	// tick holds its snapshot of the fleet across phases; this is how
	// each phase learns an app in it has since been withdrawn.
	retired atomic.Bool

	// Chip-backed state (nil/zero for advisory apps). part is the app's
	// slice of its chip — an atomic pointer because live migration
	// rebinds it while lock-free beat/status readers race the tick;
	// chip is the die index it is placed on (0 for advisory apps;
	// rewritten by a migration — between ticks, under d.mu and a.mu;
	// status readers read it under a.mu); knobs are part's three knobs
	// by axis, wrapped by ChipConfig.KnobWrap when it is set (rebound
	// with part; stepped by the act phase only); units mirrors the
	// manager's latest unit grant for the core-knob clamp; pending is
	// the previous decision's schedule, executed by the next tick;
	// settle is the schedule's duration-weighted configuration the knobs
	// are parked at between intervals (tick workers only); every
	// decision rewrites both in place, over the backing arrays the first
	// one allocated.
	part  atomic.Pointer[angstrom.Partition]
	knobs [3]actuator.Knob
	chip  int
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

// allocUnits reports the manager's current unit grant (the act step
// clamps the core knob to it).
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

	// jd is the durability layer (persist.go); without DataDir it has no
	// writer and journals nothing.
	jd *durability

	fleet *angstrom.Fleet // non-nil iff cfg.Chip != nil

	dir *directory // the one index of enrolled apps; lock-free reads

	// mu is the control-plane lock: the (single-threaded) per-chip
	// Managers and broker, chip admission (makeRoom), placement,
	// migration, enroll/withdraw/goal sequencing, and the journal's
	// snapshot rotation. The beat and status paths never take it.
	mu sync.Mutex
	// mgrs is one water-filling Manager per chip (one entry for a
	// non-chip daemon; advisory apps always live in mgrs[0]). broker
	// splits the global core/power budget across them each tick by
	// aggregate corrected demand.
	mgrs   []*core.Manager
	broker *core.Broker
	// classes holds what admission derives once per (workload, mode)
	// instead of once per app (see appClass); written by classFor only,
	// under mu or during single-goroutine boot.
	classes map[classKey]*appClass

	tick tick // the tick goroutine's phase state (tick.go)

	loadBuf []angstrom.ChipLoad   // placement/migration ledger scratch (under mu)
	roomBuf []*angstrom.Partition // makeRoom's tenant scratch (under mu)
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
	if cfg.Shards < 1 || cfg.Shards > 1<<16 {
		return nil, fmt.Errorf("server: shard count %d outside [1, 65536]", cfg.Shards)
	}
	if cfg.TickWorkers < 1 {
		return nil, fmt.Errorf("server: %d tick workers", cfg.TickWorkers)
	}
	d := &Daemon{
		cfg:     cfg,
		dir:     newDirectory(cfg.Shards),
		classes: make(map[classKey]*appClass),
		started: time.Now(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
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
	d.tick.allocByID = make([][]core.Allocation, chips)
	d.tick.allocSeen = make([][]uint64, chips)
	if cfg.DataDir == "" {
		// A journal with no writer: it records nothing and has nothing to
		// restore.
		d.jd = &durability{}
		d.jd.restored.Store(true)
	} else if err := d.openJournal(); err != nil {
		return nil, err
	}
	return d, nil
}

// Monitors is a read-only view of the enrolled applications' heartbeat
// monitors: the observer side of the directory.
type Monitors struct{ dir *directory }

// Lookup returns the monitor of the application enrolled under name.
func (m Monitors) Lookup(name string) (*heartbeat.Monitor, bool) {
	a, ok := m.dir.get(name)
	if !ok {
		return nil, false
	}
	return a.mon, true
}

// Registry exposes the enrolled applications' monitors.
func (d *Daemon) Registry() Monitors { return Monitors{d.dir} }

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
