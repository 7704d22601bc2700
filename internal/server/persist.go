package server

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"angstrom/internal/angstrom"
	"angstrom/internal/heartbeat"
	"angstrom/internal/journal"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// This file is the daemon's durability layer: every control-plane
// mutation (enroll, withdraw, goal change, decision epoch) is written
// ahead to an internal/journal WAL, and the directory is periodically
// compacted into an atomic snapshot. Recovery is replay: the journal
// records each mutation with the daemon-clock time it executed at, and
// boot re-executes the tail through the same public entry points under
// a settable replay clock — so the restored directory, tile ledger, and
// contention state are rebuilt by the exact code paths that built them
// live, and byte-identity falls out of the daemon's tick determinism
// rather than from serializing controller internals.
//
// Two recovery contracts, by configuration:
//
//   - Journal-only (SnapshotEvery < 0): the full history replays from
//     genesis. The restored daemon is byte-identical to one that never
//     crashed — the recovery-determinism tests pin this.
//   - Snapshot + tail (the default): membership, goals, chip
//     configurations and time shares, clock, and counters restore
//     exactly (the ledger re-sums to the live value — zero faults);
//     controller learning (Kalman/RLS estimates, monitor windows) and
//     chip execution phase restore fresh and reconverge within a few
//     ticks, the same way they converged at first enrollment.
//
// The journal records a linearization of concurrent mutations; replay
// applies them in that order. Beats are data plane: they are appended
// asynchronously (group commit makes them durable within JournalFlush)
// and still accepted in degraded mode, when control mutations are
// refused with ErrDegraded.

// ErrDegraded marks a daemon whose journal has failed: serving and
// observation continue, but mutations are refused (HTTP 503) so no
// state change can outlive what the journal can no longer record.
var ErrDegraded = errors.New("journal degraded")

// durability is the daemon's journal state. Without a data directory it
// has no writer: it journals nothing, takes no snapshots and restores
// nothing. With one, w is nil only while boot replays the journal.
type durability struct {
	fs        journal.FS
	dir       string
	w         *journal.Writer
	snapEvery time.Duration // <= 0: periodic snapshots disabled

	degraded    atomic.Bool
	degradedErr atomic.Value // string
	restored    atomic.Bool
	snapSeq     atomic.Uint64

	// scratch recycles journalAppend's encode buffers (*[]byte), so a
	// durable beat allocates nothing; dropped counts the records
	// journalAppend could not hand to the writer.
	scratch sync.Pool
	dropped heartbeat.Counter

	// lastSnap is touched only by the tick goroutine (maybeSnapshot)
	// and Close, which runs after the loop has stopped.
	lastSnap time.Time

	// recovery is RecoveryInfo's boot summary (SnapshotSeq aside).
	recovery RecoveryInfo
}

func (jd *durability) reason() string {
	if s, ok := jd.degradedErr.Load().(string); ok {
		return s
	}
	return ""
}

// JournalStats is the durability slice of /v1/stats.
type JournalStats struct {
	// Records is the sequence number of the last appended record.
	Records uint64 `json:"records"`
	// SnapshotSeq is the newest durable snapshot's compaction point (0
	// before the first snapshot).
	SnapshotSeq uint64 `json:"snapshot_seq,omitempty"`
	// Degraded reports read-only journal-degraded mode; Error is the
	// failure that latched it.
	Degraded bool   `json:"degraded,omitempty"`
	Error    string `json:"error,omitempty"`
	// DroppedRecords counts asynchronously appended records (beats, tick
	// epochs, evictions) the journal did not take — the writer refused
	// them or the daemon was already degraded — and a restart will
	// therefore not replay.
	DroppedRecords uint64 `json:"dropped_records,omitempty"`
}

// RecoveryInfo summarizes what boot restored from the data directory.
type RecoveryInfo struct {
	Apps            int      // applications restored
	SnapshotSeq     uint64   // compaction point restored from (0 = genesis)
	ReplayedRecords int      // journal-tail records re-executed
	BadRecords      int      // checksum-valid records that failed to decode
	TruncatedBytes  int      // torn-tail bytes repaired away
	DroppedSegments []string // segments beyond a mid-chain corruption
}

// RecoveryInfo reports the last boot's restore summary (zero without a
// data directory).
func (d *Daemon) RecoveryInfo() RecoveryInfo {
	ri := d.jd.recovery
	ri.SnapshotSeq = d.jd.snapSeq.Load()
	return ri
}

// Ready reports whether the daemon can accept mutations: true without a
// data directory, and with one, once the journal is restored and
// healthy. /readyz gates on it.
func (d *Daemon) Ready() (bool, string) {
	jd := d.jd
	if !jd.restored.Load() {
		return false, "restoring from journal"
	}
	if jd.degraded.Load() {
		return false, "journal degraded: " + jd.reason()
	}
	return true, ""
}

// Degraded reports read-only journal-degraded mode.
//
//lint:allow unusedexport the degraded-mode tests read the latch through it
func (d *Daemon) Degraded() bool { return d.jd.degraded.Load() }

// degrade latches the daemon into journal-degraded mode (first failure
// wins). Reached from failed commits and from the journal's background
// flusher via Options.OnError.
func (d *Daemon) degrade(err error) {
	if jd := d.jd; jd.degraded.CompareAndSwap(false, true) {
		jd.degradedErr.Store(err.Error())
	}
}

// journalCommit writes rec ahead of the mutation it describes and
// blocks until it is durable (group commit amortizes concurrent
// callers). The caller must not have mutated state yet: on failure the
// daemon degrades and the mutation is refused, so the journal never
// trails the directory.
func (d *Daemon) journalCommit(rec record) error {
	jd := d.jd
	if jd.w == nil {
		return nil
	}
	if jd.degraded.Load() {
		return fmt.Errorf("server: %w: %s", ErrDegraded, jd.reason())
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: encode journal record: %w", err)
	}
	if _, err := jd.w.Commit(payload); err != nil {
		d.degrade(err)
		return fmt.Errorf("server: %w: %v", ErrDegraded, err)
	}
	return nil
}

// journalAppend buffers rec without waiting for durability — the
// data-plane path (beats, tick records) and evictions: no fsync, no
// I/O, durable within JournalFlush. Data-plane records take the binary
// layout through a recycled buffer (no allocation); anything else is a
// control record and stays JSON. Failures latch through the writer's
// OnError; a record the writer refuses, or that arrives in degraded
// mode, is dropped and counted, and serving continues.
func (d *Daemon) journalAppend(rec record) {
	jd := d.jd
	if jd.w == nil {
		return
	}
	if jd.degraded.Load() {
		jd.dropped.Add(1)
		return
	}
	var err error
	switch rec.Op {
	case opBeat, opBeatTS, opTick:
		buf := jd.scratch.Get().(*[]byte)
		*buf = appendDataRecord((*buf)[:0], &rec)
		_, err = jd.w.Append(*buf)
		jd.scratch.Put(buf)
	default:
		var payload []byte
		if payload, err = json.Marshal(rec); err == nil {
			_, err = jd.w.Append(payload)
		}
	}
	if err != nil {
		jd.dropped.Add(1)
	}
}

// openJournal recovers cfg.DataDir and replays it into the daemon, then
// opens the writer the serving phase appends to. Until then jd.w is nil,
// so the replayed mutations journal nothing. Called once from NewDaemon,
// before the daemon is visible to any other goroutine.
func (d *Daemon) openJournal() error {
	jfs := d.cfg.FS
	if jfs == nil {
		jfs = journal.OS()
	}
	st, err := journal.Recover(jfs, d.cfg.DataDir)
	if err != nil {
		return err
	}
	snapEvery := cmp.Or(d.cfg.SnapshotEvery, 30*time.Second)
	jd := &durability{fs: jfs, dir: d.cfg.DataDir, snapEvery: snapEvery, lastSnap: time.Now()}
	jd.scratch.New = func() any { return new([]byte) }
	jd.snapSeq.Store(st.SnapshotSeq)
	jd.recovery = RecoveryInfo{TruncatedBytes: st.TruncatedBytes, DroppedSegments: st.DroppedSegments}
	d.jd = jd
	if err = d.restore(st); err != nil {
		return err
	}
	// Negative disables the flusher: tests flush explicitly.
	flush := max(cmp.Or(d.cfg.JournalFlush, 100*time.Millisecond), 0)
	jd.w, err = journal.NewWriter(jfs, d.cfg.DataDir, st.NextSeq, journal.Options{
		FlushEvery: flush,
		OnError:    d.degrade,
	})
	if err != nil {
		return err
	}
	jd.restored.Store(true)
	return nil
}

// restore rebuilds the daemon from a recovered journal state: install
// the snapshot image (if any), then re-execute the record tail through
// the public mutation paths under a settable replay clock. When replay
// finishes, the serving clock is swapped in at the recovered timeline's
// frontier so time continues instead of rewinding.
//
// restore is the root of the replay scope: everything it reaches must
// be deterministic and every mutation it applies is covered by the
// recovered journal, so it is both a deterministic scope and the
// journaling writer the mutators below it answer to.
//
//angstrom:deterministic
//angstrom:journaled writer
func (d *Daemon) restore(st *journal.State) error {
	jd := d.jd
	if st.Snapshot == nil && len(st.Records) == 0 {
		return nil // genesis: nothing to replay, keep the boot clock
	}
	clk := NewAtomicClock(0)
	d.swClock.swap(clk)

	var last sim.Time
	if st.Snapshot != nil {
		var img snapImage
		if err := json.Unmarshal(st.Snapshot, &img); err != nil {
			return fmt.Errorf("server: decode snapshot %d: %w", st.SnapshotSeq, err)
		}
		clk.Set(img.Clock)
		last = img.Clock
		d.ticks.Store(img.Ticks)
		d.beats.Store(img.Beats)
		d.decisions.Store(img.Decisions)
		d.evicted.Store(img.Evicted)
		d.migrations.Store(img.Migrations)
		d.lastMigrate = img.LastMigrate
		d.powerOvercommit.Store(math.Float64bits(img.OvercommitW))
		// Re-derate before re-binding: restored partitions must see the
		// same effective bandwidth their contention was priced at.
		for i, s := range img.ChipScales {
			if d.fleet != nil && i < d.fleet.Chips() && s > 0 {
				if err := d.fleet.Chip(i).SetMemBandwidthScale(s); err != nil {
					return fmt.Errorf("server: restore chip %d scale: %w", i, err)
				}
			}
		}
		copy(d.loadAvgMem, img.LoadAvgMem)
		copy(d.loadAvgNoC, img.LoadAvgNoC)
		for _, sa := range img.Apps {
			if err := d.restoreApp(sa); err != nil {
				return fmt.Errorf("server: restore %q: %w", sa.Name, err)
			}
		}
	}
	var dec recordDecoder
	for _, payload := range st.Records {
		var rec record
		if err := dec.decode(payload, &rec); err != nil {
			jd.recovery.BadRecords++
			continue
		}
		if rec.T > last {
			last = rec.T
		}
		clk.Set(rec.T)
		d.replayRecord(rec)
	}
	jd.recovery.Apps = d.dir.len()
	jd.recovery.ReplayedRecords = len(st.Records)

	// Hand the clock over to the serving phase at the replay frontier.
	if d.cfg.Accel > 0 {
		d.simClock = NewAtomicClock(last)
		d.swClock.swap(d.simClock)
	} else {
		d.swClock.swap(NewWallClockAt(last))
	}
	return nil
}

// replayRecord re-executes one journaled mutation. Errors are
// deliberately discarded: a mutation that failed live (duplicate
// enroll, exhausted pool) was journaled ahead of its apply and fails
// identically here, which is exactly the history being reproduced.
//
//angstrom:deterministic
//angstrom:journaled writer
func (d *Daemon) replayRecord(rec record) {
	switch rec.Op {
	case opEnroll:
		if rec.Enroll != nil {
			_ = d.Enroll(*rec.Enroll)
		}
	case opWithdraw:
		_ = d.withdraw(rec.Name, rec.Evict, nil)
	case opGoal:
		_ = d.SetGoal(rec.Name, rec.MinRate, rec.MaxRate)
	case opBeat:
		_ = d.Beat(rec.Name, rec.Count, rec.Distortion)
	case opBeatTS:
		_ = d.BeatTimestamps(rec.Name, rec.Timestamps, rec.Distortion)
	case opTick:
		d.tickAt(rec.T)
	case opMigrate:
		_ = d.applyMigration(rec.Name, rec.Chip, rec.T)
	case opChipScale:
		_ = d.applyChipScale(rec.Chip, rec.Scale)
	default:
		d.jd.recovery.BadRecords++
	}
}

// restoreApp rebuilds one application from a snapshot entry: same
// monitor, same goal, and — for chip apps — the partition re-acquired
// at its recorded configuration and time share, so the ledger re-sums
// to its pre-crash value. Controller learning restores fresh. Runs
// single-goroutine during NewDaemon.
//
//angstrom:deterministic
//angstrom:journaled writer
func (d *Daemon) restoreApp(sa snapApp) error {
	spec, err := workload.ByName(sa.Workload)
	if err != nil {
		return err
	}
	if err := validWindow(sa.Window); err != nil {
		return err
	}
	if err := validGoal(sa.MinRate, sa.MaxRate); err != nil {
		return err
	}
	if err := validPriority(sa.Priority); err != nil {
		return err
	}
	a := d.newApp(sa.Name, spec, sa.Window, sa.MinRate, sa.MaxRate, sa.Priority)
	a.enrolledAt, a.migratedAt = sa.EnrolledAt, sa.MigratedAt
	if sa.Units > 1 {
		a.grant.Units = sa.Units
		a.alloc.Units = sa.Units
	}
	a.alloc.Demand, a.alloc.GoalMet = sa.Demand, sa.GoalFit
	if sa.AllocShare > 0 {
		a.alloc.Share = sa.AllocShare
	}
	var at *placement
	if sa.Chip != nil {
		if d.fleet == nil {
			return fmt.Errorf("server: snapshot has chip app %q but the daemon runs without -chip", sa.Name)
		}
		if sa.Chip.Chip < 0 || sa.Chip.Chip >= d.fleet.Chips() {
			return fmt.Errorf("server: snapshot places %q on chip %d of %d", sa.Name, sa.Chip.Chip, d.fleet.Chips())
		}
		a.chip = sa.Chip.Chip
		at = &placement{
			cfg:   angstrom.Config{Cores: sa.Chip.Cores, CacheKB: sa.Chip.CacheKB, VF: sa.Chip.VF},
			share: sa.Chip.Share,
		}
	}
	return d.admit(a, at, d.clock.Now())
}

// Snapshot rotates the journal and atomically installs a snapshot at
// the rotation boundary, then prunes the segments and snapshots it
// supersedes. The rotation and the image capture happen under d.mu, so
// no mutation can land in both the image and the replay tail.
func (d *Daemon) Snapshot() error {
	jd := d.jd
	if jd.w == nil {
		return errors.New("server: no data directory configured")
	}
	if jd.degraded.Load() {
		return fmt.Errorf("server: %w: %s", ErrDegraded, jd.reason())
	}
	d.mu.Lock()
	seq, err := jd.w.Rotate()
	if err != nil {
		d.mu.Unlock()
		d.degrade(err)
		return fmt.Errorf("server: %w: %v", ErrDegraded, err)
	}
	img := d.buildImage(seq)
	d.mu.Unlock()
	payload, err := json.Marshal(img)
	if err != nil {
		return fmt.Errorf("server: encode snapshot: %w", err)
	}
	if err := journal.WriteSnapshot(jd.fs, jd.dir, seq, payload); err != nil {
		d.degrade(err)
		return fmt.Errorf("server: %w: %v", ErrDegraded, err)
	}
	jd.snapSeq.Store(seq)
	journal.Prune(jd.fs, jd.dir, seq)
	return nil
}

// maybeSnapshot takes a periodic snapshot when one is due. Called from
// the tick goroutine only.
func (d *Daemon) maybeSnapshot() {
	jd := d.jd
	if jd.snapEvery <= 0 || jd.degraded.Load() {
		return
	}
	if time.Since(jd.lastSnap) < jd.snapEvery {
		return
	}
	if err := d.Snapshot(); err == nil {
		jd.lastSnap = time.Now()
	}
}

// Close drains the daemon for a clean exit: stop the ODA loop (the
// in-flight tick finishes), take a final snapshot (unless snapshots are
// disabled or the journal already failed), and flush and close the
// journal. The SIGTERM path runs this after the HTTP server has
// drained. Safe without a data directory (plain Stop).
func (d *Daemon) Close() error {
	d.Stop()
	jd := d.jd
	var first error
	if jd.snapEvery > 0 && !jd.degraded.Load() {
		if err := d.Snapshot(); err != nil {
			first = err
		}
	}
	if jd.w != nil {
		if err := jd.w.Close(); err != nil && first == nil && !jd.degraded.Load() {
			first = err
		}
	}
	return first
}
