package scenario

import (
	"errors"
	"fmt"
	"time"

	"angstrom/internal/angstrom"
	"angstrom/internal/journal"
	"angstrom/internal/server"
)

// DaemonHost drives a real server.Daemon. The daemon runs on its
// accelerated simulation clock (Accel = the scenario's tick seconds, so
// each manual Tick advances sim time by exactly one scenario tick) with
// the periodic ticker effectively disabled by a huge Period. Scenarios
// containing crash_restart events get a journal-only persistence stack
// on an in-memory filesystem: snapshots are disabled, so recovery is a
// full journal replay through the live mutation paths and the restored
// daemon is byte-identical to one that never crashed.
type DaemonHost struct {
	cfg server.Config
	fs  *journal.MemFS
	d   *server.Daemon
}

// NewDaemonHost builds the daemon layout (shards, tick workers) the
// scenario should run against.
func NewDaemonHost(spec Spec, opts Options) (*DaemonHost, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h := &DaemonHost{
		cfg: server.Config{
			Cores:         spec.Cores,
			Period:        time.Hour,
			Accel:         spec.TickSeconds,
			Oversubscribe: spec.Oversubscribe,
			Shards:        opts.Shards,
			TickWorkers:   opts.TickWorkers,
		},
	}
	if spec.Chips > 0 {
		h.cfg.Chip = &server.ChipConfig{
			Chips:           spec.Chips,
			Tiles:           spec.ChipTiles,
			MigrateSlowdown: spec.MigrateSlowdown,
		}
		if spec.ChipMemBWGBps > 0 {
			p := angstrom.DefaultParams()
			p.MemBandwidthBps = spec.ChipMemBWGBps * 1e9
			h.cfg.Chip.Params = &p
		}
	}
	if spec.needsJournal() {
		h.fs = journal.NewMemFS()
		h.cfg.DataDir = "scenario"
		h.cfg.FS = h.fs
		h.cfg.SnapshotEvery = -1
		h.cfg.JournalFlush = -1
	}
	d, err := server.NewDaemon(h.cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: daemon: %w", err)
	}
	h.d = d
	return h, nil
}

func (h *DaemonHost) Enroll(req server.EnrollRequest) error { return h.d.Enroll(req) }
func (h *DaemonHost) Withdraw(name string) error            { return h.d.Withdraw(name) }
func (h *DaemonHost) SetGoal(name string, minRate, maxRate float64) error {
	return h.d.SetGoal(name, minRate, maxRate)
}
func (h *DaemonHost) Beat(name string, count int, distortion float64) error {
	return h.d.Beat(name, count, distortion)
}
func (h *DaemonHost) Tick()                       { h.d.Tick() }
func (h *DaemonHost) List() []server.AppStatus    { return h.d.List() }
func (h *DaemonHost) Stats() server.StatsResponse { return h.d.Stats() }
func (h *DaemonHost) SaturateChip(chip int, factor float64) error {
	return h.d.SaturateChip(chip, factor)
}

// CrashRestart closes the current daemon — with snapshots disabled that
// is a journal flush, not a checkpoint — and boots a successor from the
// same in-memory filesystem, forcing a full journal replay.
func (h *DaemonHost) CrashRestart() (int, error) {
	if h.fs == nil {
		return 0, errors.New("scenario: crash_restart requires a journaled host (spec has no crash_restart event)")
	}
	if err := h.d.Close(); err != nil {
		return 0, fmt.Errorf("scenario: crash: %w", err)
	}
	d, err := server.NewDaemon(h.cfg)
	if err != nil {
		return 0, fmt.Errorf("scenario: recovery: %w", err)
	}
	h.d = d
	return d.RecoveryInfo().Apps, nil
}

func (h *DaemonHost) Close() error { return h.d.Close() }
