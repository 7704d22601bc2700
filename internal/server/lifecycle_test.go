package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"angstrom/internal/angstrom"
	"angstrom/internal/heartbeat"
	"angstrom/internal/journal"
)

// footprint is everything an admission writes to: the directory, the
// per-die tile ledgers, and the per-die managers.
type footprint struct {
	Apps, ChipApps int
	Parts          []int
	Used           []float64
	Managed        []int
}

func footprintOf(t *testing.T, d *Daemon) footprint {
	t.Helper()
	st := d.Stats()
	fp := footprint{Apps: st.Apps, ChipApps: st.ChipApps}
	for _, cs := range d.ChipStatuses() {
		fp.Parts = append(fp.Parts, cs.Partitions)
		fp.Used = append(fp.Used, cs.CoreEquivalents)
		if cs.LedgerFaults != 0 {
			t.Fatalf("die %d: %d ledger faults", cs.Chip, cs.LedgerFaults)
		}
	}
	for _, m := range d.mgrs {
		fp.Managed = append(fp.Managed, m.Apps())
	}
	return fp
}

// Admission is one path: whichever entry an application comes in by —
// a live Enroll, a snapshot restore, a migration re-binding it on
// another die — and whichever stage refuses it, the fleet is left
// exactly as it was. Each fault is planted so that it trips one stage of
// admit: the target die has no free tile (bind), the target manager
// already holds the name (joinManager), the directory does (publish). A
// planted entry is somebody else's: the rollback must leave it alone.
func TestAdmissionFailureLeavesNoTrace(t *testing.T) {
	const victim = "app" // the name being admitted; "r0" is the migrating resident
	foreign := func(d *Daemon) *heartbeat.Monitor {
		mon := heartbeat.New(d.clock)
		mon.SetPerformanceGoal(5, 0)
		return mon
	}
	faults := []struct {
		name  string
		plant func(t *testing.T, d *Daemon, name string)
	}{
		{"chip pool full", func(t *testing.T, d *Daemon, _ string) {
			one := 1
			if err := d.Enroll(EnrollRequest{Name: "filler", MinRate: 5, Chip: &one}); err != nil {
				t.Fatal(err)
			}
		}},
		{"manager refusal", func(t *testing.T, d *Daemon, name string) {
			if err := d.mgrs[1].AddApp(name, foreign(d), func(int) float64 { return 1 }); err != nil {
				t.Fatal(err)
			}
		}},
		{"directory duplicate", func(t *testing.T, d *Daemon, name string) {
			if !d.dir.insert(name, d.newApp(name, mustApp(t, d, "r0").spec, 8, 5, 0, 0)) {
				t.Fatal("could not plant a directory entry")
			}
		}},
	}
	one := 1
	entries := []struct {
		name   string
		target string // the name the fault is planted under
		admit  func(d *Daemon) error
	}{
		{"enroll", victim, func(d *Daemon) error {
			return d.Enroll(EnrollRequest{Name: victim, MinRate: 5, Priority: 2, Chip: &one})
		}},
		{"restore", victim, func(d *Daemon) error {
			return d.restoreApp(snapApp{Name: victim, Workload: "barnes", Window: 8, MinRate: 5, Priority: 2,
				Chip: &snapChip{Chip: 1, Cores: 1, CacheKB: 32, VF: 0, Share: 1}})
		}},
		{"migrate", "r0", func(d *Daemon) error {
			return d.applyMigration("r0", 1, d.clock.Now())
		}},
	}
	for _, entry := range entries {
		for _, fault := range faults {
			if entry.name == "migrate" && fault.name == "directory duplicate" {
				continue // a migrating app stays published under its own name
			}
			t.Run(entry.name+"/"+fault.name, func(t *testing.T) {
				// Two dies of two tiles, space-shared: r0 on die 0, r1 on
				// die 1, so one more tenant fills die 1.
				d, err := NewDaemon(Config{Cores: 8, Accel: 1, Period: time.Hour, Chip: &ChipConfig{Chips: 2, Tiles: 2}})
				if err != nil {
					t.Fatal(err)
				}
				for i, name := range []string{"r0", "r1"} {
					die := i
					if err := d.Enroll(EnrollRequest{Name: name, MinRate: 5, Priority: 3, Chip: &die}); err != nil {
						t.Fatal(err)
					}
				}
				fault.plant(t, d, entry.target)
				before := footprintOf(t, d)
				r0 := mustApp(t, d, "r0")
				r0Part := r0.partition()

				if err := entry.admit(d); err == nil {
					t.Fatal("admission succeeded against the planted fault")
				}
				if after := footprintOf(t, d); !reflect.DeepEqual(before, after) {
					t.Fatalf("failed admission left a trace:\nbefore %+v\nafter  %+v", before, after)
				}
				// The residents are where they were and still managed under
				// the handle they hold (a rolled-back migration re-joins its
				// source manager, possibly under a re-issued ID).
				if r0.chip != 0 {
					t.Fatalf("r0 left on die %d", r0.chip)
				}
				if id, ok := d.mgrs[0].AppID("r0"); !ok || id != r0.mgrID {
					t.Fatalf("r0 holds manager id %d, manager says %d (managed %v)", r0.mgrID, id, ok)
				}
				if prio, _ := d.mgrs[0].Priority("r0"); prio != 3 {
					t.Fatalf("r0 priority %g after the failed admission, want 3", prio)
				}
				if entry.name != "migrate" && r0.partition() != r0Part {
					t.Fatal("a failed admission of another app rebound r0")
				}
				if fault.name == "directory duplicate" {
					d.dir.remove(entry.target) // the planted entry has no runtime to tick
				}
				d.Tick()
				if st, err := d.Status("r0"); err != nil || st.Chip == nil || st.Chip.ActuationErr != "" {
					t.Fatalf("r0 not serving after the failed admission: %+v, %v", st, err)
				}
				footprintOf(t, d) // no ledger faults after a tick either
			})
		}
	}
}

// One lifecycle means one set of facts per app, however it was admitted:
// after churn (so manager IDs have been recycled), a snapshot, and a
// boot, every restored app has the live app's priority, die, goal and
// placement, and on both sides the three names for its manager handle
// agree. The IDs themselves may differ: restore re-issues them in
// enrollment order.
func TestSnapshotBootAgreesWithLiveAdmission(t *testing.T) {
	base := Config{
		Cores: 32, Accel: 0.5, Period: time.Hour, Oversubscribe: true, TickWorkers: 1,
		Chip: &ChipConfig{Chips: 2, Tiles: 8},
	}
	fs := journal.NewMemFS()
	cfg := base
	cfg.DataDir, cfg.FS, cfg.JournalFlush = "j", fs, -1
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	name := func(i int) string { return fmt.Sprintf("life-%02d", i) }
	for i := 0; i < 12; i++ {
		req := EnrollRequest{Name: name(i), Workload: []string{"barnes", "ocean", "water"}[i%3],
			Window: 16, MinRate: 4 + float64(i), Priority: float64(i % 3)}
		if i%4 == 3 {
			req.Mode = ModeAdvisory
		}
		if err := d.Enroll(req); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 4; tick++ {
		d.Tick()
	}
	for _, i := range []int{1, 6, 7} { // free manager IDs on both dies and the advisory pool
		if err := d.Withdraw(name(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.SetGoal(name(4), 9, 14); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	// ...and re-issue them to apps no tick has allocated to yet, so the
	// handle in their allocation view is the one admission stamped.
	for i := 12; i < 15; i++ {
		if err := d.Enroll(EnrollRequest{Name: name(i), Window: 16, MinRate: 6, Priority: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}

	cfg.FS = fs.Crash(0)
	r, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ri := r.RecoveryInfo(); ri.SnapshotSeq == 0 || ri.BadRecords != 0 {
		t.Fatalf("boot did not come from a clean snapshot: %+v", ri)
	}
	live := d.dir.snapshot(nil)
	if got := r.dir.len(); got != len(live) {
		t.Fatalf("restored %d apps, live has %d", got, len(live))
	}
	handles := func(side string, dm *Daemon, a *app) {
		t.Helper()
		id, ok := dm.mgrs[a.chip].AppID(a.name)
		a.mu.Lock()
		allocID := a.alloc.ID
		a.mu.Unlock()
		if !ok || id != a.mgrID || allocID != a.mgrID {
			t.Fatalf("%s %s: manager id %d (managed %v), app.mgrID %d, alloc.ID %d", side, a.name, id, ok, a.mgrID, allocID)
		}
	}
	for _, la := range live {
		ra := mustApp(t, r, la.name)
		handles("live", d, la)
		handles("restored", r, ra)
		lw, _ := d.mgrs[la.chip].Priority(la.name)
		rw, _ := r.mgrs[ra.chip].Priority(ra.name)
		if la.prio != ra.prio || lw != rw {
			t.Fatalf("%s: priority %g (weight %g) restored as %g (weight %g)", la.name, la.prio, lw, ra.prio, rw)
		}
		if la.chip != ra.chip {
			t.Fatalf("%s: die %d restored as %d", la.name, la.chip, ra.chip)
		}
		lg, rg := la.mon.Goals().Performance, ra.mon.Goals().Performance
		if *lg != *rg {
			t.Fatalf("%s: goal %+v restored as %+v", la.name, *lg, *rg)
		}
		lp, rp := la.partition(), ra.partition()
		if (lp == nil) != (rp == nil) {
			t.Fatalf("%s: chip-backed %v restored as %v", la.name, lp != nil, rp != nil)
		}
		if lp != nil && (lp.Config() != rp.Config() || lp.Share() != rp.Share()) {
			t.Fatalf("%s: placement %+v@%g restored as %+v@%g", la.name, lp.Config(), lp.Share(), rp.Config(), rp.Share())
		}
	}
	if lf, rf := footprintOf(t, d), footprintOf(t, r); !reflect.DeepEqual(lf, rf) {
		t.Fatalf("fleet footprint drifted across the boot:\nlive     %+v\nrestored %+v", lf, rf)
	}
}

// One ChipConfig may configure many daemons: the defaults one daemon
// derives from its Cores must not be written through the caller's
// pointer, where a second daemon would inherit them.
func TestSharedChipConfigIsNotFilledInPlace(t *testing.T) {
	shared := &ChipConfig{}
	want := *shared
	for _, cores := range []int{16, 64} {
		d, err := NewDaemon(Config{Cores: cores, Accel: 1, Period: time.Hour, Chip: shared})
		if err != nil {
			t.Fatal(err)
		}
		css := d.ChipStatuses()
		if len(css) != 1 || css[0].Tiles != cores {
			t.Fatalf("daemon with %d cores reports %+v; tile count defaults to the core pool", cores, css)
		}
		if top := d.cfg.Chip.ladders[angstrom.AxisCores][len(d.cfg.Chip.ladders[angstrom.AxisCores])-1]; top != cores {
			t.Fatalf("daemon with %d cores offers core options up to %d", cores, top)
		}
	}
	if !reflect.DeepEqual(*shared, want) {
		t.Fatalf("NewDaemon wrote through the caller's ChipConfig: %+v", *shared)
	}
}
