package server

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"angstrom/internal/journal"
)

// The class-table golden pins what a mixed fleet looks like from outside
// when every admission builds its own action space from scratch.
// testdata/class_tables.golden was written by running this file with
// -update in a checkout of the commit *before* admission learned to
// tabulate a workload's declared model once per class and share it
// between the class's apps (with classTableObserver stubbed out: that commit has no class
// tables to observe). If sharing the tables coupled two apps — one app's
// knob position, correction or power cap showing through another's, a
// re-enrollment under a different workload inheriting the old class, a
// migrated or cold-booted app bound to the wrong tables — the fleet's
// reported state diverges here. It was regenerated once since, with
// -update, when the tick's state-writing passes came to walk the fleet
// in enrollment order; that moved the digests from the first tick after
// the cold boot on, and nothing before it. Regenerate only for a change
// that means to move the fleet's behaviour, and say so.

// classFleetScript drives a two-die fleet of three workloads, each both
// chip-backed and advisory, with a different goal per app, through goal
// changes, withdrawals re-enrolled under the same name but the next
// workload, a forced migration, and a snapshot followed a few ticks later
// by a crash and cold boot, with status readers running throughout. It
// writes one line per tick with digests of everything the daemon reports
// about the fleet. observe is shown the daemon once the first fleet is
// admitted, just before the crash, and (the booted one) at the end.
func classFleetScript(t *testing.T, out *strings.Builder, observe func(stage string, d *Daemon)) {
	t.Helper()
	const apps, ticks = 36, 200
	fs := journal.NewMemFS()
	cfg := Config{
		Cores: 64, Accel: 0.1, Period: time.Hour, Oversubscribe: true, Shards: 8, TickWorkers: 1,
		Chip:    &ChipConfig{Chips: 2, Tiles: 32},
		DataDir: "j", FS: fs, JournalFlush: -1,
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(16))
	workloads := []string{"barnes", "ocean", "water"}
	name := func(i int) string { return fmt.Sprintf("cls-%02d", i) }
	advisoryApp := func(i int) bool { return i%2 == 1 }
	wl := make([]int, apps) // each app's current workload
	request := func(i int) EnrollRequest {
		lo := 5 + 3*float64(i) + float64(rng.Intn(4))
		req := EnrollRequest{Name: name(i), Workload: workloads[wl[i]], Window: 32, MinRate: lo, MaxRate: lo * 1.25}
		if advisoryApp(i) {
			req.Mode = ModeAdvisory
		}
		return req
	}
	for i := 0; i < apps; i++ {
		wl[i] = (i / 2) % len(workloads)
		if err := d.Enroll(request(i)); err != nil {
			t.Fatal(err)
		}
	}
	observe("admitted", d)

	// Status readers race every tick, re-enrollment, migration and the
	// boot: they render decisions against the shared tables.
	var serving atomic.Pointer[Daemon]
	serving.Store(d)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				dm := serving.Load()
				_, _ = dm.Status(name(i % apps)) // not-enrolled mid re-enrollment is fine
				if i%64 == r {
					dm.List()
				}
			}
		}(r)
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	for tick := 0; tick < ticks; tick++ {
		for i := 0; i < apps; i++ {
			if advisoryApp(i) {
				if err := d.Beat(name(i), 1+(i+tick)%5, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if tick%5 == 0 {
			lo := 4 + float64(rng.Intn(120))
			if err := d.SetGoal(name(rng.Intn(apps)), lo, lo*1.25); err != nil {
				t.Fatal(err)
			}
		}
		if tick%11 == 4 {
			i := rng.Intn(apps)
			if err := d.Withdraw(name(i)); err != nil {
				t.Fatal(err)
			}
			wl[i] = (wl[i] + 1) % len(workloads)
			if err := d.Enroll(request(i)); err != nil {
				t.Fatal(err)
			}
		}
		switch tick {
		case ticks / 2:
			moved := false
			for _, st := range d.List() {
				if st.Chip != nil && st.Chip.Chip == 0 && d.applyMigration(st.Name, 1, d.clock.Now()) == nil {
					fmt.Fprintf(out, "forced migration of %s to die 1\n", st.Name)
					moved = true
					break
				}
			}
			if !moved {
				t.Fatal("die 1 had room for nobody")
			}
		case 6 * ticks / 10:
			if err := d.Snapshot(); err != nil {
				t.Fatal(err)
			}
		case 6*ticks/10 + 3:
			observe("before crash", d)
			cfg.FS = fs.Crash(0)
			fs = cfg.FS.(*journal.MemFS)
			if d, err = NewDaemon(cfg); err != nil {
				t.Fatal(err)
			}
			if ri := d.RecoveryInfo(); ri.SnapshotSeq == 0 || ri.BadRecords != 0 {
				t.Fatalf("boot did not come from a clean snapshot: %+v", ri)
			}
			serving.Store(d)
			fmt.Fprintf(out, "cold boot: apps %s chips %s\n", digest(d.List()), digest(d.ChipStatuses()))
		}
		d.Tick()
		fmt.Fprintf(out, "tick %03d apps %s chips %s migrations %d\n", tick, digest(d.List()), digest(d.ChipStatuses()), d.Migrations())
	}
	if d.Migrations() == 0 {
		t.Fatal("the forced migration did not register")
	}
	observe("end", d)
}

func TestClassTablesGolden(t *testing.T) {
	var out strings.Builder
	classFleetScript(t, &out, classTableObserver(t))

	path := filepath.Join("testdata", "class_tables.golden")
	got := out.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("class_tables.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("class_tables.golden: %d lines, golden has %d", len(gl), len(wl))
}
