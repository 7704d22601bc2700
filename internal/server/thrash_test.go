package server

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"angstrom/internal/journal"
)

// Satellite regression: goal thrash at fleet scale. 1k advisory apps on
// a journaled sharded daemon while flipper goroutines hammer SetGoal
// and beaters keep the monitors hot, concurrent with manual ticks —
// all under -race via make test. The gates:
//
//  1. zero ledger faults (the chaos never corrupts accounting),
//  2. the journal linearizes the storm: a daemon restored from the
//     post-storm image agrees with the live daemon on membership and
//     final goals,
//  3. recovery is deterministic: two independent restores from the same
//     image produce byte-identical transcripts.
//
// Live-vs-restored transcript identity is deliberately NOT asserted:
// with SetGoal racing Tick, the journal's linearization and the actual
// interleaving may legitimately order a flip on opposite sides of a
// decision, so controller state diverges. Final goals and determinism
// of the replayed history are the invariants.
func TestGoalThrashRaceAtScale(t *testing.T) {
	const (
		apps     = 1000 // advisory fleet
		chipApps = 16   // chip-backed apps exercising the tile ledger
		flippers = 8
		flips    = 150
		beaters  = 8
		ticks    = 20
	)
	base := Config{
		Cores: 64, Period: time.Hour, Accel: 0.5,
		Oversubscribe: true, TickWorkers: 4,
		Chip: &ChipConfig{Tiles: 16},
	}
	fs := journal.NewMemFS()
	d, err := NewDaemon(journalOnly(base, fs))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for i := 0; i < apps; i++ {
		if err := d.Enroll(EnrollRequest{
			Name: fmt.Sprintf("thrash-%04d", i), Mode: ModeAdvisory,
			Window: 16, MinRate: 10, MaxRate: 40,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < chipApps; i++ {
		if err := d.Enroll(EnrollRequest{
			Name:     fmt.Sprintf("chip-%02d", i),
			Workload: []string{"barnes", "ocean", "water"}[i%3],
			Window:   16, MinRate: 2 + float64(i%4),
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.Tick()

	var wg sync.WaitGroup
	for w := 0; w < flippers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each flipper owns the stripe i ≡ w (mod flippers), so the
			// final goal of every app is written by exactly one
			// goroutine (apps is a multiple of flippers).
			for f := 0; f < flips; f++ {
				i := (f*flippers + w) % apps
				min, max := 10.0, 40.0
				if f%2 == 0 {
					min, max = 20, 80
				}
				if err := d.SetGoal(fmt.Sprintf("thrash-%04d", i), min, max); err != nil {
					t.Error(err)
					return
				}
				// Thrash the chip-backed stripe too: goal flips there
				// re-plan tile placements against the ledger.
				if f%4 == 0 {
					c := (f/4*flippers + w) % chipApps
					if err := d.SetGoal(fmt.Sprintf("chip-%02d", c), 2+float64(f%3), 0); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < beaters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 200; b++ {
				name := fmt.Sprintf("thrash-%04d", (w*200+b)%apps)
				if err := d.Beat(name, 5, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for k := 0; k < ticks; k++ {
		d.Tick()
		runtime.Gosched()
	}
	<-done
	d.Tick() // one quiet tick past the storm

	if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after goal thrash", f)
	}
	if err := d.jd.w.Flush(); err != nil {
		t.Fatal(err)
	}
	img := fs.Crash(0)

	live := d.List()
	if len(live) != apps+chipApps {
		t.Fatalf("live fleet %d != %d", len(live), apps+chipApps)
	}

	restore := func() *Daemon {
		t.Helper()
		cfg := journalOnly(base, img.Crash(0))
		r, err := NewDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := restore()
	r2 := restore()
	defer r1.Close()
	defer r2.Close()

	if got := r1.RecoveryInfo(); got.Apps != apps+chipApps || got.BadRecords != 0 {
		t.Fatalf("recovery info %+v, want %d apps and clean records", got, apps+chipApps)
	}

	// Gate 2: the restored daemon agrees with the live one on
	// membership and final goals.
	restored := r1.List()
	if len(restored) != len(live) {
		t.Fatalf("restored fleet %d != live %d", len(restored), len(live))
	}
	for i := range live {
		if restored[i].Name != live[i].Name || restored[i].Goal != live[i].Goal {
			t.Fatalf("app %d diverges after replay: live %s %+v, restored %s %+v",
				i, live[i].Name, live[i].Goal, restored[i].Name, restored[i].Goal)
		}
	}

	// Gate 3: double restore is byte-identical, ticking included.
	var first, second [][]AppStatus
	for k := 0; k < 3; k++ {
		r1.Tick()
		r2.Tick()
		first = append(first, r1.List())
		second = append(second, r2.List())
	}
	diffTranscripts(t, "goal-thrash double restore", first, second)
	if f := r1.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after restore", f)
	}
}
