package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The sharded-tick invariant harness: the daemon's determinism contract
// (the same discipline Sweep documents) says the fan-out across shards
// and tick workers is pure mechanism — for an advisory fleet the full
// serving transcript (allocations, decisions, observations) must be
// byte-identical for ANY (Shards, TickWorkers) choice, and a chip
// daemon must replay byte-identically for a fixed configuration. These
// tests drive deterministic fleet scripts and compare entire List()
// transcripts with reflect.DeepEqual.

// fleetScript drives one daemon through a fixed, fully deterministic
// enroll/beat/goal-churn/withdraw sequence and records every tick's
// full application listing.
func fleetScript(t *testing.T, cfg Config, apps, ticks int) [][]AppStatus {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	workloads := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	name := func(i int) string { return fmt.Sprintf("app-%04d", i) }
	for i := 0; i < apps; i++ {
		goal := 10 + rng.Float64()*90
		if err := d.Enroll(EnrollRequest{
			Name:     name(i),
			Workload: workloads[i%len(workloads)],
			Window:   64,
			MinRate:  goal,
			MaxRate:  goal * 1.2,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var transcript [][]AppStatus
	for tick := 0; tick < ticks; tick++ {
		switch tick {
		case ticks / 3:
			// Churn: a slice of the fleet leaves...
			for i := 0; i < apps/5; i++ {
				if err := d.Withdraw(name(i * 3)); err != nil {
					t.Fatal(err)
				}
			}
		case ticks / 2:
			// ...some return under the same names, some goals move.
			for i := 0; i < apps/10; i++ {
				if err := d.Enroll(EnrollRequest{Name: name(i * 3), Workload: workloads[i%len(workloads)],
					Window: 64, MinRate: 25, MaxRate: 40}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < apps; i += 7 {
				if _, ok := d.lookup(name(i)); ok {
					if err := d.SetGoal(name(i), 15+float64(i%30), 0); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for i := 0; i < apps; i++ {
			if _, ok := d.lookup(name(i)); !ok {
				continue
			}
			// Deterministic, tick-varying beat counts; a third of the
			// fleet idles on any given tick to exercise quiescence skips.
			if (tick+i)%3 == 0 {
				continue
			}
			n := 1 + (tick*7+i*13)%25
			if err := d.Beat(name(i), n, 0); err != nil {
				t.Fatal(err)
			}
		}
		d.Tick()
		list := d.List()
		// Pool invariants on every tick.
		sumUnits := 0
		sumEquiv := 0.0
		for _, st := range list {
			if st.Cores.Units < 1 {
				t.Fatalf("tick %d: %s floored below 1 unit", tick, st.Name)
			}
			sumUnits += st.Cores.Units
			share := st.Cores.Share
			if share == 0 {
				share = 1
			}
			sumEquiv += float64(st.Cores.Units) * share
		}
		if len(list) <= cfg.Cores && sumUnits > cfg.Cores {
			t.Fatalf("tick %d: %d units allocated on %d cores", tick, sumUnits, cfg.Cores)
		}
		if sumEquiv > float64(cfg.Cores)+1e-6 {
			t.Fatalf("tick %d: %g core-equivalents on %d cores", tick, sumEquiv, cfg.Cores)
		}
		transcript = append(transcript, list)
	}
	return transcript
}

// diffTranscripts pinpoints the first divergence for a readable failure.
func diffTranscripts(t *testing.T, label string, want, got [][]AppStatus) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	for tick := range want {
		if tick >= len(got) || !reflect.DeepEqual(want[tick], got[tick]) {
			for i := range want[tick] {
				if i >= len(got[tick]) || !reflect.DeepEqual(want[tick][i], got[tick][i]) {
					t.Fatalf("%s: transcript diverges at tick %d, app %d:\n  serial:  %+v\n  sharded: %+v",
						label, tick, i, want[tick][i], got[tick][i])
				}
			}
			t.Fatalf("%s: transcript diverges at tick %d (length %d vs %d)",
				label, tick, len(want[tick]), len(got[tick]))
		}
	}
	t.Fatalf("%s: transcripts diverge (length %d vs %d)", label, len(want), len(got))
}

// The tentpole invariant: for an advisory fleet, one shard + one worker
// (the serial daemon) and any sharded/parallel layout produce
// byte-identical serving transcripts — allocations, decisions,
// observations, everything List reports.
func TestShardedTickMatchesSerial(t *testing.T) {
	base := Config{Cores: 48, Accel: 0.5, Period: time.Hour, Oversubscribe: true}
	const apps, ticks = 90, 36 // apps > cores: exercises partitionShared too

	serialCfg := base
	serialCfg.Shards, serialCfg.TickWorkers = 1, 1
	serial := fleetScript(t, serialCfg, apps, ticks)

	layouts := []struct{ shards, workers int }{
		{8, 4},
		{32, 3},
		{4, 8},
	}
	for _, l := range layouts {
		cfg := base
		cfg.Shards, cfg.TickWorkers = l.shards, l.workers
		got := fleetScript(t, cfg, apps, ticks)
		diffTranscripts(t, fmt.Sprintf("shards=%d workers=%d", l.shards, l.workers), serial, got)
	}
}

// The chip passes that touch the shared tile ledgers walk the fleet in
// name order whatever the shard layout, and the tick re-sorts only when
// the membership it gathered differs from last tick's. So on the tick
// after every kind of membership change — and on the quiet ticks between,
// which reuse the standing order — chipApps must be exactly the enrolled
// chip fleet, name-sorted, each entry the directory's *current* app (a
// same-name re-enrollment is a different app than the one it replaced).
func TestChipAppsSortedAfterMembershipChanges(t *testing.T) {
	for _, shards := range []int{1, 8} {
		d, err := NewDaemon(Config{
			Cores: 32, Accel: 0.1, Period: time.Hour, Oversubscribe: true, Shards: shards, TickWorkers: 1,
			Chip: &ChipConfig{Chips: 2, Tiles: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		enroll := func(name string) {
			t.Helper()
			if err := d.Enroll(EnrollRequest{Name: name, Workload: "water", Window: 16, MinRate: 5}); err != nil {
				t.Fatal(err)
			}
		}
		tickAndCheck := func(step string) {
			t.Helper()
			d.Tick()
			list := d.List() // name-sorted by contract
			if len(d.chipApps) != len(list) {
				t.Fatalf("shards=%d, tick after %s: chipApps holds %d apps, %d enrolled", shards, step, len(d.chipApps), len(list))
			}
			for i, st := range list {
				if a := d.chipApps[i]; a.name != st.Name || a != mustApp(t, d, st.Name) {
					t.Fatalf("shards=%d, tick after %s: chipApps[%d] is %q (current app: %v), want %q",
						shards, step, i, a.name, a == mustApp(t, d, a.name), st.Name)
				}
			}
		}
		for i := 0; i < 40; i++ {
			enroll(fmt.Sprintf("m-%02d", (i*17)%40)) // enrollment order is not name order
		}
		tickAndCheck("the first enrollments")
		tickAndCheck("nothing")
		enroll("a-first")
		enroll("z-last")
		tickAndCheck("enroll")
		if err := d.Withdraw("m-20"); err != nil {
			t.Fatal(err)
		}
		tickAndCheck("withdraw")
		old := mustApp(t, d, "m-07")
		if err := d.Withdraw("m-07"); err != nil {
			t.Fatal(err)
		}
		enroll("m-07")
		if mustApp(t, d, "m-07") == old {
			t.Fatal("re-enrollment reused the withdrawn app")
		}
		tickAndCheck("same-name re-enroll")
		tickAndCheck("nothing")
		victim := d.chipApps[3]
		if err := d.applyMigration(victim.name, 1-victim.chip, d.clock.Now()); err != nil {
			t.Fatal(err)
		}
		tickAndCheck("migration")
		for _, st := range d.List() {
			if err := d.Withdraw(st.Name); err != nil {
				t.Fatal(err)
			}
		}
		tickAndCheck("the last withdrawal")
	}
}

// A space-shared fleet (fewer apps than cores) must hold the same
// contract through the integral water-fill path.
func TestShardedTickMatchesSerialSpaceShared(t *testing.T) {
	base := Config{Cores: 256, Accel: 0.5, Period: time.Hour}
	const apps, ticks = 60, 30

	serialCfg := base
	serialCfg.Shards, serialCfg.TickWorkers = 1, 1
	serial := fleetScript(t, serialCfg, apps, ticks)

	cfg := base
	cfg.Shards, cfg.TickWorkers = 16, 6
	diffTranscripts(t, "space-shared shards=16 workers=6", serial, fleetScript(t, cfg, apps, ticks))
}

// chipScript drives a chip-backed daemon deterministically (chip apps
// emit their own beats, so the script only enrolls, churns, and ticks).
func chipScript(t *testing.T, cfg Config, apps, ticks int) [][]AppStatus {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	workloads := []string{"barnes", "ocean", "water"}
	name := func(i int) string { return fmt.Sprintf("chip-%03d", i) }
	for i := 0; i < apps; i++ {
		if err := d.Enroll(EnrollRequest{
			Name:     name(i),
			Workload: workloads[i%len(workloads)],
			Window:   64,
			MinRate:  5 + float64(i%20),
		}); err != nil {
			t.Fatal(err)
		}
	}
	var transcript [][]AppStatus
	for tick := 0; tick < ticks; tick++ {
		if tick == ticks/2 {
			for i := 0; i < apps/6; i++ {
				if err := d.Withdraw(name(i * 4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		d.Tick()
		transcript = append(transcript, d.List())
		if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
			t.Fatalf("tick %d: %d ledger faults", tick, f)
		}
		if _, used := d.fleet.Chip(0).Usage(); used > float64(d.fleet.Chip(0).Tiles())+1e-6 {
			t.Fatalf("tick %d: ledger overcommitted: %g > %d tiles", tick, used, d.fleet.Chip(0).Tiles())
		}
	}
	return transcript
}

// Chip-backed serving replays byte-identically for a fixed
// configuration: same shard count, one tick worker (knob actuation
// shares the tile ledger, so cross-shard interleaving is the one
// source of transient nondeterminism the contract excludes).
func TestChipTickDeterministicReplay(t *testing.T) {
	cfg := Config{
		Cores: 32, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Shards: 8, TickWorkers: 1,
		Chip: &ChipConfig{Tiles: 32},
	}
	const apps, ticks = 40, 24
	first := chipScript(t, cfg, apps, ticks)
	second := chipScript(t, cfg, apps, ticks)
	diffTranscripts(t, "chip replay", first, second)
}

// Satellite regression: Tick holds per-shard snapshots across the
// advance phase. Withdrawing an app in that window must neither panic
// nor release its partition's tiles twice — the ledger must account
// exactly for the survivors, with zero faults, and the withdrawn app
// must receive no further decisions.
func TestWithdrawMidTickReleasesTilesOnce(t *testing.T) {
	const tiles = 8
	d, err := NewDaemon(Config{
		Cores: tiles, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Shards: 4, TickWorkers: 2,
		Chip: &ChipConfig{Tiles: tiles},
	})
	if err != nil {
		t.Fatal(err)
	}
	const apps = 12
	for i := 0; i < apps; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("m-%02d", i), Workload: "water", MinRate: 2}); err != nil {
			t.Fatal(err)
		}
	}
	d.Tick() // warm: schedules queued, knobs moved

	decided := d.Stats().Decisions
	_ = decided
	d.testHookAfterSnapshot = func() {
		// The snapshots now hold m-03 and m-07; withdraw them mid-tick,
		// and immediately re-enroll one name so a stale snapshot entry
		// coexists with a live successor app.
		if err := d.Withdraw("m-03"); err != nil {
			t.Error(err)
		}
		if err := d.Withdraw("m-07"); err != nil {
			t.Error(err)
		}
		if err := d.Enroll(EnrollRequest{Name: "m-07", Workload: "water", MinRate: 2}); err != nil {
			t.Error(err)
		}
	}
	d.Tick()
	d.testHookAfterSnapshot = nil

	if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after mid-tick withdraw", f)
	}
	parts, used := d.fleet.Chip(0).Usage()
	if parts != apps-1 {
		t.Fatalf("%d partitions after withdraw+re-enroll, want %d", parts, apps-1)
	}
	// The ledger must equal the survivors' exact holdings: a double
	// release would undercount, a leak would overcount.
	sum := 0.0
	for _, a := range d.dir.snapshot(nil) {
		if a.partition() != nil {
			sum += float64(a.partition().Config().Cores) * a.partition().Share()
		}
	}
	if diff := used - sum; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("ledger %g != survivors' holdings %g", used, sum)
	}
	if used > tiles+1e-6 {
		t.Fatalf("ledger overcommitted: %g > %d tiles", used, tiles)
	}
	if _, err := d.Status("m-03"); err == nil {
		t.Fatal("withdrawn app still enrolled")
	}

	// Subsequent ticks keep serving the survivors cleanly.
	for i := 0; i < 4; i++ {
		d.Tick()
	}
	if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after post-withdraw ticks", f)
	}
	st, err := d.Status("m-07")
	if err != nil {
		t.Fatal(err)
	}
	if st.Decision == nil {
		t.Fatal("re-enrolled app never decided")
	}
}

// Quiescent apps keep their standing decision without re-running the
// decision engine, and wake the moment any input moves: a new beat, a
// goal change, or an allocation shift.
func TestQuiescentAppsSkipDecisions(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 16, Accel: 1, Period: time.Hour, Shards: 4, TickWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("q-%d", i), MinRate: 10, MaxRate: 20}); err != nil {
			t.Fatal(err)
		}
		if err := d.Beat(fmt.Sprintf("q-%d", i), 8, 0); err != nil {
			t.Fatal(err)
		}
	}
	d.Tick()
	base := d.Stats().Decisions
	if base == 0 {
		t.Fatal("no decisions on the first tick")
	}

	// Nothing changes: decisions must not grow.
	d.Tick()
	d.Tick()
	if got := d.Stats().Decisions; got != base {
		t.Fatalf("quiescent fleet re-decided: %d -> %d", base, got)
	}
	st, err := d.Status("q-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Decision == nil {
		t.Fatal("standing decision lost during skip")
	}

	// One beat wakes exactly that app.
	if err := d.Beat("q-1", 1, 0); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if got := d.Stats().Decisions; got != base+1 {
		t.Fatalf("one beat woke %d decisions, want 1", got-base)
	}
	// A goal change wakes its app even with no new beats.
	if err := d.SetGoal("q-2", 12, 22); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	if got := d.Stats().Decisions; got != base+2 {
		t.Fatalf("goal change woke %d decisions, want 1 more", got-base-1)
	}
}

// The skip must not dilute the wake-up measurement: after a long idle
// gap, the first real step sees the rate of the period in which beats
// reappeared (MarkIdle keeps the interval current), not the beats
// spread over the whole gap — which would corrupt the Kalman base
// estimate exactly when the app comes back.
func TestWakeAfterIdleGapMeasuresTrueRate(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 16, Accel: 1, Period: time.Hour, Shards: 4, TickWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "gap", MinRate: 10, MaxRate: 20, Window: 256}); err != nil {
		t.Fatal(err)
	}
	// Establish a steady ~15/s signal, then idle for a long gap.
	for i := 0; i < 5; i++ {
		if err := d.Beat("gap", 15, 0); err != nil {
			t.Fatal(err)
		}
		d.Tick()
	}
	for i := 0; i < 50; i++ {
		d.Tick() // 50 s of silence, all skipped
	}
	// Resume at the same rate; the wake-up decision must observe ~15/s.
	if err := d.Beat("gap", 15, 0); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	st, err := d.Status("gap")
	if err != nil {
		t.Fatal(err)
	}
	if st.Decision == nil {
		t.Fatal("no decision after wake-up")
	}
	// Gap dilution would report 15 beats / 51 s ≈ 0.3/s.
	if st.Decision.Observed < 10 || st.Decision.Observed > 20 {
		t.Fatalf("wake-up observed rate %g, want ~15 (gap-diluted would be ~0.3)", st.Decision.Observed)
	}
}
