package server

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/heartbeat"
	"angstrom/internal/workload"
)

// knobMove is one recorded actuation at the Knob interface boundary.
type knobMove struct {
	app, knob string
	level     int
}

// recorder interposes fakes at the daemon's Actuator/Sensor boundary,
// logging every level that actually reaches the hardware knobs.
type recorder struct {
	mu    sync.Mutex
	moves []knobMove
}

func (r *recorder) wrap(app string, k actuator.Knob) actuator.Knob {
	return &recordingKnob{Knob: k, app: app, rec: r}
}

func (r *recorder) log(app, knob string, level int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.moves = append(r.moves, knobMove{app: app, knob: knob, level: level})
}

func (r *recorder) snapshot() []knobMove {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]knobMove(nil), r.moves...)
}

type recordingKnob struct {
	actuator.Knob
	app string
	rec *recorder
}

func (k *recordingKnob) SetLevel(level int) error {
	err := k.Knob.SetLevel(level)
	if err == nil {
		k.rec.log(k.app, k.Knob.Name(), level)
	}
	return err
}

// chipGoal returns a reachable heart-rate band for a chip-backed app:
// a fraction of the model's rate at a mid-size configuration.
func chipGoal(t *testing.T, wl string, cores int, frac float64) (lo, hi float64) {
	t.Helper()
	spec, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	p := angstrom.DefaultParams()
	m, err := angstrom.Evaluate(p, spec, angstrom.Config{Cores: cores, CacheKB: 64, VF: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := m.HeartRate * frac
	return target * 0.9, target * 1.1
}

// withMemBandwidth is the default chip model with its aggregate
// off-chip bandwidth set to bps.
func withMemBandwidth(bps float64) *angstrom.Params {
	p := angstrom.DefaultParams()
	p.MemBandwidthBps = bps
	return &p
}

// The chip-backed ODA loop closes end to end: the partition emits the
// heartbeats, the decision engine actuates real knobs, and the app
// converges into its goal band with no client-side beats at all.
func TestChipDaemonConvergesToGoal(t *testing.T) {
	d, err := NewDaemon(Config{
		Cores: 64, Accel: 0.5, Period: time.Hour,
		Chip: &ChipConfig{Tiles: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := chipGoal(t, "barnes", 8, 0.5)
	// The window must span several decision periods: a time-multiplexed
	// interval ends in its high slice, so a sub-period window overreads.
	if err := d.Enroll(EnrollRequest{Name: "vid", Workload: "barnes", Window: 2048, MinRate: lo, MaxRate: hi}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		d.Tick()
	}
	st, err := d.Status("vid")
	if err != nil {
		t.Fatal(err)
	}
	if st.Chip == nil {
		t.Fatal("no chip view on a chip-backed app")
	}
	if st.Decision == nil || st.DecisionErr != "" {
		t.Fatalf("decision missing or errored: %+v / %s", st.Decision, st.DecisionErr)
	}
	if st.Observation.Beats == 0 {
		t.Fatal("partition emitted no beats")
	}
	if st.Chip.Cores == 1 && st.Chip.VF == "0.4V/100MHz" {
		t.Fatalf("knobs never moved off the base configuration: %+v", st.Chip)
	}
	if !st.GoalMet {
		t.Fatalf("goal [%g, %g] not met: observed %g (chip %+v)", lo, hi, st.Observation.WindowRate, st.Chip)
	}
	if st.Chip.IPS <= 0 || st.Chip.PowerW <= 0 || st.Chip.EnergyJ <= 0 {
		t.Fatalf("sensor sample degenerate: %+v", st.Chip)
	}
	if css := d.ChipStatuses(); len(css) != 1 || css[0].Partitions != 1 || css[0].PowerW <= css[0].UncoreW {
		t.Fatalf("chip status %+v", css)
	}
}

// The interface-boundary contract under oversubscription: a fake knob
// at the Actuator/Sensor seam sees only monotone single-rung ladder
// moves, and the shared chip's core ledger never exceeds the pool even
// with 3x more apps than tiles.
func TestChipDaemonOversubscribedNeverExceedsPool(t *testing.T) {
	const tiles = 8
	const apps = 24
	rec := &recorder{}
	d, err := NewDaemon(Config{
		Cores: tiles, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Chip: &ChipConfig{Tiles: tiles, KnobWrap: rec.wrap},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := chipGoal(t, "water", 2, 0.25)
	for i := 0; i < apps; i++ {
		err := d.Enroll(EnrollRequest{
			Name: fmt.Sprintf("app-%02d", i), Workload: "water",
			Window: 64, MinRate: lo, MaxRate: hi,
		})
		if err != nil {
			t.Fatalf("enroll %d of %d on %d tiles: %v", i+1, apps, tiles, err)
		}
		if _, used := usage(d); used > tiles+1e-9 {
			t.Fatalf("ledger overdrawn during enrollment: %g > %d", used, tiles)
		}
	}
	for i := 0; i < 40; i++ {
		d.Tick()
		parts, used := usage(d)
		if parts != apps {
			t.Fatalf("tick %d: %d partitions, want %d", i, parts, apps)
		}
		if used > tiles+1e-9 {
			t.Fatalf("tick %d: core ledger %g exceeds the %d-tile pool", i, used, tiles)
		}
	}
	timeShared := 0
	for _, st := range d.List() {
		if st.Chip == nil {
			t.Fatalf("%s lost its chip binding", st.Name)
		}
		if st.Chip.TimeShare < 1 {
			timeShared++
		}
		if st.Chip.Cores > tiles {
			t.Fatalf("%s holds %d cores on a %d-tile chip", st.Name, st.Chip.Cores, tiles)
		}
	}
	if timeShared == 0 {
		t.Fatalf("%d apps on %d tiles but nobody time-shares", apps, tiles)
	}

	// Every recorded hardware move is a single rung from the knob's
	// previous position: the stepped actuation contract.
	last := make(map[string]int)
	for _, m := range rec.snapshot() {
		key := m.app + "/" + m.knob
		if prev, ok := last[key]; ok {
			if delta := m.level - prev; delta < -1 || delta > 1 {
				t.Fatalf("%s jumped %d rungs (%d -> %d)", key, delta, prev, m.level)
			}
		} else if m.level > 1 {
			t.Fatalf("%s first move to rung %d skipped the ladder", key, m.level)
		}
		last[key] = m.level
	}
	if len(last) == 0 {
		t.Fatal("recorder saw no hardware moves")
	}
}

func usage(d *Daemon) (int, float64) {
	parts, used := d.fleet.Chip(0).Usage()
	return parts, used
}

// mustApp resolves an enrolled app through the sharded directory.
func mustApp(t *testing.T, d *Daemon, name string) *app {
	t.Helper()
	a, ok := d.lookup(name)
	if !ok {
		t.Fatalf("%q not enrolled", name)
	}
	return a
}

// Advisory enrollment still works on a chip daemon, and chip mode is
// refused on an advisory daemon.
func TestEnrollModes(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 16, Accel: 1, Period: time.Hour, Chip: &ChipConfig{Tiles: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "adv", Mode: ModeAdvisory, MinRate: 10}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "chip", Mode: ModeChip, MinRate: 10}); err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "bad", Mode: "quantum", MinRate: 10}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	st, err := d.Status("adv")
	if err != nil {
		t.Fatal(err)
	}
	if st.Chip != nil {
		t.Fatal("advisory app has a chip view")
	}
	// Client beats reach advisory apps only; a chip-backed app's beat
	// stream belongs to its partition.
	if err := d.Beat("adv", 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Beat("chip", 1, 0); err == nil {
		t.Fatal("client beat accepted for a chip-backed app")
	}
	if err := d.BeatTimestamps("chip", []float64{1}, 0); err == nil {
		t.Fatal("client timestamps accepted for a chip-backed app")
	}
	stats := d.Stats()
	if stats.Apps != 2 || stats.ChipApps != 1 {
		t.Fatalf("stats %+v, want 2 apps / 1 chip", stats)
	}

	plain, err := NewDaemon(Config{Cores: 16, Accel: 1, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Enroll(EnrollRequest{Name: "x", Mode: ModeChip, MinRate: 10}); err == nil {
		t.Fatal("chip mode accepted without a chip")
	}
	if len(plain.ChipStatuses()) != 0 {
		t.Fatal("chip status on an advisory daemon")
	}
}

// Withdrawing a chip-backed app frees its tiles for the next tenant.
func TestChipWithdrawFreesTiles(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 4, Accel: 1, Period: time.Hour, Chip: &ChipConfig{Tiles: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("a%d", i), MinRate: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Enroll(EnrollRequest{Name: "overflow", MinRate: 10}); err == nil {
		t.Fatal("enrolled past the tile pool without oversubscription")
	}
	if err := d.Withdraw("a0"); err != nil {
		t.Fatal(err)
	}
	if parts, _ := usage(d); parts != 3 {
		t.Fatalf("%d partitions after withdraw", parts)
	}
	if err := d.Enroll(EnrollRequest{Name: "replacement", MinRate: 10}); err != nil {
		t.Fatalf("tiles not freed: %v", err)
	}
	d.Tick() // the withdrawn app's released partition must not wedge the loop
}

// The batched-beats fix: with server-side spreading, a window smaller
// than a batch still measures the true stream rate (the pre-fix daemon
// collapsed a batch onto one timestamp, zeroing small-window rates;
// loadgen compensated with window = 20x batch).
func TestBeatSpreadingUnbiasesSmallWindows(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 8, Accel: 1, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 10 // beats per simulated second, delivered as one batch
	if err := d.Enroll(EnrollRequest{Name: "s", Window: batch, MinRate: batch - 1, MaxRate: batch + 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		d.Tick() // advance the accelerated clock 1s
		if err := d.Beat("s", batch, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := d.Status("s")
	if err != nil {
		t.Fatal(err)
	}
	got := st.Observation.WindowRate
	if math.Abs(got-batch)/batch > 0.02 {
		t.Fatalf("window(%d) rate %g, want ~%d (batch timestamp bias)", batch, got, batch)
	}
}

// Client-supplied per-beat timestamps: only the spacing matters (the
// batch is shifted onto the server clock), so skewed client epochs
// still yield exact rates.
func TestBeatTimestamps(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 8, Accel: 1, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "c", Window: 4, MinRate: 1}); err != nil {
		t.Fatal(err)
	}
	d.Tick()
	// Client clock ~1e9 seconds off the server's: 4 beats, 0.25s apart.
	ts := []float64{1e9, 1e9 + 0.25, 1e9 + 0.5, 1e9 + 0.75}
	if err := d.BeatTimestamps("c", ts, 0); err != nil {
		t.Fatal(err)
	}
	st, err := d.Status("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Observation.WindowRate; math.Abs(got-4) > 1e-6 {
		t.Fatalf("window rate %g from 0.25s spacing, want 4", got)
	}
	if err := d.BeatTimestamps("c", []float64{2, 1}, 0); err == nil {
		t.Fatal("decreasing timestamps accepted")
	}
	if err := d.BeatTimestamps("c", nil, 0); err == nil {
		t.Fatal("empty timestamp batch accepted")
	}
	if err := d.BeatTimestamps("nosuch", []float64{1}, 0); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// A chip power budget bounds fleet power: with a scarce budget the
// daemon caps decision engines (goals are sacrificed before the budget
// is), and with a generous one the goals are unaffected.
func TestChipPowerBudget(t *testing.T) {
	run := func(budgetW float64) (met int, powerW float64) {
		d, err := NewDaemon(Config{
			Cores: 64, Accel: 0.5, Period: time.Hour,
			Chip: &ChipConfig{Tiles: 64, PowerBudgetW: budgetW},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, wl := range []string{"barnes", "ocean", "water", "volrend"} {
			lo, hi := chipGoal(t, wl, 4, 0.5)
			err := d.Enroll(EnrollRequest{
				Name: fmt.Sprintf("%s-%d", wl, i), Workload: wl,
				Window: 2048, MinRate: lo, MaxRate: hi,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 120; i++ {
			d.Tick()
		}
		for _, st := range d.List() {
			if st.GoalMet {
				met++
			}
		}
		cs := d.ChipStatuses()[0]
		return met, cs.PowerW
	}
	met, power := run(20)
	if met != 4 {
		t.Fatalf("generous 20W budget: only %d/4 goals met", met)
	}
	if power > 20 {
		t.Fatalf("fleet draws %gW over the 20W budget", power)
	}
	starvedMet, starvedPower := run(0.5)
	if starvedPower > 0.5+0.2 {
		t.Fatalf("0.5W budget but fleet draws %gW", starvedPower)
	}
	if starvedMet == 4 && starvedPower >= power {
		t.Fatal("scarce budget changed nothing")
	}
}

// Cross-partition contention through the full serving stack: two
// bandwidth-heavy apps on a scarce-memory chip each sense lower IPS
// than the same app running alone, the manager provisions more units
// for the contended fleet, and both still converge into their goal
// bands (the RLS layer absorbs the model divergence).
func TestChipContentionCoLocation(t *testing.T) {
	newD := func() *Daemon {
		d, err := NewDaemon(Config{
			Cores: 256, Accel: 0.5, Period: time.Hour,
			Chip: &ChipConfig{Tiles: 256, Params: withMemBandwidth(24e9)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	lo, hi := chipGoal(t, "ocean", 16, 0.6)
	enroll := func(d *Daemon, name string) {
		t.Helper()
		if err := d.Enroll(EnrollRequest{Name: name, Workload: "ocean", Window: 2048, MinRate: lo, MaxRate: hi}); err != nil {
			t.Fatal(err)
		}
	}

	solo := newD()
	enroll(solo, "a")
	for i := 0; i < 150; i++ {
		solo.Tick()
	}
	stSolo, err := solo.Status("a")
	if err != nil {
		t.Fatal(err)
	}
	if !stSolo.GoalMet {
		t.Fatalf("solo app missed its band: rate %g vs [%g, %g] chip %+v",
			stSolo.Observation.WindowRate, lo, hi, stSolo.Chip)
	}
	if stSolo.Chip.Slowdown < 0.99 {
		t.Fatalf("solo slowdown %g, want ~1 (no co-tenant)", stSolo.Chip.Slowdown)
	}
	soloChip := solo.ChipStatuses()[0]

	// Co-located, the fleet breathes around the band (the contention
	// couples the two control loops), so assert over a window rather
	// than at one instant: both apps jointly in band most of the time,
	// clearly degraded throughput, and clearly higher chip pressure.
	duo := newD()
	enroll(duo, "a")
	enroll(duo, "b")
	for i := 0; i < 300; i++ {
		duo.Tick()
	}
	inBand := 0
	var slowSum, rhoSum float64
	const tail = 100
	for i := 0; i < tail; i++ {
		duo.Tick()
		stA, _ := duo.Status("a")
		stB, _ := duo.Status("b")
		if stA.GoalMet && stB.GoalMet {
			inBand++
		}
		slowSum += (stA.Chip.Slowdown + stB.Chip.Slowdown) / 2 / tail
		cs := duo.ChipStatuses()[0]
		rhoSum += cs.MemRho / tail
	}
	if inBand < tail*6/10 {
		t.Fatalf("co-located apps jointly in band only %d/%d ticks", inBand, tail)
	}
	if slowSum > 0.92 {
		t.Fatalf("mean co-located slowdown %g, want clear degradation below solo %g", slowSum, stSolo.Chip.Slowdown)
	}
	if rhoSum < soloChip.MemRho+0.08 {
		t.Fatalf("mean co-located mem rho %g not clearly above solo %g", rhoSum, soloChip.MemRho)
	}
}

// makeRoom regression at deep oversubscription: when most incumbents
// sit at the minimum share, a single proportional scale under-shrinks
// (the floored shares cannot give their proportion) and the old code
// spuriously refused the newcomer. The rescale loop must carve the full
// slot out of the above-floor mass.
func TestMakeRoomDeepOversubscription(t *testing.T) {
	const tiles = 1
	const incumbents = 51
	d, err := NewDaemon(Config{
		Cores: tiles, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Chip: &ChipConfig{Tiles: tiles},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < incumbents; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("inc-%02d", i), Workload: "water", MinRate: 1}); err != nil {
			t.Fatalf("enroll incumbent %d: %v", i, err)
		}
	}
	// Skew the fleet: 50 partitions pinned at the minimum share, one
	// holding nearly everything else (shrinks first so the grow fits).
	for i := 1; i < incumbents; i++ {
		if err := mustApp(t, d, fmt.Sprintf("inc-%02d", i)).partition().SetShare(minChipShare); err != nil {
			t.Fatal(err)
		}
	}
	if err := mustApp(t, d, "inc-00").partition().SetShare(0.49); err != nil {
		t.Fatal(err)
	}
	if _, used := usage(d); used < 0.98 {
		t.Fatalf("setup used %g, want ~0.99", used)
	}

	if err := d.Enroll(EnrollRequest{Name: "newcomer", Workload: "water", MinRate: 1}); err != nil {
		t.Fatalf("newcomer refused at deep oversubscription: %v", err)
	}
	_, used := usage(d)
	if used > tiles+1e-9 {
		t.Fatalf("ledger overcommitted: %g > %d", used, tiles)
	}
	slot := float64(tiles) / float64(incumbents+1)
	if got := mustApp(t, d, "newcomer").partition().Share(); got < slot*0.9 {
		t.Fatalf("newcomer share %g, want ~fair slot %g", got, slot)
	}
	if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults", f)
	}
}

// An unsatisfiable power budget floors every cap at the cheapest
// configuration and surfaces the overdraft in stats instead of
// pretending the budget holds; a generous budget reports zero
// overcommit and keeps the summed caps inside it.
func TestPowerCapOvercommitSurfaced(t *testing.T) {
	run := func(budgetW float64) (*Daemon, StatsResponse) {
		d, err := NewDaemon(Config{
			Cores: 64, Accel: 0.5, Period: time.Hour,
			Chip: &ChipConfig{Tiles: 64, PowerBudgetW: budgetW},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, wl := range []string{"barnes", "ocean", "water", "volrend"} {
			lo, hi := chipGoal(t, wl, 4, 0.5)
			if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("%s-%d", wl, i), Workload: wl, Window: 2048, MinRate: lo, MaxRate: hi}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			d.Tick()
		}
		return d, d.Stats()
	}

	d, stats := run(20)
	if stats.PowerOvercommitW != 0 {
		t.Fatalf("generous 20W budget reports %gW overcommit", stats.PowerOvercommitW)
	}
	avail := 20 - d.cfg.Chip.Params.UncoreW
	sum := 0.0
	for _, a := range d.dir.snapshot(nil) {
		sum += a.lastCapX * a.nomActiveW
	}
	if sum > avail*1.05 {
		t.Fatalf("summed caps %gW exceed the available %gW", sum, avail)
	}

	_, starved := run(0.3)
	if starved.PowerOvercommitW <= 0 {
		t.Fatal("0.3W budget (below uncore + floors) reports no overcommit")
	}
}

// The tick survives two kinds of refusal and used to drop both on the
// floor: a die's tile ledger refusing a time share the arbiter granted,
// and a die's arbitration failing outright. Both are counted and surface
// in /v1/stats. The fleet here is lopsided — most tenants pinned to die
// 0 — so the broker, splitting the pool by demand, grants die 0's
// manager more units than the die has tiles: the shares it hands out
// cannot all fit, every tick.
func TestTickCountsWhatItIsRefused(t *testing.T) {
	const tiles, apps = 8, 24
	d, err := NewDaemon(Config{
		Cores: 2 * tiles, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Chip: &ChipConfig{Chips: 2, Tiles: tiles, MigrateSlowdown: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Chip == nil || st.Chip.ShareRefusals != 0 || st.Tick.StepErrors != 0 {
		t.Fatalf("fresh chip daemon reports refusals: %+v / %+v", st.Chip, st.Tick)
	}
	lo, hi := chipGoal(t, "water", 4, 1) // more than one time-shared unit can deliver
	for i := 0; i < apps; i++ {
		die := 0
		if i%6 == 5 {
			die = 1
		}
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("app-%02d", i), Workload: "water", Window: 64, MinRate: lo, MaxRate: hi, Chip: &die}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		d.Tick()
	}
	st := d.Stats()
	if st.Chip.ShareRefusals == 0 {
		t.Fatalf("%d apps crowd an %d-tile die for 40 ticks and its ledger never refused a share", apps-apps/6, tiles)
	}
	if st.Tick.StepErrors != 0 {
		t.Fatalf("%d arbitration failures on a healthy fleet", st.Tick.StepErrors)
	}
	for _, cs := range d.ChipStatuses() {
		if cs.CoreEquivalents > tiles+1e-9 || cs.LedgerFaults != 0 {
			t.Fatalf("die %d: %g core-equivalents on %d tiles, %d ledger faults", cs.Chip, cs.CoreEquivalents, tiles, cs.LedgerFaults)
		}
	}

	// A tenant the manager cannot price (no goal: unreachable through
	// Enroll, which demands one) fails the die's Step every tick. The
	// fleet keeps serving on its standing grants, and the failures count.
	if err := d.mgrs[0].AddApp("goalless", heartbeat.New(d.clock), func(int) float64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	decided := st.Decisions
	for i := 0; i < 3; i++ {
		d.Tick()
	}
	st = d.Stats()
	if st.Tick.StepErrors != 3 {
		t.Fatalf("step_errors %d after 3 failed arbitrations, want 3", st.Tick.StepErrors)
	}
	if st.Decisions != decided+3*apps {
		t.Fatalf("%d decisions across 3 ticks of %d apps without arbitration, want %d", st.Decisions-decided, apps, 3*apps)
	}

	if plain, err := NewDaemon(Config{Cores: 4, Accel: 1, Period: time.Hour}); err != nil {
		t.Fatal(err)
	} else if plain.Stats().Chip != nil {
		t.Fatal("advisory daemon reports chip refusals")
	}
}
