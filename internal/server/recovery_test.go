package server

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"angstrom/internal/journal"
)

// Recovery-determinism tests: the durability contract (persist.go) says
// a journal-only daemon restored from any crash-consistent image is
// byte-identical to a daemon that applied the same durable prefix and
// never crashed. These tests drive a journaled daemon through a fixed
// mutation script on a MemFS, crash-image it at every commit boundary,
// and compare next-tick List() transcripts against fresh controls.

// fleetOp is one scripted mutation, replayable against any daemon.
type fleetOp struct {
	kind     string // "enroll", "withdraw", "goal", "beat", "beat_ts", "tick"
	req      EnrollRequest
	name     string
	min, max float64
	n        int
	dist     float64
	ts       []float64
}

func applyOp(t *testing.T, d *Daemon, op fleetOp) {
	t.Helper()
	var err error
	switch op.kind {
	case "enroll":
		err = d.Enroll(op.req)
	case "withdraw":
		err = d.Withdraw(op.name)
	case "goal":
		err = d.SetGoal(op.name, op.min, op.max)
	case "beat":
		err = d.Beat(op.name, op.n, op.dist)
	case "beat_ts":
		err = d.BeatTimestamps(op.name, op.ts, op.dist)
	case "tick":
		d.Tick()
	}
	if err != nil {
		t.Fatalf("%s %s: %v", op.kind, op.name+op.req.Name, err)
	}
}

// recoveryOps builds a deterministic enroll/beat/churn/goal/tick script
// exercising every journaled record type.
func recoveryOps(apps, ticks int) []fleetOp {
	rng := rand.New(rand.NewSource(11))
	workloads := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	name := func(i int) string { return fmt.Sprintf("rec-%03d", i) }
	var ops []fleetOp
	enrolled := make(map[string]bool)
	for i := 0; i < apps; i++ {
		goal := 10 + rng.Float64()*90
		ops = append(ops, fleetOp{kind: "enroll", req: EnrollRequest{
			Name: name(i), Workload: workloads[i%len(workloads)],
			Window: 32, MinRate: goal, MaxRate: goal * 1.3,
		}})
		enrolled[name(i)] = true
	}
	for tick := 0; tick < ticks; tick++ {
		if tick == ticks/2 {
			for i := 0; i < apps; i += 4 {
				ops = append(ops, fleetOp{kind: "withdraw", name: name(i)})
				delete(enrolled, name(i))
			}
			ops = append(ops, fleetOp{kind: "enroll", req: EnrollRequest{
				Name: name(0), Workload: "ocean", Window: 32, MinRate: 20, MaxRate: 35,
			}})
			enrolled[name(0)] = true
			for i := 1; i < apps; i += 5 {
				if enrolled[name(i)] {
					ops = append(ops, fleetOp{kind: "goal", name: name(i), min: 15 + float64(i%20)})
				}
			}
		}
		for i := 0; i < apps; i++ {
			if !enrolled[name(i)] || (tick+i)%3 == 0 {
				continue
			}
			if tick > 0 && i == 1 {
				// Timestamped batch: replay must reproduce the shift-to-now
				// placement from the recorded daemon-clock time.
				ops = append(ops, fleetOp{kind: "beat_ts", name: name(i),
					ts: []float64{0, 0.05, 0.15, 0.2}, dist: 0.1})
				continue
			}
			ops = append(ops, fleetOp{kind: "beat", name: name(i), n: 1 + (tick*5+i*11)%20})
		}
		ops = append(ops, fleetOp{kind: "tick"})
	}
	return ops
}

// journalOnly returns base configured for journal-only durability on fs:
// no snapshots (full-history replay) and no background flusher (tests
// control durability boundaries with explicit flushes).
func journalOnly(base Config, fs journal.FS) Config {
	base.DataDir = "j"
	base.FS = fs
	base.SnapshotEvery = -1
	base.JournalFlush = -1
	return base
}

// The tentpole contract: crash a journaled advisory daemon after every
// op, restore each image into a fresh daemon, and its next tick must be
// byte-identical to a control daemon that applied the same prefix live
// and never crashed.
func TestJournalReplayMatchesControl(t *testing.T) {
	base := Config{Cores: 24, Accel: 0.5, Period: time.Hour, Oversubscribe: true, Shards: 4, TickWorkers: 2}
	ops := recoveryOps(10, 6)

	fs := journal.NewMemFS()
	d, err := NewDaemon(journalOnly(base, fs))
	if err != nil {
		t.Fatal(err)
	}
	var images []*journal.MemFS
	for _, op := range ops {
		applyOp(t, d, op)
		if err := d.jd.w.Flush(); err != nil {
			t.Fatal(err)
		}
		images = append(images, fs.Crash(0))
	}

	for i, img := range images {
		restored, err := NewDaemon(journalOnly(base, img))
		if err != nil {
			t.Fatalf("restore after op %d (%s): %v", i, ops[i].kind, err)
		}
		control, err := NewDaemon(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops[:i+1] {
			applyOp(t, control, op)
		}
		control.Tick()
		restored.Tick()
		diffTranscripts(t, fmt.Sprintf("crash after op %d (%s)", i, ops[i].kind),
			[][]AppStatus{control.List()}, [][]AppStatus{restored.List()})
	}
}

// A torn tail — garbage after the durable prefix — is repaired away,
// and recovery lands exactly on the durable prefix.
func TestTornTailTruncated(t *testing.T) {
	base := Config{Cores: 24, Accel: 0.5, Period: time.Hour, Oversubscribe: true, Shards: 4, TickWorkers: 2}
	ops := recoveryOps(8, 4)

	fs := journal.NewMemFS()
	d, err := NewDaemon(journalOnly(base, fs))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyOp(t, d, op)
	}
	if err := d.jd.w.Flush(); err != nil {
		t.Fatal(err)
	}
	img := fs.Crash(0)

	// Tear the newest segment: half a frame plus noise lands after the
	// last durable record, as a crash mid-write would leave it.
	names, err := img.ReadDir("j")
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, name := range names {
		if strings.HasSuffix(name, ".log") {
			seg = "j/" + name // journal-only: a single segment
		}
	}
	if seg == "" {
		t.Fatal("no segment file in the crash image")
	}
	f, err := img.OpenAppend(seg)
	if err != nil {
		t.Fatal(err)
	}
	torn := journal.AppendFrame(nil, []byte(`{"op":"enroll","t":99}`))
	garbage := append(torn[:len(torn)-5], 0xde, 0xad)
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	restored, err := NewDaemon(journalOnly(base, img))
	if err != nil {
		t.Fatal(err)
	}
	ri := restored.RecoveryInfo()
	if ri.TruncatedBytes != len(garbage) {
		t.Fatalf("repaired %d torn bytes, want %d", ri.TruncatedBytes, len(garbage))
	}
	control, err := NewDaemon(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		applyOp(t, control, op)
	}
	control.Tick()
	restored.Tick()
	diffTranscripts(t, "torn tail", [][]AppStatus{control.List()}, [][]AppStatus{restored.List()})
}

// Crash-inject a chip-backed daemon at every journal commit boundary
// (the BeforeSync hook images the filesystem as each batch becomes
// durable). Every image must restore without error, with the tile
// ledger exact — zero faults, no overcommit — and restoring the same
// image twice must be byte-identical.
func TestChipCrashAtEveryCommitBoundary(t *testing.T) {
	const tiles = 16
	base := Config{
		Cores: tiles, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Shards: 4, TickWorkers: 1,
		Chip: &ChipConfig{Tiles: tiles},
	}
	fs := journal.NewMemFS()
	cfg := journalOnly(base, fs)
	var images []*journal.MemFS
	cfg.journalBeforeSync = func([]byte) { images = append(images, fs.Crash(0)) }
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const apps = 8
	for i := 0; i < apps; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("chip-%02d", i),
			Workload: []string{"barnes", "ocean", "water"}[i%3], Window: 32,
			MinRate: 5 + float64(i%10)}); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 6; tick++ {
		if tick == 3 {
			if err := d.Withdraw("chip-02"); err != nil {
				t.Fatal(err)
			}
			if err := d.Withdraw("chip-05"); err != nil {
				t.Fatal(err)
			}
		}
		d.Tick()
		if err := d.jd.w.Flush(); err != nil { // tick records cross a boundary
			t.Fatal(err)
		}
	}
	if len(images) < apps+6 {
		t.Fatalf("only %d commit boundaries imaged", len(images))
	}

	rcfg := journalOnly(base, nil)
	restoreFrom := func(img *journal.MemFS) *Daemon {
		t.Helper()
		c := rcfg
		c.FS = img.Crash(0) // private copy: restores must not share state
		r, err := NewDaemon(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for i, img := range images {
		r1 := restoreFrom(img)
		r2 := restoreFrom(img)
		var first, second [][]AppStatus
		for tick := 0; tick < 2; tick++ {
			r1.Tick()
			r2.Tick()
			first = append(first, r1.List())
			second = append(second, r2.List())
		}
		diffTranscripts(t, fmt.Sprintf("boundary %d double restore", i), first, second)
		if f := r1.fleet.Chip(0).LedgerFaults(); f != 0 {
			t.Fatalf("boundary %d: %d ledger faults after restore", i, f)
		}
		if _, used := r1.fleet.Chip(0).Usage(); used > tiles+1e-6 {
			t.Fatalf("boundary %d: ledger overcommitted: %g > %d tiles", i, used, tiles)
		}
	}
}

// The federation durability contract: crash-inject a two-die fleet at
// every journal commit boundary of a run that saturates one die and
// migrates tenants off it, so opChipScale and opMigrate commits land
// among the imaged boundaries. Every image — including those cut
// mid-migration — must restore byte-identically (two restores of the
// same image agree tick for tick), with zero ledger faults on either
// die and neither die's tile ledger overcommitted.
func TestFederationCrashAtEveryCommitBoundary(t *testing.T) {
	const tiles = 48
	base := Config{
		Cores: tiles, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Shards: 4, TickWorkers: 1,
		Chip: &ChipConfig{Chips: 2, Params: withMemBandwidth(12e9)},
	}
	fs := journal.NewMemFS()
	cfg := journalOnly(base, fs)
	var images []*journal.MemFS
	cfg.journalBeforeSync = func([]byte) { images = append(images, fs.Crash(0)) }
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const apps = 6
	for i := 0; i < apps; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("fed-%02d", i),
			Workload: "ocean", Window: 22, MinRate: 22, MaxRate: 40}); err != nil {
			t.Fatal(err)
		}
	}
	// Warmup: let the controllers ramp onto multi-core allocations and
	// the placer spread demand; flush sparsely so replay cost per image
	// stays sane while still imaging real tick-batch boundaries.
	for tick := 0; tick < 60; tick++ {
		d.Tick()
		if tick%6 == 5 {
			if err := d.jd.w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Collapse die 0's memory bandwidth: the following ticks must walk
	// tenants off it, committing the migration records under test.
	if err := d.SaturateChip(0, 0.35); err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 12; tick++ {
		d.Tick()
		if err := d.jd.w.Flush(); err != nil { // tick records cross a boundary
			t.Fatal(err)
		}
	}
	if d.Migrations() == 0 {
		t.Fatal("saturating die 0 produced no migrations; the boundaries exercise nothing new")
	}
	if len(images) < apps+12 {
		t.Fatalf("only %d commit boundaries imaged", len(images))
	}

	rcfg := journalOnly(base, nil)
	restoreFrom := func(img *journal.MemFS) *Daemon {
		t.Helper()
		c := rcfg
		c.FS = img.Crash(0) // private copy: restores must not share state
		r, err := NewDaemon(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for i, img := range images {
		r1 := restoreFrom(img)
		r2 := restoreFrom(img)
		var first, second [][]AppStatus
		for tick := 0; tick < 2; tick++ {
			r1.Tick()
			r2.Tick()
			first = append(first, r1.List())
			second = append(second, r2.List())
		}
		diffTranscripts(t, fmt.Sprintf("boundary %d double restore", i), first, second)
		if f := r1.fleet.LedgerFaults(); f != 0 {
			t.Fatalf("boundary %d: %d ledger faults after restore", i, f)
		}
		for die := 0; die < r1.fleet.Chips(); die++ {
			if _, used := r1.fleet.Chip(die).Usage(); used > tiles+1e-6 {
				t.Fatalf("boundary %d die %d: overcommitted: %g > %d tiles", i, die, used, tiles)
			}
		}
	}
}

// Snapshot + tail: membership, goals, chip placement, clock, and
// counters restore exactly from a compacted snapshot, and the restored
// tile ledger re-sums to the live daemon's value.
func TestSnapshotRestoreExact(t *testing.T) {
	const tiles = 24
	base := Config{
		Cores: tiles, Accel: 0.5, Period: time.Hour, Oversubscribe: true,
		Shards: 4, TickWorkers: 1,
		Chip: &ChipConfig{Tiles: tiles},
	}
	fs := journal.NewMemFS()
	cfg := journalOnly(base, fs)
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const apps = 10
	name := func(i int) string { return fmt.Sprintf("snap-%02d", i) }
	for i := 0; i < apps; i++ {
		if err := d.Enroll(EnrollRequest{Name: name(i),
			Workload: []string{"barnes", "ocean", "water"}[i%3], Window: 32,
			MinRate: 4 + float64(i%8)}); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 5; tick++ {
		d.Tick()
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail: committed control mutations (no decision
	// epochs — replayed ticks re-run fresh controllers, which the
	// exactness contract deliberately excludes; the crash-boundary test
	// covers tick replay under the journal-only contract).
	if err := d.Withdraw(name(3)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetGoal(name(6), 9, 14); err != nil {
		t.Fatal(err)
	}

	r, err := NewDaemon(journalOnly(base, fs.Crash(0)))
	if err != nil {
		t.Fatal(err)
	}
	ri := r.RecoveryInfo()
	if ri.SnapshotSeq == 0 {
		t.Fatal("restored without a snapshot")
	}
	if ri.Apps != apps-1 {
		t.Fatalf("restored %d apps, want %d", ri.Apps, apps-1)
	}

	ls, rs := d.Stats(), r.Stats()
	if ls.Ticks != rs.Ticks || ls.Beats != rs.Beats || ls.Decisions != rs.Decisions {
		t.Fatalf("counters drifted: live ticks/beats/decisions %d/%d/%d, restored %d/%d/%d",
			ls.Ticks, ls.Beats, ls.Decisions, rs.Ticks, rs.Beats, rs.Decisions)
	}
	if ls.ClockSeconds != rs.ClockSeconds {
		t.Fatalf("clock drifted: live %g, restored %g", ls.ClockSeconds, rs.ClockSeconds)
	}

	// Per-app: goals and chip placement exact.
	live := make(map[string]*app)
	for _, a := range d.dir.snapshot(nil) {
		live[a.name] = a
	}
	restoredApps := r.dir.snapshot(nil)
	if len(restoredApps) != len(live) {
		t.Fatalf("membership %d vs %d", len(restoredApps), len(live))
	}
	for _, ra := range restoredApps {
		la, ok := live[ra.name]
		if !ok {
			t.Fatalf("restored %q was not live", ra.name)
		}
		lg, rg := la.mon.Goals().Performance, ra.mon.Goals().Performance
		if lg.MinRate != rg.MinRate || lg.MaxRate != rg.MaxRate {
			t.Fatalf("%s: goal (%g,%g) restored as (%g,%g)", ra.name, lg.MinRate, lg.MaxRate, rg.MinRate, rg.MaxRate)
		}
		if la.partition().Config() != ra.partition().Config() {
			t.Fatalf("%s: chip config %+v restored as %+v", ra.name, la.partition().Config(), ra.partition().Config())
		}
		if la.partition().Share() != ra.partition().Share() {
			t.Fatalf("%s: time share %g restored as %g", ra.name, la.partition().Share(), ra.partition().Share())
		}
	}
	lp, lu := d.fleet.Chip(0).Usage()
	rp, ru := r.fleet.Chip(0).Usage()
	if lp != rp || lu != ru {
		t.Fatalf("ledger drifted: live %d partitions/%g tiles, restored %d/%g", lp, lu, rp, ru)
	}
	if f := r.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after snapshot restore", f)
	}
	// And the restored daemon keeps serving cleanly.
	for tick := 0; tick < 3; tick++ {
		r.Tick()
	}
	if f := r.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after post-restore ticks", f)
	}
}

// The acceptance scenario: kill -9 a daemon mid-tick with a large
// fleet; restart from the data directory. The whole fleet comes back
// and the next tick is byte-identical to a daemon that never crashed
// (the in-flight tick never committed, so it simply never happened).
func TestKillMidTickRestoresFleet(t *testing.T) {
	apps := 10000
	if testing.Short() {
		apps = 1000
	}
	base := Config{Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true}
	fs := journal.NewMemFS()
	d, err := NewDaemon(journalOnly(base, fs))
	if err != nil {
		t.Fatal(err)
	}
	enrolls := make([]fleetOp, 0, apps)
	workloads := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < apps; i++ {
		enrolls = append(enrolls, fleetOp{kind: "enroll", req: EnrollRequest{
			Name: fmt.Sprintf("app-%05d", i), Workload: workloads[i%len(workloads)],
			Window: 32, MinRate: 5 + float64(i%40),
		}})
	}
	for _, op := range enrolls {
		applyOp(t, d, op)
	}
	for i := 0; i < apps; i += 3 {
		if err := d.Beat(enrolls[i].req.Name, 1+i%7, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.jd.w.Flush(); err != nil {
		t.Fatal(err)
	}

	// kill -9 mid-tick: image the filesystem while the tick holds its
	// per-shard snapshots, before the tick record could ever commit.
	var img *journal.MemFS
	d.testHookAfterSnapshot = func() {
		if img == nil {
			img = fs.Crash(0)
		}
	}
	d.Tick()
	d.testHookAfterSnapshot = nil
	if img == nil {
		t.Fatal("mid-tick hook never fired")
	}

	restored, err := NewDaemon(journalOnly(base, img))
	if err != nil {
		t.Fatal(err)
	}
	if ri := restored.RecoveryInfo(); ri.Apps != apps {
		t.Fatalf("restored %d apps, want %d", ri.Apps, apps)
	}
	control, err := NewDaemon(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range enrolls {
		applyOp(t, control, op)
	}
	for i := 0; i < apps; i += 3 {
		if err := control.Beat(enrolls[i].req.Name, 1+i%7, 0); err != nil {
			t.Fatal(err)
		}
	}
	restored.Tick()
	control.Tick()
	diffTranscripts(t, "kill mid-tick", [][]AppStatus{control.List()}, [][]AppStatus{restored.List()})
}

// A journal failure degrades the daemon to read-only serving: mutations
// refuse with ErrDegraded (503 over HTTP), beats and reads keep
// working, and /readyz turns unavailable while /healthz stays alive.
func TestDegradedMode(t *testing.T) {
	base := Config{Cores: 16, Accel: 1, Period: time.Hour}
	fs := journal.NewMemFS()
	d, err := NewDaemon(journalOnly(base, fs))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "ok", MinRate: 10}); err != nil {
		t.Fatal(err)
	}

	fs.SetSyncErr(errors.New("I/O error: bad sector"))
	err = d.Enroll(EnrollRequest{Name: "doomed", MinRate: 10})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("enroll on failed journal: %v", err)
	}
	if !d.Degraded() {
		t.Fatal("daemon not degraded after journal failure")
	}
	// Journal-then-apply: the refused mutation left no state behind.
	if _, err := d.Status("doomed"); err == nil {
		t.Fatal("refused enroll mutated the directory")
	}
	// Every control mutation refuses; ErrDegraded is sticky.
	if err := d.SetGoal("ok", 12, 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("goal change: %v", err)
	}
	if err := d.Withdraw("ok"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("withdraw: %v", err)
	}
	// The data plane survives: beats accepted, reads served, ticks run.
	if err := d.Beat("ok", 3, 0); err != nil {
		t.Fatalf("beat in degraded mode: %v", err)
	}
	d.Tick()
	if st, err := d.Status("ok"); err != nil || st.Observation.Beats != 3 {
		t.Fatalf("degraded serving: %+v, %v", st, err)
	}

	st := d.Stats()
	if st.Journal == nil || !st.Journal.Degraded || st.Journal.Error == "" {
		t.Fatalf("stats don't surface degradation: %+v", st.Journal)
	}
	// The beat and the tick above were served but not journaled: each is
	// counted, not silently lost.
	if st.Journal.DroppedRecords != 2 {
		t.Fatalf("dropped_records = %d after one beat and one tick on a failed journal, want 2", st.Journal.DroppedRecords)
	}

	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", resp.StatusCode, err)
	}
	if resp, err := http.Get(srv.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz in degraded mode: %v %v", resp.StatusCode, err)
	}
	resp, err := http.Post(srv.URL+"/v1/apps", "application/json",
		strings.NewReader(`{"name":"late","min_rate":5}`))
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation in degraded mode: %v %v", resp.StatusCode, err)
	}
	// A refused withdraw is a refused mutation (503), not a missing app;
	// an unknown name is still 404.
	for name, want := range map[string]int{"ok": http.StatusServiceUnavailable, "nosuch": http.StatusNotFound} {
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/apps/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("DELETE %s in degraded mode: %d, want %d", name, resp.StatusCode, want)
		}
	}
}

// A healthy journaled daemon is ready.
func TestReadyz(t *testing.T) {
	fs := journal.NewMemFS()
	d, err := NewDaemon(journalOnly(Config{Cores: 8, Accel: 1, Period: time.Hour}, fs))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz: %v %v", resp.StatusCode, err)
	}
}

// BeatTimeout evicts advisory apps that stopped beating — tiles and
// cores released, the eviction counted and journaled, so a restore
// reproduces the post-eviction fleet.
func TestBeatTimeoutEvictsStale(t *testing.T) {
	base := Config{Cores: 16, Accel: 1, Period: time.Hour, BeatTimeout: 5 * time.Second}
	fs := journal.NewMemFS()
	d, err := NewDaemon(journalOnly(base, fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("ev-%d", i), MinRate: 10}); err != nil {
			t.Fatal(err)
		}
	}
	// ev-0 keeps beating; ev-1 and ev-2 go silent.
	for tick := 0; tick < 7; tick++ {
		if err := d.Beat("ev-0", 2, 0); err != nil {
			t.Fatal(err)
		}
		d.Tick()
	}
	if got := d.Evicted(); got != 2 {
		t.Fatalf("evicted %d apps, want 2", got)
	}
	if _, err := d.Status("ev-1"); err == nil {
		t.Fatal("stale app still enrolled")
	}
	if st := d.Stats(); st.Apps != 1 || st.Evicted != 2 {
		t.Fatalf("stats after eviction: apps %d evicted %d", st.Apps, st.Evicted)
	}
	// The survivor owns the whole pool again.
	st, err := d.Status("ev-0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Cores.Units != base.Cores {
		t.Fatalf("survivor holds %d cores, want the full pool of %d", st.Cores.Units, base.Cores)
	}

	// Evictions are journaled: the restored fleet is the post-eviction
	// one, counter included.
	if err := d.jd.w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewDaemon(journalOnly(base, fs.Crash(0)))
	if err != nil {
		t.Fatal(err)
	}
	if rs := r.Stats(); rs.Apps != 1 || rs.Evicted != 2 {
		t.Fatalf("restored stats: apps %d evicted %d", rs.Apps, rs.Evicted)
	}
}

// Close drains: final snapshot, journal closed, and the next boot
// restores from the compacted snapshot with an empty replay tail.
func TestCloseCompactsIntoFinalSnapshot(t *testing.T) {
	base := Config{Cores: 16, Accel: 1, Period: time.Hour}
	fs := journal.NewMemFS()
	cfg := journalOnly(base, fs)
	cfg.SnapshotEvery = time.Hour // periodic never fires; Close still compacts
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const apps = 4
	for i := 0; i < apps; i++ {
		if err := d.Enroll(EnrollRequest{Name: fmt.Sprintf("cl-%d", i), MinRate: 10}); err != nil {
			t.Fatal(err)
		}
		if err := d.Beat(fmt.Sprintf("cl-%d", i), 5, 0); err != nil {
			t.Fatal(err)
		}
	}
	d.Tick()
	ticks := d.Stats().Ticks
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ri := r.RecoveryInfo()
	if ri.SnapshotSeq == 0 {
		t.Fatal("close did not install a final snapshot")
	}
	if ri.ReplayedRecords != 0 {
		t.Fatalf("%d records left outside the final snapshot", ri.ReplayedRecords)
	}
	if ri.Apps != apps {
		t.Fatalf("restored %d apps, want %d", ri.Apps, apps)
	}
	if got := r.Stats().Ticks; got != ticks {
		t.Fatalf("restored %d ticks, want %d", got, ticks)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}
