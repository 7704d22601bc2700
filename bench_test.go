// Top-level benchmarks: one per table/figure of the paper's evaluation,
// plus ablations for the design choices ARCHITECTURE.md describes. Each
// bench regenerates its artifact end to end, so `go test -bench .
// -benchmem` doubles as a reproduction of every figure; the full-size
// per-figure data is what cmd/figures prints.
package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/cache"
	"angstrom/internal/core"
	"angstrom/internal/experiment"
	"angstrom/internal/heartbeat"
	"angstrom/internal/journal"
	"angstrom/internal/noc"
	"angstrom/internal/scenario"
	"angstrom/internal/server"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
	"angstrom/internal/xeon"
)

// BenchmarkFigure2 regenerates Figure 2: the barnes cores × cache sweep
// on the trace-driven simulator, with Pareto frontier and closed-system
// choices.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig2(experiment.Fig2Options{Accesses: 30000})
		if err != nil {
			b.Fatal(err)
		}
		cacheOff, coreOff := res.OffFrontier()
		if len(cacheOff) == 0 && len(coreOff) == 0 {
			b.Fatal("closed systems landed on the frontier")
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3: five benchmarks × five systems
// on the Linux/x86 server model (shortened runs; cmd/figures runs the
// full length).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig3(experiment.Fig3Options{DurationS: 30, WarmupS: 10})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 5 {
			b.Fatal("missing benchmarks")
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: the 256-core Angstrom sweep and
// projection (and the §5.3 in-text numbers).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunFig4(experiment.Fig4Options{Multiplier: 1.15})
		if err != nil {
			b.Fatal(err)
		}
		if res.NoAdaptCfg.Cores != 64 {
			b.Fatalf("non-adaptive config drifted to %d cores", res.NoAdaptCfg.Cores)
		}
	}
}

// BenchmarkSEECLoop measures one observe-decide iteration of the SEEC
// runtime — the recurring cost the partner cores exist to absorb (§4.3).
func BenchmarkSEECLoop(b *testing.B) {
	clock := sim.NewClock(0)
	p := xeon.DefaultParams()
	srv, err := xeon.NewServer(p, xeon.Config{Cores: 1, PState: 0, Duty: 10}, clock)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.ByName("barnes")
	if err != nil {
		b.Fatal(err)
	}
	mon := heartbeat.New(clock, heartbeat.WithEnergyMeter(srv.Meter))
	srv.Attach(workload.NewInstance(spec, 1), mon)
	mon.SetPerformanceGoal(1000, 1100)
	acts, err := srv.Actuators()
	if err != nil {
		b.Fatal(err)
	}
	space, err := actuator.NewSpace(acts...)
	if err != nil {
		b.Fatal(err)
	}
	rt, err := core.New("bench", clock, mon, space, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.RunInterval(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeStepFleet measures one runtime Step two ways: "fleet"
// steps 10,000 runtimes of one advisory class round-robin, one decision
// period per round, as the daemon's decide phase and a cold boot's
// replayed ticks do, so every Step meets its runtime's state cold in
// cache; "hot" steps one runtime in a loop, as core.runtime.step_us
// does. The gap between them is what the layout of a runtime's
// controller state costs. A profiling aid, not a gate.
func BenchmarkRuntimeStepFleet(b *testing.B) {
	spec, err := workload.ByName("barnes")
	if err != nil {
		b.Fatal(err)
	}
	threads := []int{1, 2, 4, 8, 16}
	tl, ts, tp := make([]string, len(threads)), make([]float64, len(threads)), make([]float64, len(threads))
	for i, t := range threads {
		tl[i], ts[i], tp[i] = fmt.Sprintf("%d threads", t), spec.ParallelSpeedup(t), float64(t)
	}
	ta, err := actuator.NewLadder("threads", tl, ts, tp)
	if err != nil {
		b.Fatal(err)
	}
	fa, err := actuator.NewLadder("dvfs", []string{"0.6x", "0.8x", "1.0x", "1.2x"},
		[]float64{0.6, 0.8, 1, 1.2}, []float64{0.216, 0.512, 1, 1.728})
	if err != nil {
		b.Fatal(err)
	}
	space, err := actuator.NewSpace(ta, fa)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := core.NewClass(space)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, n int) {
		clock := sim.NewClock(1)
		mons := make([]*heartbeat.Monitor, n)
		rts := make([]*core.Runtime, n)
		for i := range rts {
			mons[i] = heartbeat.New(clock)
			mons[i].SetPerformanceGoal(50, 70)
			var err error
			if rts[i], err = cl.New(fmt.Sprint(i), clock, mons[i], core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		step := func(i int) {
			k := i % n
			if k == 0 {
				clock.Advance(0.1)
			}
			mons[k].BeatBatchSpreadAt(clock.Now(), 4+(i/n+k)%5, 0)
			if _, err := rts[k].Step(); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 2*n; i++ { // two decisions each before timing
			step(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
	}
	b.Run("fleet", func(b *testing.B) { run(b, 10000) })
	b.Run("hot", func(b *testing.B) { run(b, 1) })
}

// BenchmarkUncoordinated is ablation A1: the per-knob multi-runtime
// baseline's decision cost (it runs one full runtime per actuator).
func BenchmarkUncoordinated(b *testing.B) {
	clock := sim.NewClock(0)
	p := xeon.DefaultParams()
	srv, err := xeon.NewServer(p, xeon.Config{Cores: 1, PState: 0, Duty: 10}, clock)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.ByName("water")
	if err != nil {
		b.Fatal(err)
	}
	mon := heartbeat.New(clock, heartbeat.WithEnergyMeter(srv.Meter))
	srv.Attach(workload.NewInstance(spec, 1), mon)
	mon.SetPerformanceGoal(1000, 1100)
	acts, err := srv.Actuators()
	if err != nil {
		b.Fatal(err)
	}
	space, err := actuator.NewSpace(acts...)
	if err != nil {
		b.Fatal(err)
	}
	u, err := core.NewUncoordinated("bench", clock, mon, space, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := srv.RunInterval(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := u.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartnerCore is ablation A2: decision workload on the partner
// core vs the main core (§4.3's 10%-power claim).
func BenchmarkPartnerCore(b *testing.B) {
	var cf angstrom.CounterFile
	q, err := angstrom.NewEventQueue(16)
	if err != nil {
		b.Fatal(err)
	}
	pc, err := angstrom.NewPartnerCore(angstrom.VFPoints()[1], angstrom.DefaultCoreEnergy(), &cf, q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("partner", func(b *testing.B) {
		j := 0.0
		for i := 0; i < b.N; i++ {
			j += pc.RunDecision(50_000).Joules
		}
		_ = j
	})
	b.Run("main", func(b *testing.B) {
		j := 0.0
		for i := 0; i < b.N; i++ {
			j += pc.RunDecisionOnMain(50_000).Joules
		}
		_ = j
	})
}

// BenchmarkNoCAdaptations is ablation A3: mesh latency evaluation with
// each §4.2.2 feature toggled.
func BenchmarkNoCAdaptations(b *testing.B) {
	run := func(b *testing.B, evc, ban, aor bool) {
		cfg := noc.DefaultConfig(16, 16)
		cfg.EVC, cfg.BAN = evc, ban
		m, err := noc.NewMesh(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i := 1; i < 15; i++ {
			if err := m.SetFlow(i, 255-i, 0.1); err != nil {
				b.Fatal(err)
			}
		}
		if aor {
			m.OptimizeAOR()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.AvgFlowLatency() <= 0 {
				b.Fatal("no latency")
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, false, false, false) })
	b.Run("evc", func(b *testing.B) { run(b, true, false, false) })
	b.Run("evc+ban", func(b *testing.B) { run(b, true, true, false) })
	b.Run("evc+ban+aor", func(b *testing.B) { run(b, true, true, true) })
}

// BenchmarkCoherenceProtocols is ablation A4: per-access cost of the
// three coherence protocols on a mixed sharing pattern.
func BenchmarkCoherenceProtocols(b *testing.B) {
	const tiles = 16
	newCaches := func() []*cache.Cache {
		out := make([]*cache.Cache, tiles)
		for i := range out {
			c, err := cache.New(64, 8, 64)
			if err != nil {
				b.Fatal(err)
			}
			out[i] = c
		}
		return out
	}
	nm, err := noc.NewMesh(noc.DefaultConfig(4, 4))
	if err != nil {
		b.Fatal(err)
	}
	adapter := meshAdapter{nm}
	run := func(b *testing.B, p cache.Protocol) {
		rng := sim.NewRNG(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core := rng.Intn(tiles)
			var line uint64
			if i%2 == 0 {
				line = uint64(rng.Intn(4096)) // shared
			} else {
				line = uint64(core*100000 + rng.Intn(256)) // private
			}
			p.Access(core, line, rng.Float64() < 0.3)
		}
	}
	dir, err := cache.NewDirectory(newCaches(), adapter, 2, 100)
	if err != nil {
		b.Fatal(err)
	}
	nuca, err := cache.NewNUCA(newCaches(), adapter, 2, 100)
	if err != nil {
		b.Fatal(err)
	}
	arcc, err := cache.NewAdaptive(dir, nuca, 4096, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("directory", func(b *testing.B) { run(b, dir) })
	b.Run("nuca", func(b *testing.B) { run(b, nuca) })
	b.Run("arcc", func(b *testing.B) { run(b, arcc) })
}

// BenchmarkDetailedAccess measures one warmed coherence-protocol access
// over the real mesh — the innermost operation of the trace-driven
// sweep (EvaluateDetailed performs exactly one per trace element). The
// sharded open-addressing directory, uint64 sharer bitsets, and the
// mesh's memoized per-pair latency table make the steady state
// allocation-free, which internal/cache's
// TestDetailedAccessAllocatesNothing enforces.
func BenchmarkDetailedAccess(b *testing.B) {
	const tiles = 16
	newCaches := func() []*cache.Cache {
		out := make([]*cache.Cache, tiles)
		for i := range out {
			c, err := cache.New(64, 8, 64)
			if err != nil {
				b.Fatal(err)
			}
			out[i] = c
		}
		return out
	}
	run := func(b *testing.B, p cache.Protocol) {
		rng := sim.NewRNG(3)
		access := func(i int) {
			core := rng.Intn(tiles)
			var line uint64
			if i%2 == 0 {
				line = uint64(rng.Intn(4096)) // shared
			} else {
				line = uint64(core*100000 + rng.Intn(256)) // private
			}
			p.Access(core, line, rng.Float64() < 0.3)
		}
		// Warm until the directory table and latency memos stop growing.
		for i := 0; i < 200000; i++ {
			access(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			access(i)
		}
	}
	b.Run("directory", func(b *testing.B) {
		nm, err := noc.NewMesh(noc.DefaultConfig(4, 4))
		if err != nil {
			b.Fatal(err)
		}
		dir, err := cache.NewDirectory(newCaches(), meshAdapter{nm}, 2, 100)
		if err != nil {
			b.Fatal(err)
		}
		run(b, dir)
	})
	b.Run("nuca", func(b *testing.B) {
		nm, err := noc.NewMesh(noc.DefaultConfig(4, 4))
		if err != nil {
			b.Fatal(err)
		}
		nuca, err := cache.NewNUCA(newCaches(), meshAdapter{nm}, 2, 100)
		if err != nil {
			b.Fatal(err)
		}
		run(b, nuca)
	})
}

// meshAdapter bridges noc.Mesh to cache.Network for the benches.
type meshAdapter struct{ m *noc.Mesh }

func (a meshAdapter) LatencyCycles(src, dst int) float64 { return a.m.LatencyCycles(src, dst) }
func (a meshAdapter) Hops(src, dst int) int              { return a.m.Hops(src, dst) }

// BenchmarkChipEvaluate measures the interval chip model — the inner
// loop of every Figure-4 sweep. internal/angstrom's
// TestEvaluateAllocatesNothing holds it allocation-free.
func BenchmarkChipEvaluate(b *testing.B) {
	p := angstrom.DefaultParams()
	spec, err := workload.ByName("ocean")
	if err != nil {
		b.Fatal(err)
	}
	cfg := angstrom.Config{Cores: 256, CacheKB: 64, VF: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := angstrom.Evaluate(p, spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChipEvaluateDetailed measures the trace-driven mode — the
// inner loop of Figure 2.
func BenchmarkChipEvaluateDetailed(b *testing.B) {
	p := angstrom.DefaultParams()
	spec, err := workload.ByName("barnes")
	if err != nil {
		b.Fatal(err)
	}
	cfg := angstrom.Config{Cores: 16, CacheKB: 64, VF: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := angstrom.EvaluateDetailed(p, spec, cfg, 20000, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving daemon benchmarks (PR 2) -------------------------------
//
// The daemon's two hot paths: beat ingestion (per-request) and the ODA
// tick (per decision period, scanning every enrolled application).

// newBenchDaemon builds an accelerated daemon with n enrolled apps.
func newBenchDaemon(b *testing.B, n int) *server.Daemon {
	b.Helper()
	d, err := server.NewDaemon(server.Config{Cores: 4096, Accel: 0.1, Period: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < n; i++ {
		err := d.Enroll(server.EnrollRequest{
			Name:     fmt.Sprintf("app-%04d", i),
			Workload: names[i%len(names)],
			MinRate:  50,
			MaxRate:  70,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkDaemonBeat measures direct beat ingestion — directory lookup
// plus the O(1) monitor ring insert — under full parallel contention.
// internal/server's TestDaemonBeatAllocatesNothing holds it
// allocation-free.
func BenchmarkDaemonBeat(b *testing.B) {
	d := newBenchDaemon(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("app-%04d", next.Add(1)%64)
		for pb.Next() {
			if err := d.Beat(name, 1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// discardFS is a journal filesystem whose files keep nothing, so a
// durable-ingest benchmark does not time (or run out of memory on) an
// in-memory file that grows with b.N.
type discardFS struct{ journal.FS }

func (discardFS) Create(string) (journal.File, error) { return discardFile{}, nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// BenchmarkBeatIngestDurable is BenchmarkDaemonBeat's durable twin,
// held allocation-free by internal/server's
// TestBeatIngestDurableAllocatesNothing: Daemon.Beat with the
// journal on encodes one binary record into a recycled buffer and
// appends it to the group-commit buffer (the interval flusher drains it
// in the background) — no json.Marshal, no allocation per batch.
func BenchmarkBeatIngestDurable(b *testing.B) {
	d, err := server.NewDaemon(server.Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour,
		DataDir: "j", FS: discardFS{journal.NewMemFS()}, SnapshotEvery: -1, JournalFlush: 5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("app-%04d", i)
		if err := d.Enroll(server.EnrollRequest{Name: names[i], Mode: server.ModeAdvisory, MinRate: 50, MaxRate: 70}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 1<<16; i++ { // warm the append and scratch buffers
		if err := d.Beat(names[i%len(names)], 10, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Beat(names[i%len(names)], 10, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if dropped := d.Stats().Journal.DroppedRecords; dropped != 0 {
		b.Fatalf("journal dropped %d records", dropped)
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDaemonHTTPBeats measures the full request path of the
// daemon's hottest endpoint: JSON decode, directory lookup, a 10-beat
// batch, JSON-free 202.
func BenchmarkDaemonHTTPBeats(b *testing.B) {
	d := newBenchDaemon(b, 8)
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	body := []byte(`{"count": 10}`)
	url := ts.URL + "/v1/apps/app-0000/beats"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkBeatIngestWire measures the binary beat wire path end to
// end over a real TCP connection: 100-beat frames streamed unack'd,
// decoded by the server into the monitor ring through the same ingest
// helpers as the JSON path. Its acceptance bar was ≥5x
// BenchmarkDaemonHTTPBeats' beats/s. Both sides of the warm path run on
// reused buffers: internal/server's TestBeatIngestWireAllocatesNothing
// holds every frame allocation-free.
func BenchmarkBeatIngestWire(b *testing.B) {
	d := newBenchDaemon(b, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ws := server.NewWireServer(d, ln)
	go ws.Serve()
	defer ws.Close()
	wc, err := server.DialWire(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer wc.Close()
	h, err := wc.Hello("app-0000")
	if err != nil {
		b.Fatal(err)
	}
	const batch = 100
	// Warm the reusable buffers on both ends before the timed region.
	if err := wc.Beats(h, batch, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := wc.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wc.Beats(h, batch, 0); err != nil {
			b.Fatal(err)
		}
	}
	// The flush barrier inside the timed region makes the metric honest:
	// every streamed beat has been decoded and counted by the server.
	total, err := wc.Flush()
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if want := uint64(batch) * uint64(b.N+1); total != want {
		b.Fatalf("flush ack %d, want %d", total, want)
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "beats/s")
}

// BenchmarkBeatIngestWireParallel is the multi-core variant: one
// connection and one target app per worker, so ingestion throughput
// must scale with cores — distinct apps land on distinct monitor locks.
func BenchmarkBeatIngestWireParallel(b *testing.B) {
	d := newBenchDaemon(b, 64)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	ws := server.NewWireServer(d, ln)
	go ws.Serve()
	defer ws.Close()
	nw := runtime.GOMAXPROCS(0)
	clients := make([]*server.WireClient, nw)
	handles := make([]uint32, nw)
	for i := range clients {
		wc, err := server.DialWire(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		defer wc.Close()
		h, err := wc.Hello(fmt.Sprintf("app-%04d", i%64))
		if err != nil {
			b.Fatal(err)
		}
		if err := wc.Beats(h, 100, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := wc.Flush(); err != nil {
			b.Fatal(err)
		}
		clients[i], handles[i] = wc, h
	}
	const batch = 100
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)-1) % nw
		wc, h := clients[i], handles[i]
		for pb.Next() {
			if err := wc.Beats(h, batch, 0); err != nil {
				b.Error(err)
				return
			}
		}
		if _, err := wc.Flush(); err != nil {
			b.Error(err)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "beats/s")
}

// BenchmarkDaemonTick1000 measures one ODA decision period over 1000
// enrolled applications: manager water-filling plus 1000 SEEC runtime
// steps.
func BenchmarkDaemonTick1000(b *testing.B) {
	d := newBenchDaemon(b, 1000)
	for i := 0; i < 1000; i++ {
		if err := d.Beat(fmt.Sprintf("app-%04d", i), 8, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick()
	}
}

// BenchmarkDaemonTick10k measures fleet-scale serving (the sharded
// directory): one decision period over 10,000 enrolled applications on an
// oversubscribed 4096-core pool. The pre-shard daemon (single mutex
// directory, full O(n·cores) re-price and re-sort every tick) took
// ~28.3ms here; the acceptance bar was ≥5x faster. The incremental
// manager re-prices only apps whose demand inputs moved, the decide
// phase skips quiescent apps, and the sharded directory keeps beat
// ingestion off every lock the tick takes.
func BenchmarkDaemonTick10k(b *testing.B) {
	d, err := server.NewDaemon(server.Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < 10000; i++ {
		err := d.Enroll(server.EnrollRequest{
			Name:     fmt.Sprintf("app-%05d", i),
			Workload: names[i%len(names)],
			MinRate:  50,
			MaxRate:  70,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		if err := d.Beat(fmt.Sprintf("app-%05d", i), 8, 0); err != nil {
			b.Fatal(err)
		}
	}
	d.Tick() // warm: first decisions for the whole fleet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick()
	}
}

// BenchmarkDaemonTick10kActive is the companion worst case: every app
// beats every period, so nothing is quiescent and every demand is
// re-priced — the bound the incremental machinery cannot skip past.
func BenchmarkDaemonTick10kActive(b *testing.B) {
	d, err := server.NewDaemon(server.Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < 10000; i++ {
		err := d.Enroll(server.EnrollRequest{
			Name:     fmt.Sprintf("app-%05d", i),
			Workload: names[i%len(names)],
			MinRate:  50,
			MaxRate:  70,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	d.Tick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := 0; j < 10000; j++ {
			if err := d.Beat(fmt.Sprintf("app-%05d", j), 6, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		d.Tick()
	}
}

// BenchmarkDaemonTick10kJournaled measures durable serving: the same
// 10k-app decision period with the journal enabled. The tick path only
// buffers its epoch record (no I/O, no fsync — the background flusher
// owns durability), so journaling must cost the tick nearly nothing
// next to BenchmarkDaemonTick10k.
func BenchmarkDaemonTick10kJournaled(b *testing.B) {
	d, err := server.NewDaemon(server.Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
		DataDir: "j", FS: journal.NewMemFS(), SnapshotEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < 10000; i++ {
		err := d.Enroll(server.EnrollRequest{
			Name:     fmt.Sprintf("app-%05d", i),
			Workload: names[i%len(names)],
			MinRate:  50,
			MaxRate:  70,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 10000; i++ {
		if err := d.Beat(fmt.Sprintf("app-%05d", i), 8, 0); err != nil {
			b.Fatal(err)
		}
	}
	d.Tick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick()
	}
	b.StopTimer()
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJournalAppend measures the journal's hot-path entry:
// appending one framed record is pure buffering — no I/O, no fsync, no
// allocation once the buffers are warm (internal/journal's
// TestAppendAllocatesNothing) — so beats and tick records can journal
// from the serving path without touching the disk.
func BenchmarkJournalAppend(b *testing.B) {
	w, err := journal.NewWriter(journal.NewMemFS(), "j", 0, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte(`{"op":"beat","t":123.456,"name":"app-01234","count":8}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			b.StopTimer() // drain so the buffer doesn't grow with b.N
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkRecovery10k measures cold boot from a durable control plane:
// recover the journal and replay 10,000 enrollments back into the
// sharded directory and the manager.
func BenchmarkRecovery10k(b *testing.B) {
	fs := journal.NewMemFS()
	cfg := server.Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
		DataDir: "j", FS: fs, SnapshotEvery: -1, JournalFlush: -1,
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < 10000; i++ {
		err := d.Enroll(server.EnrollRequest{
			Name:     fmt.Sprintf("app-%05d", i),
			Workload: names[i%len(names)],
			MinRate:  50,
			MaxRate:  70,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boot := cfg
		boot.FS = fs.Crash(0)
		r, err := server.NewDaemon(boot)
		if err != nil {
			b.Fatal(err)
		}
		if r.RecoveryInfo().Apps != 10000 {
			b.Fatal("fleet not fully restored")
		}
	}
}

// BenchmarkRecovery10kTail measures the default recovery mode, the one
// production boots in: a 10,000-app snapshot plus a tail of ten serving
// rounds (every app beats, one tick — over 100,000 binary data-plane
// records) replayed through the live mutation paths. BenchmarkRecovery10k
// above is the journal-only, enrollments-only boot.
func BenchmarkRecovery10kTail(b *testing.B) {
	fs := journal.NewMemFS()
	cfg := server.Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
		DataDir: "j", FS: fs, SnapshotEvery: time.Hour, JournalFlush: -1,
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 10000)
	for i := range names {
		names[i] = fmt.Sprintf("app-%05d", i)
		err := d.Enroll(server.EnrollRequest{Name: names[i], Mode: server.ModeAdvisory, MinRate: 50, MaxRate: 70})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		b.Fatal(err)
	}
	const rounds = 10
	for r := 0; r < rounds; r++ {
		for _, name := range names {
			if err := d.Beat(name, 6, 0); err != nil {
				b.Fatal(err)
			}
		}
		d.Tick()
	}
	// A committed control record carries the buffered tail to disk.
	if err := d.SetGoal(names[0], 55, 75); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boot := cfg
		boot.FS = fs.Crash(0)
		r, err := server.NewDaemon(boot)
		if err != nil {
			b.Fatal(err)
		}
		ri := r.RecoveryInfo()
		if ri.Apps != len(names) || ri.SnapshotSeq == 0 || ri.BadRecords != 0 || ri.ReplayedRecords < rounds*len(names) {
			b.Fatalf("not a clean snapshot+tail restore: %+v", ri)
		}
	}
}

// BenchmarkMonitorBeatWindow4096 measures the circular-buffer fix: the
// per-beat cost must not scale with the window (the pre-PR-2 ring
// shifted O(window) records per beat). internal/heartbeat's
// TestBeatAllocatesNothing holds it allocation-free.
func BenchmarkMonitorBeatWindow4096(b *testing.B) {
	clock := sim.NewClock(0)
	mon := heartbeat.New(clock, heartbeat.WithWindow(4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.Advance(1e-6)
		mon.Beat()
	}
}

// BenchmarkMonitorObserveWindow256 measures the observe step every runtime
// pays once per decision period, at the chip fleet's window: a window
// that reports no distortion must not be walked (quiet is O(1), where
// it was 256 record copies), and one that does is summed in place
// (reporting). Both are allocation-free (internal/heartbeat's
// TestObserveAllocatesNothing).
func BenchmarkMonitorObserveWindow256(b *testing.B) {
	for _, c := range []struct {
		name       string
		distortion float64
	}{{"quiet", 0}, {"reporting", 0.125}} {
		b.Run(c.name, func(b *testing.B) {
			clock := sim.NewClock(0)
			mon := heartbeat.New(clock, heartbeat.WithWindow(256))
			for i := 0; i < 300; i++ { // past wrap-around
				clock.Advance(1e-3)
				mon.BeatWithAccuracy(c.distortion)
			}
			var obs heartbeat.Observation
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obs = mon.Observe()
			}
			if obs.Distortion != c.distortion {
				b.Fatalf("mean distortion %g, want %g", obs.Distortion, c.distortion)
			}
		})
	}
}

// --- Chip-backed serving benchmarks (PR 3) --------------------------
//
// The chip-backed daemon's hot paths: the per-app Sensor read
// (allocation-free — it sits on every status request and every budget
// rebalance) and the full chip-backed ODA tick, which executes every
// partition's schedule, emits its heartbeats, water-fills the pool, and
// steps every decision engine.

// newChipBenchDaemon builds an accelerated chip-backed daemon with n
// enrolled apps holding partitions of one shared chip.
func newChipBenchDaemon(b *testing.B, n, tiles int) *server.Daemon {
	b.Helper()
	d, err := server.NewDaemon(server.Config{
		Cores: tiles, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
		Chip: &server.ChipConfig{Tiles: tiles},
	})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < n; i++ {
		err := d.Enroll(server.EnrollRequest{
			Name:     fmt.Sprintf("app-%04d", i),
			Workload: names[i%len(names)],
			Window:   256,
			MinRate:  20,
			MaxRate:  30,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkPartitionSense measures the per-app observe path of
// chip-backed serving: one Sensor sample off the shared chip, held
// allocation-free by internal/angstrom's TestSenseZeroAlloc.
func BenchmarkPartitionSense(b *testing.B) {
	sc, err := angstrom.NewSharedChip(angstrom.DefaultParams(), 64)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := workload.ByName("barnes")
	if err != nil {
		b.Fatal(err)
	}
	mon := heartbeat.New(sim.NewClock(0))
	pt, err := sc.Acquire("bench", workload.NewInstance(spec, 1), mon,
		angstrom.Config{Cores: 4, CacheKB: 64, VF: 0}, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	var ips float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ips += pt.Sense().IPS
	}
	_ = ips
}

// BenchmarkDaemonChipTick256 measures one chip-backed decision period
// over 256 partitions of a 1024-tile chip: schedule execution + beat
// emission + water-filling + 256 runtime steps.
func BenchmarkDaemonChipTick256(b *testing.B) {
	d := newChipBenchDaemon(b, 256, 1024)
	d.Tick() // warm: first decisions, initial knob moves
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick()
	}
}

// BenchmarkDaemonChipTickOversub measures the oversubscribed variant:
// 128 partitions time-sharing a 32-tile chip, so every tick also
// rebalances fractional shares through the ledger.
func BenchmarkDaemonChipTickOversub(b *testing.B) {
	d := newChipBenchDaemon(b, 128, 32)
	d.Tick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick()
	}
}

// newFederatedBenchDaemon builds an accelerated four-die fleet with n
// chip-backed apps spread across it by the interference-aware placer.
func newFederatedBenchDaemon(b *testing.B, n int) *server.Daemon {
	b.Helper()
	d, err := server.NewDaemon(server.Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
		Chip: &server.ChipConfig{Chips: 4, Tiles: 1024},
	})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < n; i++ {
		err := d.Enroll(server.EnrollRequest{
			Name:     fmt.Sprintf("app-%05d", i),
			Workload: names[i%len(names)],
			Window:   256,
			MinRate:  20,
			MaxRate:  30,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkDaemonTickFederated measures fleet-scale federated serving: one
// decision period over 10,000 chip-backed applications placed across a
// four-die fleet (2,500 partitions per 1,024-tile die, oversubscribed).
// Each tick runs every die's contention pass, executes every
// partition's schedule, splits the core budget through the broker's
// per-die managers, and runs the migration scan — the whole multi-chip
// tick pipeline, so a regression here means federation made serving
// itself slower.
func BenchmarkDaemonTickFederated(b *testing.B) {
	d := newFederatedBenchDaemon(b, 10000)
	d.Tick() // warm: first decisions for the whole fleet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Tick()
	}
}

// BenchmarkPlacement measures the interference-aware enroll path on a
// populated four-die fleet: one Enroll — the placer pricing the
// candidate's predicted mem/NoC contribution against every die's
// ledger, then partition acquire and manager add on the winner — plus
// the Withdraw that undoes it, with 2,000 standing tenants supplying
// the contention aggregates the placer ranks.
func BenchmarkPlacement(b *testing.B) {
	d := newFederatedBenchDaemon(b, 2000)
	d.Tick() // contention pass: the placer prices measured aggregates
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Enroll(server.EnrollRequest{
			Name: "probe", Workload: "ocean", Window: 256, MinRate: 20, MaxRate: 30,
		}); err != nil {
			b.Fatal(err)
		}
		if err := d.Withdraw("probe"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkAdmit times one admission — Enroll, up to the app being live
// in the directory — into a class another app has already opened, so the
// class tables are built and what is measured is what is new about the
// app: monitor, (partition and knob stack,) runtime, manager entry. The
// daemon is durable on a journal.MemFS, so the enrollment record is
// encoded and committed but no fsync is in the number; the withdraw that
// makes room for the next iteration is not timed.
func benchmarkAdmit(b *testing.B, chip *server.ChipConfig, mode string) {
	d, err := server.NewDaemon(server.Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true, Chip: chip,
		DataDir: "j", FS: journal.NewMemFS(), SnapshotEvery: -1, JournalFlush: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	req := server.EnrollRequest{Name: "resident", Workload: "ocean", Window: 256, Mode: mode, MinRate: 20, MaxRate: 30}
	if err := d.Enroll(req); err != nil {
		b.Fatal(err)
	}
	req.Name = "probe"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Enroll(req); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := d.Withdraw("probe"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkAdmitChip measures a chip-backed admission into a warm class.
func BenchmarkAdmitChip(b *testing.B) {
	benchmarkAdmit(b, &server.ChipConfig{Tiles: 1024}, server.ModeChip)
}

// BenchmarkAdmitAdvisory measures an advisory admission into a warm class.
func BenchmarkAdmitAdvisory(b *testing.B) { benchmarkAdmit(b, nil, server.ModeAdvisory) }

// BenchmarkEnrollChipOversub5k measures enrollment into a *full* die: 5,000
// tenants on four 512-tile dies, the probes pinned to die 0, which the
// placer has crowded with some 3,500 of them and which has no tile free,
// so every enrollment has to shrink every incumbent of the die to fit
// (makeRoom's oversubscribed path). One op is an enroll and its withdraw.
// An enroll-withdraw pair on its own would miss the case — the withdraw
// frees exactly the slot the next enroll asks for, and nothing shrinks —
// so probes arrive in bursts of 64, each finding the die as full as the
// last left it, and an untimed tick after each burst's withdrawals lets
// the arbiter grow the incumbents back over what was freed.
func BenchmarkEnrollChipOversub5k(b *testing.B) {
	const tenants, tiles, burst = 5000, 512, 64
	d, err := server.NewDaemon(server.Config{
		Cores: 4 * tiles, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
		Chip: &server.ChipConfig{Chips: 4, Tiles: tiles},
	})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	request := func(name string, i int) server.EnrollRequest {
		return server.EnrollRequest{Name: name, Workload: names[i%len(names)], Window: 256, MinRate: 20, MaxRate: 30}
	}
	for i := 0; i < tenants; i++ {
		if err := d.Enroll(request(fmt.Sprintf("app-%05d", i), i)); err != nil {
			b.Fatal(err)
		}
	}
	die0 := 0
	probes := make([]server.EnrollRequest, burst)
	for i := range probes {
		probes[i] = request(fmt.Sprintf("probe-%02d", i), i)
		probes[i].Chip = &die0
	}
	refill := func() {
		d.Tick()
		if cs := d.ChipStatuses()[0]; float64(cs.Tiles)-cs.CoreEquivalents >= 1 {
			b.Fatalf("die 0 holds %.2f of %d tiles after the tick: not full", cs.CoreEquivalents, cs.Tiles)
		}
	}
	d.Tick() // first decisions: every share restarts from the arbiter's opening grant
	d.Tick()
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += burst {
		n := min(burst, b.N-done)
		for _, req := range probes[:n] {
			if err := d.Enroll(req); err != nil {
				b.Fatal(err)
			}
		}
		for _, req := range probes[:n] {
			if err := d.Withdraw(req.Name); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		refill()
		b.StartTimer()
	}
}

// BenchmarkScenarioFlashCrowd drives the builtin flash-crowd torture
// scenario (internal/scenario) end to end against a real daemon: a
// steady fleet, a 10x arrival burst in one tick, exponential decay, a
// mass withdrawal, and oracle-regret scoring of every tick. A slowdown
// here means the whole serve-observe-decide loop got slower under
// churn, not just one hot path.
func BenchmarkScenarioFlashCrowd(b *testing.B) {
	spec, err := scenario.ByName("flash-crowd")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := scenario.Run(spec, scenario.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Scorecard.CheckBudgets(spec.Budgets); err != nil {
			b.Fatal(err)
		}
	}
}
