package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/heartbeat"
	"angstrom/internal/journal"
	"angstrom/internal/server"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// Per-layer numbers of the traced pass. windowLayers and spanLayers
// read what the seams and spans recorded during the workload's own
// window; the isolated functions time calls into one layer's exported
// functions, back to back, on fixtures the benchmark builds itself or on
// the workload's fleet once it has stopped serving.

// windowLayers derives the per-layer metrics of the traced window from
// the counters read at its edges.
func (r *run) windowLayers() {
	w, l := &r.window, r.layer
	from, to := &w.from, &w.to
	secs := to.since(from)
	counted := float64(to.beats - from.beats) // beats the daemon counted: clients' and the chips' own
	perBeat := func(bytes int64) float64 {
		if counted == 0 {
			return 0
		}
		return float64(bytes) / counted
	}
	l["trace.beats_per_s"] = r.beatsPerS
	l["trace.req_p50_us"] = r.req.quantile(0.5, time.Microsecond)
	l["trace.tick_p50_ms"] = r.tick.quantile(0.5, time.Millisecond)
	l["trace.recover_p50_s"] = median(r.boots)
	l["server.tick.p90_ms"] = r.tick.quantile(0.9, time.Millisecond)
	l["server.control.commit_p50_us"] = r.commit.quantile(0.5, time.Microsecond)
	var ticking int64
	for _, ns := range r.tick.ns {
		ticking += ns
	}
	l["server.tick.busy_frac"] = float64(ticking) / 1e9 / secs

	syncs := r.fs.syncsBetween(from.fs, to.fs)
	if syncs.len() > 0 {
		l["journal.fs.sync_p50_us"] = syncs.quantile(0.5, time.Microsecond)
		l["journal.fs.sync_p99_us"] = syncs.quantile(0.99, time.Microsecond)
	}
	l["journal.fs.syncs_per_s"] = float64(syncs.len()) / secs
	l["journal.fs.write_mb_per_s"] = float64(to.fs.bytes-from.fs.bytes) / 1e6 / secs
	l["journal.fs.bytes_per_beat"] = perBeat(to.fs.bytes - from.fs.bytes)
	l["journal.fs.busy_frac"] = (to.fs.busy - from.fs.busy).Seconds() / secs
	l["server.wire.bytes_per_beat"] = perBeat(to.wire - from.wire)

	ticks := float64(max(1, w.ticks))
	l["actuator.knob_calls_per_tick"] = float64(to.knob[0]-from.knob[0]) / ticks
	l["actuator.knob_moves_per_tick"] = float64(to.knob[1]-from.knob[1]) / ticks
	l["actuator.knob_refusals_per_tick"] = float64(to.knob[2]-from.knob[2]) / ticks
	l["server.migrations"] = float64(r.fleet.d.Migrations())

	l["runtime.gc_cycles"] = float64(to.mem.NumGC - from.mem.NumGC)
	l["runtime.gc_pause_ms"] = float64(to.mem.PauseTotalNs-from.mem.PauseTotalNs) / 1e6
	l["runtime.alloc_mb_per_s"] = float64(to.mem.TotalAlloc-from.mem.TotalAlloc) / 1e6 / secs
	l["runtime.mallocs_per_s"] = float64(to.mem.Mallocs-from.mem.Mallocs) / secs
	if boot := median(r.boots); boot > 0 {
		l["server.recover.records_per_s"] = float64(r.replayed) / boot
	}
}

// spanLayers adds what only the spans know: a tick's self time is its
// span minus the part the journal's writes and syncs under it cover.
func (r *run) spanLayers(spans []span) {
	r.layer["trace.spans"] = float64(len(spans))
	if t := selfTimes(spans)["server.tick"]; t != nil && t.Count > 0 {
		r.layer["server.tick.self_ms"] = float64(t.SelfNS) / float64(t.Count) / 1e6
	}
}

// --- timing helpers ---------------------------------------------------

// perCall times f called back to back for the scale's budget and
// reports the median, over the scale's repeats, of the time per call.
func (r *run) perCall(f func()) time.Duration {
	start := time.Now()
	f()
	once := max(time.Since(start), time.Nanosecond)
	batch := int(min(max(100*time.Microsecond/once, 1), 1024)) // read the clock at most every ~100 µs
	reps := make([]float64, 0, r.sc.isoRepeats)
	for i := 0; i < r.sc.isoRepeats; i++ {
		calls, began, spent := 0, time.Now(), time.Duration(0)
		for spent < r.sc.isoBudget {
			for j := 0; j < batch; j++ {
				f()
			}
			calls += batch
			spent = time.Since(began)
		}
		reps = append(reps, float64(spent)/float64(calls))
	}
	return time.Duration(median(reps))
}

// perCallAfter is perCall for an f that needs untimed preparation
// before every call.
func (r *run) perCallAfter(prep, f func()) time.Duration {
	reps := make([]float64, 0, r.sc.isoRepeats)
	for i := 0; i < r.sc.isoRepeats; i++ {
		calls, spent := 0, time.Duration(0)
		for spent < r.sc.isoBudget {
			prep()
			start := time.Now()
			f()
			spent += time.Since(start)
			calls++
		}
		reps = append(reps, float64(spent)/float64(calls))
	}
	return time.Duration(median(reps))
}

// mallocs counts the heap allocations of n calls of f, per call (or per
// unit, for a call that serves many), to two decimals. Background
// goroutines (the journal's flusher) allocate too little to show.
func mallocs(n int, units float64, f func()) float64 {
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return math.Round(float64(m1.Mallocs-m0.Mallocs)/float64(n)/units*100) / 100
}

func (r *run) setNS(name string, d time.Duration) { r.layer[name] = float64(d) }
func (r *run) setUS(name string, d time.Duration) { r.layer[name] = float64(d) / 1e3 }
func (r *run) setMS(name string, d time.Duration) { r.layer[name] = float64(d) / 1e6 }

// must turns an unexpected error inside a timed closure into a panic
// the isolated functions recover as an error: a broken call must not be
// reported as a fast one.
func must(err error) {
	if err != nil {
		panic(isoFailure{err})
	}
}

type isoFailure struct{ err error }

func recoverIso(err *error) {
	if p := recover(); p != nil {
		f, ok := p.(isoFailure)
		if !ok {
			panic(p)
		}
		*err = f.err
	}
}

// --- home: wire_durable ----------------------------------------------

// isolated times the binary transport against a volatile daemon, then
// the ingest call under it with and without the journal (the workload's
// own durable daemon, now idle), then the journal append and the
// monitor ring writes below that: durable minus volatile is the
// journal's share of ingest, readable beside the frame costs.
func (w *wireDurable) isolated(r *run) (err error) {
	defer recoverIso(&err)
	vol, err := server.NewDaemon(server.Config{Cores: 4096, Period: period, Oversubscribe: true, Shards: 8})
	if err != nil {
		return err
	}
	defer vol.Stop()
	names := r.fleet.names
	for i, name := range names {
		must(vol.Enroll(server.EnrollRequest{Name: name, Workload: specNames[i%len(specNames)], MinRate: 50, MaxRate: 70}))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ws := server.NewWireServer(vol, ln)
	go func() { _ = ws.Serve() }() // nil after Close
	defer ws.Close()
	c, err := server.DialWire(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	handles := make([]uint32, len(names))
	for i, name := range names {
		if handles[i], err = c.Hello(name); err != nil {
			return err
		}
	}
	frames := 0
	barrier := func() {
		if frames++; frames%wireFlushEvery == 0 {
			_, ferr := c.Flush()
			must(ferr)
		}
	}
	r.setNS("server.wire.count_frame_ns", r.perCall(func() {
		must(c.Beats(handles[frames%len(handles)], wireCountBeats, 0))
		barrier()
	}))
	var clock uint64
	var ns [16]uint64
	r.setNS("server.wire.ts_frame_ns", r.perCall(func() {
		for i := range ns {
			clock += 1e6
			ns[i] = clock
		}
		must(c.BeatsAt(handles[frames%len(handles)], ns[:], 0))
		barrier()
	}))
	r.setUS("server.wire.flush_rtt_us", r.perCall(func() {
		_, ferr := c.Flush()
		must(ferr)
	}))
	hellos := 0
	r.setUS("server.wire.hello_us", r.perCall(func() {
		if hellos++; hellos < 60000 { // a connection's handle table holds 65,536
			_, herr := c.Hello(names[hellos%len(names)])
			must(herr)
		}
	}))

	dur, i := r.fleet.d, 0
	ts := make([]float64, 16)
	for k := range ts {
		ts[k] = float64(k) * 1e-3
	}
	r.setNS("server.ingest.beat_ns", r.perCall(func() { i++; must(vol.Beat(names[i%len(names)], httpBeatCount, 0)) }))
	r.setNS("server.ingest.beat_durable_ns", r.perCall(func() { i++; must(dur.Beat(names[i%len(names)], httpBeatCount, 0)) }))
	r.setNS("server.ingest.beat_ts_durable_ns", r.perCall(func() { i++; must(dur.BeatTimestamps(names[i%len(names)], ts, 0)) }))
	r.layer["server.ingest.beat_durable_allocs"] = mallocs(10000, 1, func() { i++; must(dur.Beat(names[i%len(names)], httpBeatCount, 0)) })

	jw, err := journal.NewWriter(discardFS{journal.NewMemFS()}, "j", 0, journal.Options{})
	if err != nil {
		return err
	}
	payload, appends := []byte(`{"op":"beat","t":123.456,"name":"app-01234","count":10}`), 0
	r.setNS("journal.append_ns", r.perCall(func() {
		_, aerr := jw.Append(payload)
		must(aerr)
		if appends++; appends%4096 == 0 {
			must(jw.Flush()) // drain, so the buffer does not grow with the run
		}
	}))
	must(jw.Close())

	clk := sim.NewClock(1)
	mon := heartbeat.New(clk)
	r.setNS("heartbeat.batch_spread_ns", r.perCall(func() {
		clk.Advance(0.01)
		mon.BeatBatchSpreadAt(clk.Now(), wireCountBeats, 0)
	}))
	r.setNS("heartbeat.batch_shifted_ns", r.perCall(func() {
		clk.Advance(0.02)
		now := clk.Now()
		mon.BeatBatchShiftedAt(ts[:15], now-ts[15], now, 0)
	}))
	return nil
}

// discardFS is a journal filesystem whose files keep nothing, so that
// timing Writer.Append does not time a growing in-memory file.
type discardFS struct{ journal.FS }

func (discardFS) Create(string) (journal.File, error) { return discardFile{}, nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// --- home: http_fleet -------------------------------------------------

// discard is an http.ResponseWriter that keeps nothing: the handler is
// timed without a socket or a recorder's buffer under it.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// rewind is a request body that can be read again.
type rewind struct{ bytes.Reader }

func (*rewind) Close() error { return nil }

// isolated times the JSON handlers with no TCP under them, the
// journal's synchronous commit, the tick of this workload's own fleet
// (quiescent, then with every application beaten before every tick),
// and the manager and runtime steps that tick is made of.
func (w *httpFleet) isolated(r *run) (err error) {
	defer recoverIso(&err)
	d, names := r.fleet.d, r.fleet.names
	handler, rw, i := d.Handler(), &discard{h: make(http.Header)}, 0
	serve := func(method, suffix string, body []byte) func() {
		reqs := make([]*http.Request, 64)
		bodies := make([]*rewind, len(reqs))
		for k := range reqs {
			bodies[k] = &rewind{}
			req, rerr := http.NewRequest(method, "/v1/apps/"+names[k*len(names)/len(reqs)]+suffix, bodies[k])
			must(rerr)
			reqs[k] = req
		}
		return func() {
			i++
			bodies[i%len(reqs)].Reset(body)
			handler.ServeHTTP(rw, reqs[i%len(reqs)])
		}
	}
	beat := serve("POST", "/beats", httpBeatBody)
	r.setUS("server.http.beat_us", r.perCall(beat))
	r.layer["server.http.beat_allocs"] = mallocs(10000, 1, beat)
	r.setUS("server.http.status_us", r.perCall(serve("GET", "", nil)))
	r.setUS("server.http.goal_us", r.perCall(serve("PUT", "/goal", []byte(`{"min_rate":50,"max_rate":70}`))))

	dir := filepath.Join(r.opts.tmpRoot, "iso-journal")
	jw, err := journal.NewWriter(journal.OS(), dir, 0, journal.Options{})
	if err != nil {
		return err
	}
	payload := []byte(`{"op":"goal","t":123.456,"name":"app-01234","min_rate":50,"max_rate":70}`)
	r.setUS("journal.commit_us", r.perCall(func() {
		_, cerr := jw.Commit(payload)
		must(cerr)
	}))
	must(jw.Close())
	must(os.RemoveAll(dir))

	mon, ok := d.Registry().Lookup(names[0])
	if !ok {
		return fmt.Errorf("%s has no monitor", names[0])
	}
	var obs heartbeat.Observation
	r.setNS("heartbeat.observe_ns", r.perCall(func() { obs = mon.Observe() }))
	_ = obs

	d.Tick() // settle: after this nothing has moved and every tick is quiescent
	d.Tick()
	r.setMS("server.tick.idle_ms", r.perCall(d.Tick))
	beatAll := func() {
		for _, name := range names {
			must(d.Beat(name, directBeatCount, 0))
		}
	}
	r.setMS("server.tick.active_ms", r.perCallAfter(beatAll, d.Tick))
	beatAll()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	d.Tick()
	runtime.ReadMemStats(&m1)
	r.layer["server.tick.active_allocs_per_app"] = math.Round(float64(m1.Mallocs-m0.Mallocs)/float64(len(names))*100) / 100

	r.setUS("server.enroll_us", r.perCall(func() {
		must(d.Enroll(server.EnrollRequest{Name: "isolated", Workload: "barnes", MinRate: 50, MaxRate: 70}))
		must(d.Withdraw("isolated"))
	}))
	r.setUS("server.setgoal_us", r.perCall(func() { i++; must(d.SetGoal(probeApp, 50+float64(i%10), 80)) }))

	// The arbitration and decision engines on fleets of their own.
	clk := sim.NewClock(1)
	mgr, mons, err := newManagedFleet(clk, len(names), 4096)
	if err != nil {
		return err
	}
	round := 0
	beatFleet := func() {
		round++
		clk.Advance(0.1)
		for k, m := range mons {
			m.BeatBatchSpreadAt(clk.Now(), 3+(k+round)%5, 0) // every demand moves
		}
	}
	step := func() {
		_, serr := mgr.Step()
		must(serr)
	}
	beatFleet()
	step()
	r.setMS("core.manager.step_ms", r.perCallAfter(beatFleet, step))
	// Idle as the daemon sees it: time passes, nobody beats, no demand moves.
	r.setUS("core.manager.step_idle_us", r.perCallAfter(func() { clk.Advance(0.1) }, step))

	space, err := advisorySpace()
	if err != nil {
		return err
	}
	rmon := heartbeat.New(clk)
	rmon.SetPerformanceGoal(50, 70)
	rt, err := core.New("isolated", clk, rmon, space, core.Options{})
	if err != nil {
		return err
	}
	decide := func() {
		clk.Advance(0.1)
		rmon.BeatBatchSpreadAt(clk.Now(), directBeatCount, 0)
		_, serr := rt.Step()
		must(serr)
	}
	r.setUS("core.runtime.step_us", r.perCall(decide))
	r.layer["core.runtime.step_allocs"] = mallocs(1000, 1, decide)
	return nil
}

// newManagedFleet builds a core.Manager arbitrating n applications with
// goals, the way the daemon enrols them.
func newManagedFleet(clk sim.Nower, n, cores int) (*core.Manager, []*heartbeat.Monitor, error) {
	mgr, err := core.NewManager(clk, cores)
	if err != nil {
		return nil, nil, err
	}
	mgr.SetOversubscription(true)
	mons := make([]*heartbeat.Monitor, n)
	for i := range mons {
		spec, err := workload.ByName(specNames[i%len(specNames)])
		if err != nil {
			return nil, nil, err
		}
		mons[i] = heartbeat.New(clk)
		mons[i].SetPerformanceGoal(50, 70)
		if err := mgr.AddApp(fmt.Sprintf("app-%05d", i), mons[i], spec.CachedSpeedup(cores)); err != nil {
			return nil, nil, err
		}
	}
	return mgr, mons, nil
}

// advisorySpace is an action space of the shape the daemon gives an
// advisory application: a five-rung thread ladder crossed with a
// four-rung clock ladder.
func advisorySpace() (*actuator.Space, error) {
	spec, err := workload.ByName("barnes")
	if err != nil {
		return nil, err
	}
	threads := []int{1, 2, 4, 8, 16}
	tl, ts, tp := make([]string, len(threads)), make([]float64, len(threads)), make([]float64, len(threads))
	for i, t := range threads {
		tl[i], ts[i], tp[i] = fmt.Sprintf("%d threads", t), spec.ParallelSpeedup(t), float64(t)
	}
	ta, err := actuator.NewLadder("threads", tl, ts, tp)
	if err != nil {
		return nil, err
	}
	freqs := []float64{0.6, 0.8, 1.0, 1.2}
	fl, fp := make([]string, len(freqs)), make([]float64, len(freqs))
	for i, f := range freqs {
		fl[i], fp[i] = fmt.Sprintf("%.1fx clock", f), f*f*f
	}
	fa, err := actuator.NewLadder("dvfs", fl, freqs, fp)
	if err != nil {
		return nil, err
	}
	return actuator.NewSpace(ta, fa)
}

// --- home: chip_fleet -------------------------------------------------

// isolated times the federated tick of this workload's own fleet with
// no ticker between ticks, placement on the populated fleet, the broker
// over four managers, and the chip model's per-tick calls on a
// populated die of its own.
func (w *chipFleet) isolated(r *run) (err error) {
	defer recoverIso(&err)
	d, n := r.fleet.d, len(r.fleet.names)
	r.setMS("server.tick.chip_ms", r.perCall(d.Tick))
	r.layer["server.tick.chip_allocs_per_app"] = mallocs(3, float64(n), d.Tick)
	r.setUS("server.enroll_chip_us", r.perCall(func() {
		must(d.Enroll(w.request(0, "isolated")))
		must(d.Withdraw("isolated"))
	}))

	clk := sim.NewClock(1)
	mgrs := make([]*core.Manager, 4)
	for c := range mgrs {
		mgr, mons, ferr := newManagedFleet(clk, n/4, 4096)
		if ferr != nil {
			return ferr
		}
		for k, m := range mons {
			m.BeatBatchSpreadAt(clk.Now(), 3+k%5, 0)
		}
		if _, ferr = mgr.Step(); ferr != nil {
			return ferr
		}
		mgrs[c] = mgr
	}
	broker := core.NewBroker()
	r.setUS("core.broker.split_us", r.perCall(func() { broker.SplitUnits(4096, mgrs) }))

	p := angstrom.DefaultParams()
	tiles := r.sc.chipTiles
	fleet, err := angstrom.NewFleet(p, tiles, 4)
	if err != nil {
		return err
	}
	base := angstrom.Config{Cores: 1, CacheKB: 32, VF: 0}
	perDie := n / 4
	share := math.Min(1, float64(tiles-8)/float64(perDie)) // oversubscribed like the fleet, a few tiles left free
	parts := make([]*angstrom.Partition, 0, perDie)
	for c := 0; c < fleet.Chips(); c++ {
		for k := 0; k < perDie; k++ {
			spec, aerr := workload.ByName(specNames[k%len(specNames)])
			if aerr != nil {
				return aerr
			}
			name := fmt.Sprintf("die%d-%05d", c, k)
			pt, aerr := fleet.Chip(c).Acquire(name, workload.NewInstance(spec, uint64(k)), heartbeat.New(clk, heartbeat.WithWindow(256)), base, share, 0)
			if aerr != nil {
				return aerr
			}
			if c == 0 {
				parts = append(parts, pt)
			}
		}
	}
	die := fleet.Chip(0)
	r.setMS("angstrom.contention_ms", r.perCall(die.UpdateContention))
	k, until := 0, make([]float64, len(parts))
	r.setUS("angstrom.advance_us", r.perCall(func() {
		k++
		i := k % len(parts)
		until[i] += 0.1
		must(parts[i].Advance(until[i]))
	}))
	var ips float64
	r.setNS("angstrom.sense_ns", r.perCall(func() { k++; ips += parts[k%len(parts)].Sense().IPS }))
	_ = ips
	spec, err := workload.ByName("barnes")
	if err != nil {
		return err
	}
	inst, mon := workload.NewInstance(spec, 1), heartbeat.New(clk)
	r.setUS("angstrom.acquire_release_us", r.perCall(func() {
		_, aerr := die.Acquire("isolated", inst, mon, base, 1, 0)
		must(aerr)
		die.Release("isolated")
	}))
	var loads []angstrom.ChipLoad
	r.setUS("angstrom.fleet_loads_us", r.perCall(func() { loads = fleet.Loads(loads[:0]) }))
	return nil
}

// --- home: recover_10k ------------------------------------------------

// isolated splits a cold boot: journal.Recover alone on a copy of the
// crash image (read, frame-check, hand back the records) against the
// whole of server.NewDaemon, whose remainder is the replay through the
// live mutation paths; and counts a boot's allocations.
func (w *recover10k) isolated(r *run) error {
	var reads []float64
	for i := 0; i < max(3, r.sc.isoRepeats); i++ {
		dir := filepath.Join(r.opts.tmpRoot, "iso-recover")
		if err := copyDir(r.image, dir); err != nil {
			return err
		}
		start := time.Now()
		st, err := journal.Recover(journal.OS(), dir)
		reads = append(reads, time.Since(start).Seconds())
		if err != nil {
			return err
		}
		if len(st.Records) != r.replayed {
			r.fault("recover_10k: journal.Recover returned %d records, the boots replayed %d", len(st.Records), r.replayed)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	read := median(reads)
	r.layer["journal.recover_s"] = read
	r.layer["server.recover.replay_s"] = median(r.boots) - read

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b, err := r.coldBoot(r.image, len(r.boots))
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	r.layer["server.recover.allocs"] = float64(m1.Mallocs - m0.Mallocs)
	_ = b.d.Close() // a private copy of the image, deleted next
	return os.RemoveAll(b.dir)
}
