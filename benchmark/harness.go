package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"angstrom/internal/actuator"
	"angstrom/internal/journal"
	"angstrom/internal/server"
	"angstrom/internal/sim"
)

// period is the decision period every workload serves at: the daemon's
// production default.
const period = 100 * time.Millisecond

// probeApp is the application whose goal the tick loop changes between
// ticks to time how long a change takes to reach a decision. It is
// enrolled like any other but receives no load, so nothing else ever
// touches its goal.
const probeApp = "probe"

var specNames = []string{"barnes", "ocean", "raytrace", "water", "volrend"}

// scale sizes a run. full is the benchmark of record; tiny exists so the
// package's smoke test can drive every code path in a few seconds.
type scale struct {
	name       string
	wireApps   int // wire_durable fleet
	advApps    int // http_fleet and recover_10k fleets
	chipApps   int // chip_fleet fleet
	chipTiles  int // tiles per die (4 dies)
	setups     int // set-ups per untraced run; setup_s is their median
	boots      int // cold boots that close a serving workload
	warmTicks  int // chip_fleet: back-to-back ticks before the ticker starts
	warmRounds int // recover_10k: rounds before the snapshot
	tailRounds int // recover_10k: rounds of history the boots replay
	isoBudget  time.Duration
	isoRepeats int
	minFree    uint64 // bytes that must be free under the temp root
}

var scales = map[string]scale{
	"full": {
		name: "full", wireApps: 1000, advApps: 10000, chipApps: 5000, chipTiles: 512,
		setups: 3, boots: 5, warmTicks: 40, warmRounds: 5, tailRounds: 25,
		isoBudget: 100 * time.Millisecond, isoRepeats: 3, minFree: 2 << 30,
	},
	"tiny": {
		name: "tiny", wireApps: 100, advApps: 100, chipApps: 100, chipTiles: 64,
		setups: 2, boots: 2, warmTicks: 5, warmRounds: 2, tailRounds: 3,
		isoBudget: 2 * time.Millisecond, isoRepeats: 1, minFree: 64 << 20,
	},
}

// options selects and parameterises one workload run.
type options struct {
	workload string
	seed     uint64
	seconds  float64 // length of the measured window
	trace    bool
	scale    scale
	tmpRoot  string    // every data directory and crash image lives under it
	traceOut string    // where the traced pass writes its spans
	report   io.Writer // human-readable lines; the JSON result goes to the caller

	// dropAck makes wire_durable's client lose one flush acknowledgement,
	// so the smoke test can prove a violated output check fails the run.
	dropAck bool
}

// scenario is one workload. Every scenario has the same life:
// set up a durable fleet, serve, have its outputs checked, crash, and
// boot cold from what the crash left behind — so every end-to-end
// metric exists on every workload.
type scenario interface {
	// setup builds the daemon, its listeners, the enrolled fleet and the
	// load connections under dir. The run times it.
	setup(r *run, dir string) error
	// serve warms the system up and runs the measured window.
	serve(r *run) error
	// verify checks the daemon's outputs against what the clients sent.
	verify(r *run)
	// tail lays down the history between the snapshot and the crash: a
	// fixed, seed-determined amount of the workload's own traffic.
	tail(r *run) error
	// isolated times calls into the layers this workload is the home of
	// (traced pass only).
	isolated(r *run) error
	// closeLoad drops the load connections.
	closeLoad()
}

func newScenario(name string) (scenario, error) {
	switch name {
	case "wire_durable":
		return &wireDurable{}, nil
	case "http_fleet":
		return &httpFleet{}, nil
	case "chip_fleet":
		return &chipFleet{}, nil
	case "recover_10k":
		return &recover10k{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"wire_durable", "http_fleet", "chip_fleet", "recover_10k"}

// fleet is a daemon with its transports, as cmd/angstromd wires them.
type fleet struct {
	cfg     server.Config
	d       *server.Daemon
	names   []string // enrolled applications other than the probe
	httpLn  net.Listener
	httpSrv *http.Server
	wireSrv *server.WireServer
	served  chan error
}

// run is the state of one workload run.
type run struct {
	opts  options
	sc    scale
	rng   *sim.RNG
	conns int // load goroutines, each with its own connection

	tr    *tracer // nil in the untraced pass
	tb    *spanBuf
	fs    *fsStats
	knobs *knobCounts
	wire  *wireBytes

	fleet *fleet

	setups            []float64
	req, commit       samples // merged from the load connections after the window
	tick, lag         samples
	beatsPerS         float64
	boots             []float64
	peakRSS           float64 // VmHWM in MB when serving ended, before the boots
	attempted, failed int64
	faults            []string // violated output checks
	layer             map[string]float64
	facts             []string // reported beside the metrics (state hash, counts)
	stateHash         string   // chip_fleet: hash of the fleet's state after the window
	image             string   // the crash image's directory
	replayed          int      // journal records each cold boot replayed
	// exactUnits: the tail re-beats every application, so a cold boot must
	// restore each one's core allocation, not only its goal.
	exactUnits bool
	// bootFor keeps the cold boots going past the scale's count until this
	// much time is spent: recover_10k's share of the measured window.
	bootFor time.Duration

	window struct {
		from, to edge
		ticks    int
	}
}

// edge is a reading of the process's and the seams' counters at one end
// of the measured window; the traced pass reports what each layer did
// between the two.
type edge struct {
	at    time.Time
	beats uint64 // the daemon's beat counter
	mem   runtime.MemStats
	fs    fsMark
	knob  [3]int64 // calls, moves, refusals
	wire  int64    // bytes into the wire listener
}

func (r *run) readEdge(e *edge) {
	e.beats = r.fleet.d.Stats().Beats
	runtime.ReadMemStats(&e.mem)
	if r.tr != nil {
		e.fs = r.fs.mark()
		e.knob = [3]int64{r.knobs.calls.Load(), r.knobs.moves.Load(), r.knobs.refusals.Load()}
		e.wire = r.wire.in.Load()
	}
	e.at = time.Now()
}

func (w *edge) since(from *edge) float64 { return w.at.Sub(from.at).Seconds() }

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.opts.report, format+"\n", args...)
}

// fault records a violated output check; the run reports correct=false.
func (r *run) fault(format string, args ...any) {
	if len(r.faults) < 20 {
		r.faults = append(r.faults, fmt.Sprintf(format, args...))
	}
}

// config is the daemon configuration every workload shares: what
// production runs, with the durable journal on the real filesystem.
func (r *run) config(dir string) server.Config {
	cfg := server.Config{
		Cores:         4096,
		Period:        period,
		Oversubscribe: true,
		Shards:        8,
		DataDir:       dir,
		SnapshotEvery: 10 * time.Second,
	}
	if r.tr != nil {
		cfg.FS = timedFS{FS: journal.OS(), st: r.fs}
	}
	return cfg
}

// chipConfig is chip_fleet's four-die federation.
func (r *run) chipConfig() *server.ChipConfig {
	cc := &server.ChipConfig{Chips: 4, Tiles: r.sc.chipTiles}
	if r.tr != nil {
		cc.KnobWrap = func(_ string, k actuator.Knob) actuator.Knob { return countingKnob{Knob: k, c: r.knobs} }
	}
	return cc
}

// start boots a daemon on cfg and opens the requested transports on
// loopback TCP. The benchmark drives Tick itself (see ticker), so the
// daemon's own loop is never started.
func (r *run) start(cfg server.Config, withHTTP, withWire bool) (*fleet, error) {
	d, err := server.NewDaemon(cfg)
	if err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg, d: d}
	if withWire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		if r.tr != nil {
			ln = countingListener{Listener: ln, b: r.wire}
		}
		f.wireSrv = server.NewWireServer(d, ln)
		go func() { _ = f.wireSrv.Serve() }() // nil after Close; a listener error shows up as failed dials
	}
	if withHTTP {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.httpLn = ln
		f.httpSrv = &http.Server{Handler: d.Handler(), ReadHeaderTimeout: 5 * time.Second}
		f.served = make(chan error, 1)
		go func() { f.served <- f.httpSrv.Serve(ln) }()
	}
	return f, nil
}

// close shuts the transports and drains the daemon.
func (f *fleet) close() {
	if f.wireSrv != nil {
		_ = f.wireSrv.Close()
	}
	if f.httpSrv != nil {
		_ = f.httpSrv.Close()
		<-f.served
	}
	_ = f.d.Close() // the data directory is about to be deleted
}

// advisoryRequest enrols application i of an advisory fleet: the five
// workload profiles in turn, all asking for 50–70 beats/s.
func advisoryRequest(i int, name string) server.EnrollRequest {
	return server.EnrollRequest{Name: name, Workload: specNames[i%len(specNames)], MinRate: 50, MaxRate: 70}
}

// checkDecided holds the fleet to "every application has a decision".
func (r *run) checkDecided() {
	undecided := 0
	for _, st := range r.fleet.d.List() {
		if st.Decision == nil {
			undecided++
		}
	}
	if undecided > 0 {
		r.fault("%s: %d applications hold no decision", r.opts.workload, undecided)
	}
}

// enroll registers n applications named app-00000… plus the probe.
func (f *fleet) enroll(n int, req func(i int, name string) server.EnrollRequest) error {
	f.names = make([]string, n)
	for i := range f.names {
		f.names[i] = fmt.Sprintf("app-%05d", i)
		if err := f.d.Enroll(req(i, f.names[i])); err != nil {
			return fmt.Errorf("enroll %s: %w", f.names[i], err)
		}
	}
	if err := f.d.Enroll(req(n, probeApp)); err != nil {
		return fmt.Errorf("enroll %s: %w", probeApp, err)
	}
	return nil
}

// shares deals the fleet's application indices to the load connections
// in an order drawn from the seed: connection c serves out[c], cycling.
func (r *run) shares(n int) [][]int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	rng := r.rng.Split(1)
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	out := make([][]int, r.conns)
	for i, a := range perm {
		out[i%r.conns] = append(out[i%r.conns], a)
	}
	return out
}

// sampleApps picks up to 100 applications the output checks examine.
func (r *run) sampleApps(n int) []int {
	rng := r.rng.Split(2)
	k := min(100, n)
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		if i := rng.Intn(n); !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// --- crash image and cold boots --------------------------------------

// copyDir copies the regular files of src into a fresh dst: the crash
// image. The daemon that owns src is idle and everything it appended is
// synced (see crash), so the copy holds exactly what a kill would leave.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// bootInfo is what one cold boot restored.
type bootInfo struct {
	dir  string
	took time.Duration
	info server.RecoveryInfo
	d    *server.Daemon
}

// coldBoot copies the crash image and times server.NewDaemon on the
// copy until it returns ready. The image's files are in the page cache:
// this times snapshot decode and journal replay, not disk reads.
func (r *run) coldBoot(image string, n int) (bootInfo, error) {
	dir := filepath.Join(r.opts.tmpRoot, fmt.Sprintf("boot-%d", n))
	if err := copyDir(image, dir); err != nil {
		return bootInfo{}, fmt.Errorf("copy crash image: %w", err)
	}
	cfg := r.fleet.cfg
	cfg.DataDir = dir
	cfg.FS = nil // boots are timed without the filesystem seam in both passes
	runtime.GC() // the previous boot's fleet is garbage; do not bill its collection to this one
	// Recovery is one goroutine; the only thing that runs beside it is the
	// garbage collector, on the second core when the host has it free. The
	// chip fleet's boot (260 MB allocated in 0.4 s) read 0.37 s or 0.47 s
	// depending on that. On one P the collector's work is always billed to
	// the boot, and the median repeats within a few per cent.
	procs := runtime.GOMAXPROCS(1)
	start := time.Now()
	d, err := server.NewDaemon(cfg)
	took := time.Since(start)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return bootInfo{}, fmt.Errorf("cold boot: %w", err)
	}
	if ok, why := d.Ready(); !ok {
		_ = d.Close()
		return bootInfo{}, fmt.Errorf("cold boot not ready: %s", why)
	}
	r.tb.add("server.recover.boot", start, took, 0)
	return bootInfo{dir: dir, took: took, info: d.RecoveryInfo(), d: d}, nil
}

// --- process facts ----------------------------------------------------

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// freeBytes reports the space available to this user under dir.
func freeBytes(dir string) (uint64, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return 0, fmt.Errorf("statfs %s: %w", dir, err)
	}
	return st.Bavail * uint64(st.Bsize), nil
}
