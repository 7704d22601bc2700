package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"angstrom/internal/server"
	"angstrom/internal/sim"
)

// --- the tick loop ----------------------------------------------------

// ticker is the benchmark's own copy of the loop Daemon.Start runs — a
// time.Ticker at the decision period calling Daemon.Tick — so that every
// tick is timed from outside. Between ticks it changes the probe
// application's goal and, after each tick, looks for the decision that
// reflects the change: that is the decision lag.
type ticker struct {
	r *run
	k int // ticks run since serving began

	// sched applies the workload's scheduled control calls before tick k.
	// It runs on this goroutine, never beside a tick, so a schedule keyed
	// by tick index replays identically.
	sched func(k int, rec bool) error
	// setGoal changes the probe's goal the way this workload's clients
	// would (an HTTP PUT, or the in-process call).
	setGoal func(minRate, maxRate float64) error

	// The probe's goals step through ten bands [goalLo+i, goalLo+i+goalWidth].
	goalLo, goalWidth float64

	probes  int
	phase   float64 // golden-ratio sequence in [0, 1)
	pending *probe
	missed  int64
}

type probe struct {
	sent  time.Time
	want  float64 // Decision.Goal once the change is decided
	rec   bool
	ticks int
}

// goldenStep spreads the probe's send times evenly over the idle gap
// between ticks whatever their number: the phase term of the lag is
// stratified, not sampled.
const goldenStep = 0.6180339887498949

// tick runs the scheduled calls, one timed Daemon.Tick, and the probe
// check.
func (t *ticker) tick(rec bool) error {
	r := t.r
	if t.sched != nil {
		if err := t.sched(t.k, rec); err != nil {
			return err
		}
	}
	var moves int64
	if r.knobs != nil {
		moves = r.knobs.moves.Load()
	}
	id, start := r.tb.begin(), time.Now()
	r.fleet.d.Tick()
	took := time.Since(start)
	if r.knobs != nil {
		moves = r.knobs.moves.Load() - moves
	}
	r.tb.end("server.tick", id, start, moves)
	if rec {
		r.tick.add(took)
		r.attempted++
	}
	if p := t.pending; p != nil {
		st, err := r.fleet.d.Status(probeApp)
		switch {
		case err == nil && st.Decision != nil && st.Decision.Goal == p.want:
			if p.rec {
				r.lag.add(start.Add(took).Sub(p.sent))
			}
			t.pending = nil
		case p.ticks >= 20:
			r.fault("probe goal %g never reached a decision (status error: %v)", p.want, err)
			t.pending = nil
		default:
			p.ticks++
		}
	}
	t.k++
	return nil
}

// sendProbe changes the probe's goal to a band it has not held before.
func (t *ticker) sendProbe(rec bool) {
	lo := t.goalLo + float64(t.probes%10)
	t.probes++
	sent := time.Now()
	id, start := t.r.tb.begin(), time.Now()
	err := t.setGoal(lo, lo+t.goalWidth)
	took := time.Since(start)
	t.r.tb.end("server.control.set_goal", id, start, 0)
	if rec {
		t.r.attempted++
	}
	if err != nil {
		if rec {
			t.r.failed++
		}
		t.r.fault("probe goal change: %v", err)
		return
	}
	if rec {
		t.r.commit.add(took)
	}
	t.pending = &probe{sent: sent, want: lo + t.goalWidth/2, rec: rec}
}

// setGoalTimed makes one scheduled goal change with a direct call, as a
// span and — inside the window — a commit-latency sample.
func (r *run) setGoalTimed(name string, lo, hi float64, rec bool) error {
	id, start := r.tb.begin(), time.Now()
	err := r.fleet.d.SetGoal(name, lo, hi)
	took := time.Since(start)
	r.tb.end("server.control.set_goal", id, start, 0)
	if err != nil {
		return fmt.Errorf("scheduled goal change of %s: %w", name, err)
	}
	if rec {
		r.commit.add(took)
		r.attempted++
	}
	return nil
}

// reenroll withdraws an application and enrols it again.
func (r *run) reenroll(req server.EnrollRequest, rec bool) error {
	id, start := r.tb.begin(), time.Now()
	err := r.fleet.d.Withdraw(req.Name)
	if err == nil {
		err = r.fleet.d.Enroll(req)
	}
	r.tb.end("server.control.reenroll", id, start, 0)
	if err != nil {
		return fmt.Errorf("scheduled withdraw and enroll of %s: %w", req.Name, err)
	}
	if rec {
		r.attempted += 2
	}
	return nil
}

// backToBack runs n ticks with no ticker between them (warm-up, and
// workloads that drive rounds by hand), probing before each.
func (t *ticker) backToBack(n int, rec bool) error {
	for i := 0; i < n; i++ {
		if t.pending == nil {
			t.sendProbe(rec)
		}
		if err := t.tick(rec); err != nil {
			return err
		}
	}
	return nil
}

// onTicker runs exactly n ticks on a time.Ticker at the decision
// period. Slots the loop was too slow to take are counted and reported,
// not failed: on a shared host a stall of two periods happens to a
// healthy daemon, and a late tick already shows in the tick percentiles
// and the decision lag.
func (t *ticker) onTicker(n int, rec bool) error {
	const margin = 3 * time.Millisecond
	tk := time.NewTicker(period)
	defer tk.Stop()
	var last time.Time
	for i := 0; i < n; i++ {
		slot := <-tk.C
		if !last.IsZero() {
			if skipped := int64(math.Round(slot.Sub(last).Seconds()/period.Seconds())) - 1; skipped > 0 && rec {
				t.missed += skipped
			}
		}
		last = slot
		if err := t.tick(rec); err != nil {
			return err
		}
		if t.pending != nil || i == n-1 {
			continue
		}
		// Send the next goal change somewhere in the idle gap before the
		// next slot, never beside a tick.
		if gap := time.Until(slot.Add(period)) - margin; gap > 0 {
			t.phase = math.Mod(t.phase+goldenStep, 1)
			time.Sleep(time.Duration(t.phase * float64(gap)))
		}
		t.sendProbe(rec)
	}
	return nil
}

// --- load connections -------------------------------------------------

// mark is an instant at which a connection knew exactly how many beats
// the daemon had acknowledged to it.
type mark struct {
	at    time.Time
	beats uint64
}

// loadStats is one load connection's tally. Only its goroutine touches
// it until the window has closed.
type loadStats struct {
	req, commit       samples
	attempted, failed int64
	acked             uint64 // beats acknowledged over the connection's life
	from, to          mark
	open, done        bool
}

// edge is called wherever acked is exact; it notes the first such
// instant inside the measured window and the first one after it.
func (s *loadStats) edge(rec bool, now time.Time) {
	switch {
	case rec && !s.open && !s.done:
		s.open, s.from = true, mark{now, s.acked}
	case !rec && s.open:
		s.open, s.done, s.to = false, true, mark{now, s.acked}
	}
}

// rate is the beats acknowledged per second between the two marks.
func (s *loadStats) rate() float64 {
	if !s.done {
		return math.NaN()
	}
	return float64(s.to.beats-s.from.beats) / s.to.at.Sub(s.from.at).Seconds()
}

// loader is one closed-loop client: it sends its next operation when the
// previous one has been answered.
type loader interface {
	step(rec bool) error // one operation
	finish() error       // settle what is in flight and close the window
	stats() *loadStats
}

// drive runs the loaders, one goroutine each, while body runs the ticks;
// rec tells both sides when the measured window is open.
func (r *run) drive(loads []loader, body func(rec *atomic.Bool) error) error {
	var stop, rec atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, len(loads))
	for i := range loads {
		wg.Add(1)
		go func(l loader, done *error) {
			defer wg.Done()
			for !stop.Load() {
				if err := l.step(rec.Load()); err != nil {
					*done = err
					return
				}
			}
			*done = l.finish()
		}(loads[i], &errs[i])
	}
	err := body(&rec)
	rec.Store(false)
	stop.Store(true)
	wg.Wait()
	return errors.Join(append(errs, err)...)
}

// parallel runs f(0..n-1) on n goroutines and joins their errors.
func parallel(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			errs[worker] = f(worker)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// steps runs n more operations on every loader, outside any window.
func steps(loads []loader, n int) error {
	return parallel(len(loads), func(i int) error {
		for k := 0; k < n; k++ {
			if err := loads[i].step(false); err != nil {
				return err
			}
		}
		return loads[i].finish()
	})
}

// serveWindow is the serving phase of the ticker-driven workloads: warm
// up, then run the measured window's ticks while the load connections
// run closed-loop beside them.
func (r *run) serveWindow(loads []loader, t *ticker, warm func() error) error {
	_, ticks := r.windowTicks()
	err := r.drive(loads, func(rec *atomic.Bool) error {
		if err := warm(); err != nil {
			return err
		}
		r.openWindow()
		rec.Store(true)
		err := t.onTicker(ticks, true)
		rec.Store(false)
		r.closeWindow(ticks)
		return err
	})
	if t.missed > 0 {
		r.facts = append(r.facts, fmt.Sprintf("ticker slots the tick loop came too late for: %d of %d", t.missed, ticks))
	}
	r.collect(loads)
	return err
}

// windowTicks converts the run's length into ticker slots: the measured
// window, and a warm-up a fifth as long.
func (r *run) windowTicks() (warm, ticks int) {
	ticks = max(1, int(math.Round(r.opts.seconds/period.Seconds())))
	return max(1, ticks/5), ticks
}

// collect folds the loaders' tallies into the run after a window.
func (r *run) collect(loads []loader) {
	r.beatsPerS = 0
	for _, l := range loads {
		s := l.stats()
		r.req.merge(&s.req)
		r.commit.merge(&s.commit)
		r.attempted += s.attempted
		r.failed += s.failed
		r.beatsPerS += s.rate()
	}
}

// window brackets the measured window: process counters are read at its
// edges so the traced pass can report what each layer did inside it.
func (r *run) openWindow() { r.readEdge(&r.window.from) }

func (r *run) closeWindow(ticks int) {
	r.window.ticks = ticks
	r.readEdge(&r.window.to)
}

// --- binary wire client ----------------------------------------------

// wireLoader streams beat frames for its share of the fleet over one
// WireClient: three count frames of 100 beats, then one frame of 16
// client-timestamped beats, with a Flush barrier every 64 frames. The
// barrier's round trip is the only reply a wire client waits for, so it
// is this transport's request latency.
type wireLoader struct {
	loadStats
	c       *server.WireClient
	handles []uint32
	frames  int
	sent    uint64 // beats written to the connection
	clock   uint64 // client-side nanosecond clock behind the timestamped frames
	ns      [16]uint64
	dropAck bool
	mism    []string
	sp      *spanBuf
}

const (
	wireCountBeats = 100
	wireFlushEvery = 64
)

func (l *wireLoader) stats() *loadStats { return &l.loadStats }

func (l *wireLoader) step(rec bool) error {
	h := l.handles[l.frames%len(l.handles)]
	var err error
	if l.frames%4 == 3 {
		for i := range l.ns {
			l.clock += 1e6 // the client beat once a millisecond
			l.ns[i] = l.clock
		}
		err = l.c.BeatsAt(h, l.ns[:], 0)
		l.sent += uint64(len(l.ns))
	} else {
		err = l.c.Beats(h, wireCountBeats, 0)
		l.sent += wireCountBeats
	}
	if err != nil {
		return fmt.Errorf("wire frame: %w", err)
	}
	l.frames++
	if rec {
		l.attempted++
	}
	if l.frames%wireFlushEvery == 0 {
		return l.flush(rec)
	}
	return nil
}

// flush is the barrier: when it returns, the daemon has ingested every
// frame before it and says how many beats that makes.
func (l *wireLoader) flush(rec bool) error {
	start := time.Now()
	ack, err := l.c.Flush()
	took := time.Since(start)
	if err != nil {
		return fmt.Errorf("wire flush: %w", err)
	}
	if l.dropAck {
		ack, l.dropAck = ack-wireCountBeats, false
	}
	if ack != l.sent {
		l.failed++
		if len(l.mism) < 3 {
			l.mism = append(l.mism, fmt.Sprintf("flush acknowledged %d beats, connection sent %d", ack, l.sent))
		}
	}
	l.acked = ack
	if rec {
		l.req.add(took)
		l.sp.add("client.wire.flush", start, took, uint64(l.frames))
	}
	l.edge(rec, start.Add(took))
	return nil
}

func (l *wireLoader) finish() error { return l.flush(false) }

// --- HTTP client ------------------------------------------------------

// httpConn is a keep-alive HTTP/1.1 client on one TCP connection. It
// writes the request bytes itself and parses replies with the standard
// library, so the client's share of a request is small next to the
// daemon's and the numbers move when the daemon does.
type httpConn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	out  []byte
	body []byte
}

func dialHTTP(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{c: c, br: bufio.NewReader(c), host: addr}, nil
}

// do sends one request and reads its reply; the returned body is valid
// until the next call.
func (h *httpConn) do(method, path string, body []byte) (status int, reply []byte, err error) {
	b := append(h.out[:0], method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, h.host...)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	h.out = b
	if _, err = h.c.Write(b); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	h.body, err = readInto(h.body[:0], resp.Body)
	if err != nil {
		resp.Body.Close()
		return 0, nil, err
	}
	resp.Body.Close()
	return resp.StatusCode, h.body, nil
}

// readInto reads r to its end into buf's spare capacity, growing it as
// io.ReadAll does, so a connection reuses one reply buffer.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (h *httpConn) close() { _ = h.c.Close() }

func goalBody(minRate, maxRate float64) []byte {
	return fmt.Appendf(nil, `{"min_rate":%g,"max_rate":%g}`, minRate, maxRate)
}

// putGoal replaces an application's goal over the JSON API.
func (h *httpConn) putGoal(name string, minRate, maxRate float64) error {
	status, reply, err := h.do("PUT", "/v1/apps/"+name+"/goal", goalBody(minRate, maxRate))
	if err != nil {
		return err
	}
	if status/100 != 2 {
		return fmt.Errorf("PUT goal %s: status %d: %s", name, status, reply)
	}
	return nil
}

// httpLoader is one keep-alive client issuing a seeded mix of beat
// POSTs, status GETs and goal PUTs against its share of the fleet.
// Beats walk the share in order, so every application is beaten once
// per cycle at a steady rate the output check can hold the daemon's
// observation to; status reads and goal changes pick their target at
// random and are interleaved between beats.
type httpLoader struct {
	loadStats
	hc      *httpConn
	names   []string // fleet names by application index
	share   []int    // this connection's applications, in seeded order
	pos     int
	rng     *sim.RNG
	getFrac float64 // share of operations that read a status
	putFrac float64 // share that change a goal; the rest are beats
	// beatAt holds, per application index, when its last three beat
	// batches were acknowledged: the span the daemon's 20-beat window
	// covers, for the output check.
	beatAt [][3]time.Time
	status samples // status-read latencies
	bad    []string
	sp     *spanBuf
	ops    uint64
	path   []byte
}

const httpBeatCount = 10

var httpBeatBody = []byte(`{"count":10}`)

func (l *httpLoader) stats() *loadStats { return &l.loadStats }

func (l *httpLoader) step(rec bool) error {
	u := l.rng.Float64()
	var (
		method, what, spanName string
		body                   []byte
		app                    int
		into                   *samples
	)
	switch {
	case u < l.putFrac:
		app = l.share[l.rng.Intn(len(l.share))]
		lo := 40 + float64(l.rng.Intn(21))
		method, what, body, into, spanName = "PUT", "/goal", goalBody(lo, lo+20), &l.commit, "client.http.put_goal"
	case u < l.putFrac+l.getFrac:
		app = l.share[l.rng.Intn(len(l.share))]
		method, into, spanName = "GET", &l.status, "client.http.get_status"
	default:
		app = l.share[l.pos%len(l.share)]
		l.pos++
		method, what, body, into, spanName = "POST", "/beats", httpBeatBody, &l.req, "client.http.post_beats"
	}
	l.path = append(append(append(l.path[:0], "/v1/apps/"...), l.names[app]...), what...)
	start := time.Now()
	status, reply, err := l.hc.do(method, string(l.path), body)
	took := time.Since(start)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, l.path, err)
	}
	l.ops++
	if rec {
		l.attempted++
		into.add(took)
		l.sp.add(spanName, start, took, l.ops)
	}
	if status/100 != 2 {
		l.failed++
		if len(l.bad) < 3 {
			l.bad = append(l.bad, fmt.Sprintf("%s %s: status %d: %s", method, l.path, status, reply))
		}
	} else if method == "POST" {
		l.acked += httpBeatCount
		at := &l.beatAt[app]
		at[0], at[1], at[2] = at[1], at[2], start.Add(took)
	}
	l.edge(rec, start.Add(took))
	return nil
}

func (l *httpLoader) finish() error {
	l.edge(false, time.Now())
	return nil
}
