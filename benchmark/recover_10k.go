package main

import (
	"fmt"
	"time"

	"angstrom/internal/server"
	"angstrom/internal/sim"
)

// recover10k: cold recovery, the phase no steady-state workload
// touches. A ten-thousand-application fleet is served in process, round
// by round (every application beats, a few goals change, a few
// applications leave and return, one tick); after a snapshot, a fixed
// number of such rounds lays down a quarter of a million journal
// records, and the rest of the measured window is spent booting cold
// from the crash image of that. It is the default snapshot-plus-tail
// recovery, the mode production would run. Both transports are
// bypassed: clients call the daemon directly.
type recover10k struct {
	loads    []*directLoader
	t        *ticker
	rng      *sim.RNG
	serveFor time.Duration
}

// directLoader is an in-process client: each operation is one
// Daemon.Beat call, timed on its own.
type directLoader struct {
	loadStats
	d     *server.Daemon
	names []string
	share []int
	sp    *spanBuf
}

const directBeatCount = 6

// round beats every application of the share once.
func (l *directLoader) round(rec bool) error {
	for _, a := range l.share {
		start := time.Now()
		err := l.d.Beat(l.names[a], directBeatCount, 0)
		took := time.Since(start)
		if err != nil {
			return fmt.Errorf("beat %s: %w", l.names[a], err)
		}
		l.acked += directBeatCount
		if rec {
			l.attempted++
			l.req.add(took)
		}
	}
	return nil
}

func (w *recover10k) setup(r *run, dir string) error {
	f, err := r.start(r.config(dir), false, false)
	if err != nil {
		return err
	}
	// The measured window is split: two fifths of it serving rounds, three
	// fifths of it booting cold.
	window := r.opts.seconds * float64(time.Second)
	w.serveFor, r.bootFor = time.Duration(0.4*window), time.Duration(0.6*window)
	r.fleet, r.exactUnits = f, true
	if err := f.enroll(r.sc.advApps, advisoryRequest); err != nil {
		return err
	}
	w.loads = nil
	for _, share := range r.shares(len(f.names)) {
		w.loads = append(w.loads, &directLoader{d: f.d, names: f.names, share: share, sp: r.tr.buf()})
	}
	w.rng = r.rng.Split(4)
	w.t = &ticker{r: r, goalLo: 40, goalWidth: 20,
		sched:   func(_ int, rec bool) error { return w.schedule(r, rec) },
		setGoal: func(lo, hi float64) error { return f.d.SetGoal(probeApp, lo, hi) }}
	return nil
}

func (w *recover10k) closeLoad() {}

// schedule makes each round's control calls: four goal changes and four
// applications withdrawn and enrolled again.
func (w *recover10k) schedule(r *run, rec bool) error {
	names := r.fleet.names
	for i := 0; i < 4; i++ {
		lo := 40 + float64(w.rng.Intn(21))
		if err := r.setGoalTimed(names[w.rng.Intn(len(names))], lo, lo+20, rec); err != nil {
			return err
		}
	}
	for i := 0; i < 4; i++ {
		a := w.rng.Intn(len(names))
		if err := r.reenroll(advisoryRequest(a, names[a]), rec); err != nil {
			return err
		}
	}
	return nil
}

// round serves one round: every application beats once (the load
// goroutines run side by side), then the control calls and one tick.
func (w *recover10k) round(rec bool) error {
	if err := parallel(len(w.loads), func(c int) error { return w.loads[c].round(rec) }); err != nil {
		return err
	}
	return w.t.backToBack(1, rec)
}

func (w *recover10k) rounds(n int) error {
	for i := 0; i < n; i++ {
		if err := w.round(false); err != nil {
			return err
		}
	}
	return nil
}

// serve warms the fleet up, then times rounds: this workload's serving
// numbers are those of in-process clients and a hand-driven tick.
func (w *recover10k) serve(r *run) error {
	if err := w.rounds(r.sc.warmRounds); err != nil {
		return err
	}
	r.openWindow()
	n := 0
	for ; time.Since(r.window.from.at) < w.serveFor; n++ {
		if err := w.round(true); err != nil {
			return err
		}
	}
	r.closeWindow(n)
	var beats uint64
	for _, l := range w.loads {
		beats += uint64(l.req.len()) * directBeatCount
		r.req.merge(&l.req)
		r.attempted += l.attempted
	}
	r.beatsPerS = float64(beats) / r.window.to.since(&r.window.from)
	return nil
}

func (w *recover10k) verify(r *run) { r.checkDecided() }

// tail lays down the history the boots replay: a fixed number of rounds.
func (w *recover10k) tail(r *run) error {
	if err := w.rounds(r.sc.tailRounds); err != nil {
		return err
	}
	var acked uint64
	for _, l := range w.loads {
		acked += l.acked
	}
	if got := r.fleet.d.Stats().Beats; got != acked {
		r.fault("recover_10k: daemon counted %d beats, clients sent %d", got, acked)
	}
	return nil
}
