package main

import (
	"fmt"

	"angstrom/internal/server"
)

// wireDurable: the binary ingest path with the journal on. Transport
// decode, beatTarget, the journal append and the monitor ring do nearly
// all the work; the tick has little to do (a thousand applications).
// Count frames and timestamped frames use the same ingest chain two
// ways (70 B against ~350 B journal records), so a gain for one that
// costs the other shows.
type wireDurable struct {
	loads []loader
	probe *httpConn // control plane stays on the JSON API, as in production
}

func (w *wireDurable) setup(r *run, dir string) error {
	f, err := r.start(r.config(dir), true, true)
	if err != nil {
		return err
	}
	r.fleet = f
	if err = f.enroll(r.sc.wireApps, advisoryRequest); err != nil {
		return err
	}
	if w.probe, err = dialHTTP(f.httpLn.Addr().String()); err != nil {
		return err
	}
	w.loads = nil
	for c, share := range r.shares(len(f.names)) {
		wc, err := server.DialWire(f.wireSrv.Addr().String())
		if err != nil {
			return err
		}
		l := &wireLoader{c: wc, sp: r.tr.buf(), dropAck: r.opts.dropAck && c == 0}
		w.loads = append(w.loads, l)
		for _, a := range share {
			h, err := wc.Hello(f.names[a])
			if err != nil {
				return fmt.Errorf("wire hello %s: %w", f.names[a], err)
			}
			l.handles = append(l.handles, h)
		}
	}
	return nil
}

func (w *wireDurable) closeLoad() {
	for _, l := range w.loads {
		_ = l.(*wireLoader).c.Close()
	}
	if w.probe != nil {
		w.probe.close()
	}
}

func (w *wireDurable) serve(r *run) error {
	t := &ticker{r: r, phase: r.rng.Split(3).Float64(), goalLo: 40, goalWidth: 20, setGoal: func(lo, hi float64) error { return w.probe.putGoal(probeApp, lo, hi) }}
	warm, _ := r.windowTicks()
	return r.serveWindow(w.loads, t, func() error { return t.onTicker(warm, false) })
}

// reconcile holds every flush acknowledgement to what its connection
// sent, and the daemon's beat counter to what all of them sent.
func (w *wireDurable) reconcile(r *run) uint64 {
	var sent uint64
	for _, l := range w.loads {
		wl := l.(*wireLoader)
		for _, m := range wl.mism {
			r.fault("wire_durable: %s", m)
		}
		wl.mism = nil
		sent += wl.sent
	}
	if got := r.fleet.d.Stats().Beats; got != sent {
		r.fault("wire_durable: daemon counted %d beats, clients sent %d", got, sent)
	}
	return sent
}

func (w *wireDurable) verify(r *run) {
	r.facts = append(r.facts, fmt.Sprintf("beats sent and counted: %d", w.reconcile(r)))
}

// tail streams 64 more frames per application (a whole number of flush
// cycles on every connection), then one tick.
func (w *wireDurable) tail(r *run) error {
	if err := steps(w.loads, wireFlushEvery*len(r.fleet.names)/len(w.loads)); err != nil {
		return err
	}
	t := &ticker{r: r}
	if err := t.tick(false); err != nil {
		return err
	}
	w.reconcile(r) // the tail's acknowledgements count too
	return nil
}
