package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"angstrom/internal/server"
)

// httpFleet: ten thousand advisory applications on the JSON API. JSON
// decode and encode and the all-applications-active tick (Manager.Step
// re-pricing plus one Runtime.Step per application) dominate; ingest and
// tick contend for the same cores, and the journal is used both ways —
// asynchronous beat appends and synchronous goal commits. No wire
// frames are decoded: a wire-only optimisation must not move it.
type httpFleet struct {
	loads []loader
	probe *httpConn
}

func (w *httpFleet) setup(r *run, dir string) error {
	f, err := r.start(r.config(dir), true, false)
	if err != nil {
		return err
	}
	r.fleet = f
	if err = f.enroll(r.sc.advApps, advisoryRequest); err != nil {
		return err
	}
	addr := f.httpLn.Addr().String()
	if w.probe, err = dialHTTP(addr); err != nil {
		return err
	}
	w.loads = nil
	for c, share := range r.shares(len(f.names)) {
		hc, err := dialHTTP(addr)
		if err != nil {
			return err
		}
		w.loads = append(w.loads, &httpLoader{
			hc: hc, names: f.names, share: share, rng: r.rng.Split(uint64(10 + c)),
			getFrac: 0.05, putFrac: 0.01, beatAt: make([][3]time.Time, len(f.names)), sp: r.tr.buf(),
		})
	}
	return nil
}

func (w *httpFleet) closeLoad() {
	for _, l := range w.loads {
		l.(*httpLoader).hc.close()
	}
	if w.probe != nil {
		w.probe.close()
	}
}

func (w *httpFleet) serve(r *run) error {
	t := &ticker{r: r, phase: r.rng.Split(3).Float64(), goalLo: 40, goalWidth: 20, setGoal: func(lo, hi float64) error { return w.probe.putGoal(probeApp, lo, hi) }}
	warm, _ := r.windowTicks()
	return r.serveWindow(w.loads, t, func() error { return t.onTicker(warm, false) })
}

// verify: every reply was 2xx, the daemon counted exactly the beats it
// acknowledged, every application holds a decision, and — read back
// over the API — a sample of applications is observed beating at the
// rate its client actually sent.
func (w *httpFleet) verify(r *run) {
	var acked uint64
	for _, l := range w.loads {
		hl := l.(*httpLoader)
		for _, b := range hl.bad {
			r.fault("http_fleet: %s", b)
		}
		hl.bad = nil
		acked += hl.acked
	}
	if got := r.fleet.d.Stats().Beats; got != acked {
		r.fault("http_fleet: daemon counted %d beats, clients were acknowledged %d", got, acked)
	}
	r.checkDecided()
	// The daemon's window holds an application's last 20 beats: its last
	// two batches. Over that same span the client sent 20 beats.
	sentRate := func(a int) float64 {
		for _, l := range w.loads {
			if at := l.(*httpLoader).beatAt[a]; !at[0].IsZero() {
				return 2 * httpBeatCount / at[2].Sub(at[0]).Seconds()
			}
		}
		return 0
	}
	off, sampled := 0, 0
	var offBy []string
	for _, a := range r.sampleApps(len(r.fleet.names)) {
		status, body, err := w.probe.do("GET", "/v1/apps/"+r.fleet.names[a], nil)
		var st server.AppStatus
		if err == nil && status == 200 {
			err = json.Unmarshal(body, &st)
		}
		if err != nil || status != 200 {
			r.fault("http_fleet: status of %s: %d %v", r.fleet.names[a], status, err)
			continue
		}
		sent := sentRate(a)
		if math.Abs(st.Observation.WindowRate-sent) > 0.2*sent {
			off++
			if len(offBy) < 3 {
				offBy = append(offBy, fmt.Sprintf("%s observed at %.1f beats/s, its client sent %.1f", st.Name, st.Observation.WindowRate, sent))
			}
		}
		sampled++
	}
	// The two rates are clocked on the two sides of a socket, so a stall of
	// the host between a beat's arrival and its reply moves one application
	// out of band; a daemon that observes wrongly moves them all.
	if off > sampled/20 {
		for _, o := range offBy {
			r.fault("http_fleet: %s", o)
		}
	}
	r.facts = append(r.facts, fmt.Sprintf("beats acknowledged and counted: %d; sampled rates outside 20%%: %d", acked, off))
}

// tail issues one more operation per application, then one tick.
func (w *httpFleet) tail(r *run) error {
	if err := steps(w.loads, len(r.fleet.names)/len(w.loads)); err != nil {
		return err
	}
	t := &ticker{r: r}
	return t.tick(false)
}
