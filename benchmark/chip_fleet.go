package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"angstrom/internal/server"
	"angstrom/internal/sim"
)

// chipFleet: chip-backed applications on a federation of four dies.
// The tick is everything — contention pass, runChipInterval, broker,
// migration scan — and ingest does nothing: partitions emit their own
// beats. It runs the configuration ARCHITECTURE.md documents as
// byte-deterministic (simulated clock, one tick worker) and every
// control call is made between ticks on a schedule keyed by tick index,
// so a run also yields an exact state hash and exact actuation counts.
// Clients only read: one connection polls application statuses.
type chipFleet struct {
	loads   []loader
	t       *ticker
	rng     *sim.RNG
	churn   []int // applications the schedule withdraws and re-enrols; the poller never reads them
	derated bool
}

func (w *chipFleet) request(i int, name string) server.EnrollRequest {
	return server.EnrollRequest{Name: name, Workload: specNames[i%len(specNames)], Window: 256, MinRate: 20, MaxRate: 30}
}

func (w *chipFleet) setup(r *run, dir string) error {
	cfg := r.config(dir)
	cfg.Accel = 0.1
	cfg.TickWorkers = 1
	cfg.Chip = r.chipConfig()
	cfg.Cores = cfg.Chip.Chips * cfg.Chip.Tiles
	f, err := r.start(cfg, true, false)
	if err != nil {
		return err
	}
	r.fleet = f
	if err = f.enroll(r.sc.chipApps, w.request); err != nil {
		return err
	}
	n := len(f.names)
	readable := make([]int, 0, n)
	w.churn = w.churn[:0]
	for i := 0; i < n; i++ {
		if i < n-max(1, n/20) {
			readable = append(readable, i)
		} else {
			w.churn = append(w.churn, i)
		}
	}
	hc, err := dialHTTP(f.httpLn.Addr().String())
	if err != nil {
		return err
	}
	w.loads = []loader{&httpLoader{
		hc: hc, names: f.names, share: readable, rng: r.rng.Split(10),
		getFrac: 1, sp: r.tr.buf(),
	}}
	w.rng = r.rng.Split(4)
	w.derated = false
	w.t = &ticker{r: r, phase: r.rng.Split(3).Float64(), goalLo: 15, goalWidth: 10,
		sched:   func(k int, rec bool) error { return w.schedule(r, k, rec) },
		setGoal: func(lo, hi float64) error { return f.d.SetGoal(probeApp, lo, hi) }}
	return nil
}

func (w *chipFleet) closeLoad() {
	for _, l := range w.loads {
		l.(*httpLoader).hc.close()
	}
}

// schedule makes the control calls due before tick k: a goal change
// every second tick, a withdraw-and-re-enrol every fifth, and — a third
// and two thirds of the way through the measured window — die 0 losing
// and regaining half its memory bandwidth.
func (w *chipFleet) schedule(r *run, k int, rec bool) error {
	d, names := r.fleet.d, r.fleet.names
	if k%2 == 0 {
		a := w.rng.Intn(len(names) - len(w.churn))
		lo := 15 + float64(w.rng.Intn(11))
		if err := r.setGoalTimed(names[a], lo, lo+10, rec); err != nil {
			return err
		}
	}
	if k%5 == 0 {
		a := w.churn[w.rng.Intn(len(w.churn))]
		if err := r.reenroll(w.request(a, names[a]), rec); err != nil {
			return err
		}
	}
	if rec {
		_, ticks := r.windowTicks()
		at := r.tick.len() // measured ticks so far
		switch {
		case at == ticks/3 && !w.derated:
			w.derated = true
			return d.SaturateChip(0, 0.5)
		case at == 2*ticks/3 && w.derated:
			w.derated = false
			return d.SaturateChip(0, 1)
		}
	}
	return nil
}

func (w *chipFleet) serve(r *run) error {
	err := r.serveWindow(w.loads, w.t, func() error { return w.t.backToBack(r.sc.warmTicks, false) })
	if err != nil {
		return err
	}
	r.req = w.loads[0].(*httpLoader).status // this workload's requests are status reads
	// No client sends a beat; the daemon's counter holds what the chips emitted.
	r.beatsPerS = float64(r.window.to.beats-r.window.from.beats) / r.window.to.since(&r.window.from)
	return nil
}

// verify: no die's tile ledger ever faulted or overcommitted, every
// application holds a decision, every status read was answered. The
// state hash is reported so that two runs of one seed can be compared.
func (w *chipFleet) verify(r *run) {
	d := r.fleet.d
	for _, b := range w.loads[0].(*httpLoader).bad {
		r.fault("chip_fleet: %s", b)
	}
	chips := d.ChipStatuses()
	for _, c := range chips {
		if c.LedgerFaults != 0 {
			r.fault("chip_fleet: die %d reports %d ledger faults", c.Chip, c.LedgerFaults)
		}
		if c.CoreEquivalents > float64(c.Tiles)+1e-6 {
			r.fault("chip_fleet: die %d holds %.3f core-equivalents on %d tiles", c.Chip, c.CoreEquivalents, c.Tiles)
		}
	}
	r.checkDecided()
	list := d.List()
	h := sha256.New()
	enc := json.NewEncoder(h)
	if err := enc.Encode(list); err != nil {
		r.fault("chip_fleet: hash state: %v", err)
	}
	if err := enc.Encode(chips); err != nil {
		r.fault("chip_fleet: hash state: %v", err)
	}
	fmt.Fprintf(h, "%d", d.Migrations())
	r.stateHash = fmt.Sprintf("%x", h.Sum(nil))
	r.facts = append(r.facts, "state_hash: "+r.stateHash, fmt.Sprintf("migrations: %d", d.Migrations()))
}

func (w *chipFleet) tail(r *run) error {
	return w.t.backToBack(5, false)
}
