package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"angstrom/internal/server"
	"angstrom/internal/sim"
)

// runWorkload runs one workload start to finish — set up (several times
// in the untraced pass; setup_s is the median), serve, check, crash,
// boot cold — and returns its result. The traced pass turns the seams
// on, records spans, and adds the isolated layer calls.
func runWorkload(opts options) (*result, error) {
	w, err := newScenario(opts.workload)
	if err != nil {
		return nil, err
	}
	r := &run{opts: opts, sc: opts.scale, rng: sim.NewRNG(opts.seed), conns: min(runtime.NumCPU(), 4), layer: make(map[string]float64)}
	if opts.trace {
		r.tr = newTracer()
		r.tb = r.tr.buf()
		r.fs, r.knobs, r.wire = &fsStats{tr: r.tr}, &knobCounts{}, &wireBytes{}
	}
	free, err := freeBytes(opts.tmpRoot)
	if err != nil {
		return nil, err
	}
	if free < r.sc.minFree {
		return nil, fmt.Errorf("%d MB free under %s, need %d MB", free>>20, opts.tmpRoot, r.sc.minFree>>20)
	}
	began := time.Now()
	r.logf("== %s seed=%d seconds=%g trace=%v scale=%s conns=%d GOMAXPROCS=%d", opts.workload, opts.seed, opts.seconds, opts.trace, r.sc.name, r.conns, runtime.GOMAXPROCS(0))

	setups := r.sc.setups
	if opts.trace {
		setups = 1 // setup_s belongs to the untraced pass
	}
	for i := 0; i < setups; i++ {
		if i > 0 {
			r.teardown(w)
		}
		start := time.Now()
		err := w.setup(r, filepath.Join(opts.tmpRoot, fmt.Sprintf("data-%d", i)))
		r.setups = append(r.setups, time.Since(start).Seconds())
		if err != nil {
			r.teardown(w)
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer r.teardown(w)

	if err := w.serve(r); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	w.verify(r)
	if err := r.crash(w); err != nil {
		return nil, err
	}
	var values map[string]float64
	defs := endToEnd
	if opts.trace {
		r.windowLayers()
		if err := w.isolated(r); err != nil {
			return nil, fmt.Errorf("isolated layer calls: %w", err)
		}
		spans := r.tr.all()
		r.spanLayers(spans)
		if err := writeTrace(opts.traceOut, opts.workload, opts.seed, spans); err != nil {
			return nil, err
		}
		r.logf("trace: %d spans written to %s", len(spans), opts.traceOut)
		values, defs = r.layer, perLayer
	} else {
		values = r.endToEndValues()
	}

	res := &result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs)), stateHash: r.stateHash}
	for _, def := range defs {
		v := values[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!opts.trace && v <= 0) {
			r.fault("%s: no measurement (%v)", def.name, v)
			v = 0
		}
		res.Metrics[def.name] = metric{Value: v, Unit: def.unit}
		r.logf("%-36s %14.4f %s", def.name, v, def.unit)
	}
	if r.failed > 0 {
		r.fault("%d of %d operations failed", r.failed, r.attempted)
	}
	sort.Strings(r.facts)
	for _, f := range r.facts {
		r.logf("   %s", f)
	}
	for _, f := range r.faults {
		r.logf("CHECK FAILED: %s", f)
	}
	res.Correct = len(r.faults) == 0
	r.logf("== %s: correct=%v attempted=%d failed=%d wall=%.1fs", opts.workload, res.Correct, res.Attempted, res.Failed, time.Since(began).Seconds())
	return res, nil
}

// teardown closes the load connections and the daemon and deletes its
// data directory.
func (r *run) teardown(w scenario) {
	w.closeLoad()
	if f := r.fleet; f != nil {
		f.close()
		_ = os.RemoveAll(f.cfg.DataDir)
		r.fleet = nil
	}
	runtime.GC()
}

// crash ends the serving life of the fleet and measures what it takes to
// get it back: snapshot, let the workload lay down a fixed tail of
// history, make it durable, image the data directory as a kill would
// leave it (the daemon is never closed), and boot cold from copies of
// the image.
func (r *run) crash(w scenario) error {
	d := r.fleet.d
	id, start := r.tb.begin(), time.Now()
	err := d.Snapshot()
	r.layer["journal.snapshot_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	r.tb.end("journal.snapshot", id, start, 0)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err = w.tail(r); err != nil {
		return fmt.Errorf("tail: %w", err)
	}
	// Beats and tick records are appended without waiting for the disk; a
	// synchronous commit carries everything before it to durability.
	if err = d.SetGoal(probeApp, 50, 70); err != nil {
		return fmt.Errorf("final commit: %w", err)
	}
	sample := r.sampleApps(len(r.fleet.names))
	before := make([]server.AppStatus, len(sample))
	for i, a := range sample {
		if before[i], err = d.Status(r.fleet.names[a]); err != nil {
			return fmt.Errorf("pre-crash status: %w", err)
		}
	}
	r.image = filepath.Join(r.opts.tmpRoot, "image")
	if err = copyDir(r.fleet.cfg.DataDir, r.image); err != nil {
		return fmt.Errorf("crash image: %w", err)
	}

	// The process's memory high-water mark is read here, at the end of the
	// fleet's serving life. The boots below share the heap with the
	// pre-crash fleet, which no production boot does, and on a small heap
	// the collector's timing during them moved the mark by a fifth.
	if r.peakRSS, err = peakRSSMB(); err != nil {
		return err
	}

	var first server.RecoveryInfo
	var firstTicks samples
	began := time.Now()
	for n := 0; n < r.sc.boots || time.Since(began) < r.bootFor; n++ {
		r.attempted++
		b, err := r.coldBoot(r.image, n)
		if err != nil {
			r.failed++
			r.fault("%v", err)
			continue
		}
		r.boots = append(r.boots, b.took.Seconds())
		r.replayed = b.info.ReplayedRecords
		if want := len(r.fleet.names) + 1; b.info.Apps != want {
			r.fault("boot %d restored %d applications, the fleet had %d", n, b.info.Apps, want)
		}
		if n == 0 {
			first = b.info
			for i, a := range sample {
				name := r.fleet.names[a]
				st, err := b.d.Status(name)
				if err != nil {
					r.fault("boot %d: %s: %v", n, name, err)
				} else if st.Goal != before[i].Goal || (r.exactUnits && st.Cores.Units != before[i].Cores.Units) {
					r.fault("boot %d: %s restored with goal %+v and %d units, had %+v and %d", n, name, st.Goal, st.Cores.Units, before[i].Goal, before[i].Cores.Units)
				}
			}
		} else if b.info.ReplayedRecords != first.ReplayedRecords || b.info.SnapshotSeq != first.SnapshotSeq {
			r.fault("boot %d replayed %d records from snapshot %d, boot 0 replayed %d from %d", n, b.info.ReplayedRecords, b.info.SnapshotSeq, first.ReplayedRecords, first.SnapshotSeq)
		}
		if r.tr != nil {
			id, start := r.tb.begin(), time.Now()
			b.d.Tick()
			firstTicks.add(time.Since(start))
			r.tb.end("server.recover.first_tick", id, start, 0)
		}
		_ = b.d.Close() // a private copy of the image, deleted next
		if err := os.RemoveAll(b.dir); err != nil {
			return fmt.Errorf("remove boot copy: %w", err)
		}
	}
	r.facts = append(r.facts, fmt.Sprintf("cold boots: %d, each replaying %d records over snapshot %d (files in page cache: replay CPU, not disk reads)", len(r.boots), first.ReplayedRecords, first.SnapshotSeq))
	r.layer["server.recover.first_tick_ms"] = firstTicks.quantile(0.5, time.Millisecond)
	return nil
}
