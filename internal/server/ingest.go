package server

import (
	"fmt"
	"math"
)

// MaxBeatBatch bounds one BeatRequest's count: large enough for any
// sane batching interval, small enough that a single request cannot
// monopolize the daemon.
const MaxBeatBatch = 10000

// MaxDistortion bounds a beat's |distortion| report. Distortion is a
// linear distance from the application's nominal value — any real
// report is modest — while values near MaxFloat64 would overflow the
// monitor's windowed sum to Inf (found by FuzzBeatTimestampsDirect)
// and poison the accuracy goal check.
const MaxDistortion = 1e150

func validDistortion(d float64) error {
	if math.IsNaN(d) || d > MaxDistortion || d < -MaxDistortion {
		return fmt.Errorf("server: distortion %g outside [-%g, %g]", d, MaxDistortion, MaxDistortion)
	}
	return nil
}

// lookup resolves an app through the directory's sharded name index:
// one hash, one atomic load, one short probe — no locks on the
// ingestion path.
func (d *Daemon) lookup(name string) (*app, bool) { return d.dir.get(name) }

// Beat ingests count heartbeats for name, the last one carrying the
// given distortion. The monitor is internally synchronized, so beats
// from many connections interleave safely with the tick workers.
//
// A batch does not share one timestamp: the beats are spread evenly
// across the interval since the application's previous beat, so
// windowed rates stay unbiased even when the averaging window is
// smaller than a batch. (The very first batch has no prior reference
// and lands at the current time; clients that need exact placement send
// per-beat timestamps via BeatTimestamps.) The monitor writes only the
// beats its window retains, so a batch's ring cost stops growing once
// count passes the window.
//
// Chip-backed applications are refused: their partition is the beat
// source, and a client beat stamped at wall-clock time would drag the
// monitor ahead of the partition's execution frontier and corrupt the
// controller's signal.
func (d *Daemon) Beat(name string, count int, distortion float64) error {
	a, err := d.beatTarget(name, count, distortion)
	if err != nil {
		return err
	}
	d.ingestSpread(a, count, distortion)
	d.beats.Add(uint64(count))
	return nil
}

// beatTarget validates a beat batch's shape and resolves its target
// application. It is shared by the JSON handlers and the binary wire
// decoder so the two transports enforce identical admission rules —
// the first link in the chain that makes them equivalent by
// construction (wire_equiv_test locks the whole chain in end to end).
func (d *Daemon) beatTarget(name string, count int, distortion float64) (*app, error) {
	if count < 1 || count > MaxBeatBatch {
		return nil, fmt.Errorf("server: beat count %d outside [1, %d]", count, MaxBeatBatch)
	}
	if err := validDistortion(distortion); err != nil {
		return nil, err
	}
	a, ok := d.lookup(name)
	if !ok {
		return nil, fmt.Errorf("server: %q %w", name, ErrNotEnrolled)
	}
	if a.partition() != nil {
		return nil, fmt.Errorf("server: %q is chip-backed; its beats are chip-emitted", name)
	}
	return a, nil
}

// ingestSpread journals and applies a validated server-spread batch:
// count beats spread across the interval since the app's previous
// beat, the last carrying distortion (one lock acquisition on the
// monitor, and O(min(count, window)) ring writes). Both ingestion
// transports funnel here; the fleet-wide beats total is left to the
// caller, because the wire path publishes it through per-connection
// deltas instead of per batch.
func (d *Daemon) ingestSpread(a *app, count int, distortion float64) {
	now := d.clock.Now()
	d.journalAppend(record{Op: opBeat, T: now, Name: a.name, Count: count, Distortion: distortion})
	a.mon.BeatBatchSpreadAt(now, count, distortion)
}

// ingestShifted journals and applies a validated client-timestamped
// batch, shifted so its final beat lands at the daemon's current time.
// ts must be finite and non-decreasing (the JSON handler validates, the
// wire decoder guarantees it by construction); it may alias a reusable
// buffer — the journal record is encoded and the monitor copies the
// values before ingestShifted returns.
func (d *Daemon) ingestShifted(a *app, ts []float64, distortion float64) {
	now := d.clock.Now()
	// The raw client timestamps are journaled: replay recomputes the
	// same shift from the same `now` (the record's T).
	d.journalAppend(record{Op: opBeatTS, T: now, Name: a.name, Timestamps: ts, Distortion: distortion})
	shift := now - ts[len(ts)-1]
	a.mon.BeatBatchShiftedAt(ts[:len(ts)-1], shift, now, distortion)
}

// BeatTimestamps ingests a batch whose per-beat timestamps the client
// supplied. The timestamps may use any epoch (a client monotonic clock,
// Unix seconds): only their spacing is used — the batch is shifted so
// its last beat lands at the daemon's current time, which makes the
// path immune to client/server clock skew. Timestamps must be finite
// and non-decreasing; beats that would land before the application's
// previous beat are clamped to it by the monitor.
func (d *Daemon) BeatTimestamps(name string, ts []float64, distortion float64) error {
	for i, t := range ts {
		// NaN also passes ordered comparisons, so check finiteness
		// first: a NaN timestamp would corrupt the monitor's frontier.
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("server: non-finite timestamp %g at index %d", t, i)
		}
		if i > 0 && t < ts[i-1] {
			return fmt.Errorf("server: timestamps decrease at index %d (%g after %g)", i, t, ts[i-1])
		}
	}
	a, err := d.beatTarget(name, len(ts), distortion)
	if err != nil {
		return err
	}
	d.ingestShifted(a, ts, distortion)
	d.beats.Add(uint64(len(ts)))
	return nil
}
