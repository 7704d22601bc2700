package heartbeat

import "sync/atomic"

// Shared beat counters. A fleet-wide total hammered by every ingesting
// connection turns one cache line into a coherence hot spot long before
// the monitor rings saturate, so the serving daemon batches its hot
// counters with the delta-then-atomic-add pattern: each writer
// accumulates privately and publishes one atomic add per threshold
// crossing (or on an explicit flush barrier), trading bounded staleness
// for a ~threshold-fold reduction in cross-core traffic.

// Counter is a shared monotonic counter on its own cache line. The
// leading and trailing pads keep neighbouring fields (other counters,
// struct headers) from false-sharing its line under heavy multi-core
// ingestion.
type Counter struct {
	_ [64]byte
	n atomic.Uint64
	_ [56]byte
}

// Add publishes n into the counter.
//
//angstrom:hotpath
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Load returns the published total. Writers holding unflushed deltas
// make the value stale by at most their flush thresholds.
func (c *Counter) Load() uint64 { return c.n.Load() }

// Store resets the counter (snapshot restore).
func (c *Counter) Store(n uint64) { c.n.Store(n) }

// DefaultDeltaFlush is the Delta publication threshold when the owner
// does not choose one: large enough that a million-beat/s writer issues
// a few hundred atomic adds per second instead of a million.
const DefaultDeltaFlush = 4096

// Delta is a writer-private accumulator in front of a shared Counter:
// Add buffers locally and publishes with a single atomic add once the
// pending count reaches FlushEvery. A Delta is owned by exactly one
// goroutine (it is deliberately not synchronized); the owner must call
// Flush at its barriers — connection close, explicit client flush —
// so the shared total reconciles exactly with per-beat ground truth.
type Delta struct {
	C *Counter
	// FlushEvery is the publication threshold (0 = DefaultDeltaFlush).
	FlushEvery uint64
	pending    uint64
}

// Add buffers n, publishing to the shared counter when the pending
// delta crosses the flush threshold.
//
//angstrom:hotpath
func (d *Delta) Add(n uint64) {
	d.pending += n
	limit := d.FlushEvery
	if limit == 0 {
		limit = DefaultDeltaFlush
	}
	if d.pending >= limit {
		d.C.Add(d.pending)
		d.pending = 0
	}
}

// Flush publishes any pending delta. After Flush the shared counter
// has seen every Add this writer made.
func (d *Delta) Flush() {
	if d.pending > 0 {
		d.C.Add(d.pending)
		d.pending = 0
	}
}
