// Package heartbeat implements the Application Heartbeats API described
// in §3.1 of the paper (and in Hoffmann et al., ICAC 2010): applications
// emit heartbeats at semantically important intervals and declare goals
// (performance, accuracy, power, energy) in terms of those heartbeats;
// every other component of the system — most importantly the SEEC runtime
// in internal/core — observes progress toward the goals through a second,
// read-only interface.
//
// The API is deliberately split in two:
//
//   - the *application* side: Beat, BeatTagged, BeatWithAccuracy, and the
//     Set*Goal functions;
//   - the *observer* side: Observe and Goals, used by runtime deciders.
//
// Observe runs once per application per decision period, so it costs
// O(1) whenever it can: the window's endpoints give the rates, and the
// monitor remembers the sequence number of the newest beat that
// reported a non-zero distortion. Once that beat has left the window —
// or if there never was one: every application that never calls
// BeatWithAccuracy — every retained distortion is zero, the
// mean-distortion sum is exactly +0, and the ring is not walked. A
// window that does hold a report is summed oldest first, as it always
// was: a running float sum would drift from that by rounding; knowing
// whether there is anything to sum cannot.
package heartbeat

import (
	"fmt"
	"sync"

	"angstrom/internal/sim"
)

// Record is one emitted heartbeat.
type Record struct {
	Seq        uint64   // sequence number, starting at 1
	Tag        uint64   // application tag (0 if untagged)
	Time       sim.Time // simulated timestamp of emission
	Latency    float64  // seconds since the previous beat (0 for the first)
	Rate       float64  // instantaneous rate = 1/Latency (0 for the first)
	Distortion float64  // accuracy distortion reported with this beat
	EnergyJ    float64  // cumulative energy reading at emission, if a meter is attached
}

// EnergyMeter supplies cumulative energy readings so that energy and power
// goals can be evaluated between beats. The Angstrom energy sensors and
// the WattsUp model both satisfy this.
type EnergyMeter interface {
	EnergyJoules() float64
}

// Monitor is the per-application heartbeat buffer. One Monitor exists per
// instrumented application; it holds a ring of recent Records plus the
// application's declared goals.
//
// Monitor is safe for concurrent use: the application beats from its own
// goroutine while observers read from the runtime's.
type Monitor struct {
	mu     sync.Mutex
	clock  sim.Nower
	meter  EnergyMeter // optional
	window int
	ring   []Record // circular buffer of the last `window` beats
	start  int      // ring index of the oldest retained record
	size   int      // retained records (<= window)
	// lastReport is the Seq of the newest beat with Distortion != 0 (a
	// NaN counts, -0 does not; 0 before any). Once that beat has left the
	// window every retained distortion is zero, their sum is exactly +0,
	// and Observe skips the ring.
	lastReport uint64
	count      uint64   // total beats ever emitted
	first      sim.Time // time of first beat
	goals      Goals
}

// DefaultWindow is the heart-rate averaging window (in beats) used when
// the caller does not specify one. Twenty beats matches the smoothing used
// in the Application Heartbeats reference implementation.
const DefaultWindow = 20

// Option configures a Monitor.
type Option func(*Monitor)

// WithWindow sets the averaging window, in beats.
func WithWindow(n int) Option {
	return func(m *Monitor) { m.window = n }
}

// WithEnergyMeter attaches a cumulative energy source, enabling power and
// energy goal observation.
func WithEnergyMeter(e EnergyMeter) Option {
	return func(m *Monitor) { m.meter = e }
}

// New creates a Monitor that timestamps beats from clock.
func New(clock sim.Nower, opts ...Option) *Monitor {
	m := &Monitor{clock: clock, window: DefaultWindow}
	for _, o := range opts {
		o(m)
	}
	if m.window < 2 {
		panic(fmt.Sprintf("heartbeat: window %d too small (need >= 2)", m.window))
	}
	m.ring = make([]Record, m.window)
	return m
}

// Beat emits an untagged heartbeat with zero distortion.
func (m *Monitor) Beat() { m.emit(0, 0) }

// BeatTagged emits a heartbeat carrying an application tag. Tags delimit
// latency and energy goals ("target latency between specially tagged
// heartbeats", §3.1).
func (m *Monitor) BeatTagged(tag uint64) { m.emit(tag, 0) }

// BeatWithAccuracy emits a heartbeat reporting the distortion (linear
// distance from the application-defined nominal value, §3.1) of the work
// completed since the previous beat.
func (m *Monitor) BeatWithAccuracy(distortion float64) { m.emit(0, distortion) }

// BeatAt emits an untagged heartbeat stamped at time t instead of the
// clock's current time. Batched transports (the serving daemon's beats
// endpoint) and interval simulators (the chip model) use it to place
// each beat at its true emission time, so windowed rates stay unbiased
// even when many beats arrive in one call. Timestamps must not precede
// the previous beat; an earlier t is clamped to the previous beat's time
// (yielding a zero-latency record) rather than corrupting rate math with
// negative intervals.
func (m *Monitor) BeatAt(t sim.Time) { m.emitAt(t, 0, 0) }

// BeatWithAccuracyAt is BeatAt carrying a distortion report.
func (m *Monitor) BeatWithAccuracyAt(t sim.Time, distortion float64) { m.emitAt(t, 0, distortion) }

// emit stamps a beat at the monitor clock's current time.
//
//angstrom:hotpath
func (m *Monitor) emit(tag uint64, distortion float64) {
	m.emitAt(m.clock.Now(), tag, distortion)
}

// emitAt is the per-beat hot path of the serving daemon: every Beat
// variant and every chip-emitted heartbeat lands here, so it is gated
// at 0 allocs/op (BenchmarkMonitorBeatWindow4096) — O(1) circular
// insert, no formatting, no boxing.
//
//angstrom:hotpath
func (m *Monitor) emitAt(now sim.Time, tag uint64, distortion float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.emitLocked(now, tag, distortion)
}

// BeatBatchSpreadAt ingests a server-spread batch under one lock
// acquisition: count beats spread evenly across the interval since the
// monitor's previous beat, the final one landing at now carrying
// distortion. With no prior beat, a single-beat batch, or a paused
// clock (accelerated daemons between ticks) every beat lands at now.
// The placement is byte-identical to count sequential BeatAt calls
// computed against the same last-beat time — the batched form just
// stops a large batch from bouncing the mutex per beat, and reads the
// spread reference under the same lock so concurrent writers to one
// monitor cannot interleave mid-batch.
//
//angstrom:hotpath
func (m *Monitor) BeatBatchSpreadAt(now sim.Time, count int, distortion float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var last sim.Time
	if m.count > 0 {
		last = m.last().Time
	}
	if count == 1 || last <= 0 || now <= last {
		for i := 0; i < count-1; i++ {
			m.emitLocked(now, 0, 0)
		}
	} else {
		step := (now - last) / float64(count)
		for i := 1; i < count; i++ {
			m.emitLocked(last+step*float64(i), 0, 0)
		}
	}
	m.emitLocked(now, 0, distortion)
}

// BeatBatchShiftedAt ingests a client-timestamped batch under one lock
// acquisition: every ts[i]+shift in order, then one final beat exactly
// at now carrying distortion. The final beat takes now directly rather
// than lastTS+shift because the two differ in float arithmetic, and
// the daemon's clock-skew contract is that a shifted batch's last beat
// lands exactly on the server clock.
//
//angstrom:hotpath
func (m *Monitor) BeatBatchShiftedAt(ts []sim.Time, shift, now sim.Time, distortion float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range ts {
		m.emitLocked(t+shift, 0, 0)
	}
	m.emitLocked(now, 0, distortion)
}

// emitLocked inserts one record; caller holds m.mu.
//
//angstrom:hotpath
func (m *Monitor) emitLocked(now sim.Time, tag uint64, distortion float64) {
	if m.count > 0 {
		if last := m.last().Time; now < last {
			now = last
		}
	}
	rec := Record{
		Seq:        m.count + 1,
		Tag:        tag,
		Time:       now,
		Distortion: distortion,
	}
	if m.meter != nil {
		rec.EnergyJ = m.meter.EnergyJoules()
	}
	if m.count == 0 {
		m.first = now
	} else {
		prev := m.last()
		rec.Latency = now - prev.Time
		if rec.Latency > 0 {
			rec.Rate = 1 / rec.Latency
		}
	}
	// O(1) circular insert: overwrite the oldest slot once the window is
	// full. This is the per-beat hot path of the serving daemon — the old
	// copy(m.ring, m.ring[1:]) shift was O(window) per beat.
	if m.size < m.window {
		m.ring[(m.start+m.size)%m.window] = rec
		m.size++
	} else {
		m.ring[m.start] = rec
		m.start = (m.start + 1) % m.window
	}
	if distortion != 0 {
		m.lastReport = rec.Seq
	}
	m.count++
}

// reportsDistortion reports whether any retained record carries a
// non-zero distortion: the window holds Seq count-size+1 .. count.
// Caller holds m.mu.
func (m *Monitor) reportsDistortion() bool { return m.lastReport+uint64(m.size) > m.count }

// at returns the i-th oldest retained record (0 <= i < m.size); caller
// holds m.mu.
func (m *Monitor) at(i int) Record { return m.ring[(m.start+i)%m.window] }

// last returns the most recent record; caller holds m.mu and has checked
// m.count > 0.
func (m *Monitor) last() Record { return m.at(m.size - 1) }

// Count reports the total number of beats emitted so far. Like
// LastTime it is O(1) under the mutex, cheap enough for fleet-scale
// observers to poll once per app per tick phase.
func (m *Monitor) Count() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.count
}

// LastTime reports the timestamp of the most recent beat (0 before the
// first beat). Unlike Observe it is O(1), so per-batch hot paths can use
// it to spread server-side timestamps without scanning the window.
func (m *Monitor) LastTime() sim.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == 0 {
		return 0
	}
	return m.last().Time
}

// Observation is a consistent snapshot of application progress, the
// observer-side view of §3.1.
type Observation struct {
	Beats         uint64  // total beats emitted
	WindowRate    float64 // beats/s over the averaging window
	GlobalRate    float64 // beats/s since the first beat
	InstantRate   float64 // rate implied by the most recent inter-beat gap
	WindowLatency float64 // mean inter-beat latency over the window, seconds
	Distortion    float64 // mean distortion over the window
	PowerW        float64 // mean power over the window (0 if no meter)
	LastTime      sim.Time
}

// Observe returns the current snapshot. With fewer than two beats the
// rates are zero. It is the observe step of every runtime's decision
// period: O(1) unless the window holds a non-zero distortion report
// (see the package comment), and never allocating
// (TestObserveAllocatesNothing holds it at 0 allocations).
//
//angstrom:hotpath
func (m *Monitor) Observe() Observation {
	m.mu.Lock()
	defer m.mu.Unlock()
	var o Observation
	o.Beats = m.count
	if m.size == 0 {
		return o
	}
	newest := m.last()
	o.LastTime = newest.Time
	if m.count >= 2 {
		oldest := m.at(0)
		span := newest.Time - oldest.Time
		nIntervals := float64(m.size - 1)
		if span > 0 && nIntervals > 0 {
			o.WindowRate = nIntervals / span
			o.WindowLatency = span / nIntervals
		}
		if meterSpan := newest.EnergyJ - oldest.EnergyJ; span > 0 && m.meter != nil {
			o.PowerW = meterSpan / span
		}
		o.InstantRate = newest.Rate
		total := newest.Time - m.first
		if total > 0 {
			o.GlobalRate = float64(m.count-1) / total
		}
	}
	sum := 0.0
	if m.reportsDistortion() {
		// Oldest first over the ring's two contiguous runs, in place: the
		// summation order is part of the result.
		end := m.start + m.size
		wrapped := 0
		if end > m.window {
			end, wrapped = m.window, end-m.window
		}
		for i := m.start; i < end; i++ {
			sum += m.ring[i].Distortion
		}
		for i := 0; i < wrapped; i++ {
			sum += m.ring[i].Distortion
		}
	}
	o.Distortion = sum / float64(m.size)
	return o
}

// Window returns a copy of the current ring contents, oldest first.
func (m *Monitor) Window() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Record, m.size)
	for i := range out {
		out[i] = m.at(i)
	}
	return out
}

// TaggedSpan reports the elapsed time and energy between the most recent
// beat tagged `end` and the closest preceding beat tagged `start` inside
// the window. ok is false if the window does not contain such a pair.
func (m *Monitor) TaggedSpan(start, end uint64) (seconds, joules float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	endIdx := -1
	for i := m.size - 1; i >= 0; i-- {
		if m.at(i).Tag == end {
			endIdx = i
			break
		}
	}
	if endIdx < 0 {
		return 0, 0, false
	}
	endRec := m.at(endIdx)
	for i := endIdx - 1; i >= 0; i-- {
		if r := m.at(i); r.Tag == start {
			return endRec.Time - r.Time, endRec.EnergyJ - r.EnergyJ, true
		}
	}
	return 0, 0, false
}
