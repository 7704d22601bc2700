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
// A Monitor keeps its window of recent beats as columns, and stores only
// what a beat carries. Every beat has a time: that column always exists,
// 8 bytes a slot. A cumulative energy reading is taken only when an
// EnergyMeter is attached, so only then is there an energy column. The
// distortion and tag columns are allocated by the first beat that
// carries a non-zero bit pattern (so -0 and NaN are stored); before that
// every retained value is +0. A Record's Seq, Latency and Rate are not
// stored at all: they are derived from the beat count and adjacent
// times when read, by the same subtraction and division that stamped
// them when they were stored.
//
// Every Beat* entry point is a batch for the ring's one writer: n beats
// under one lock, a single beat being the n = 1 batch. A batch is
// byte-identical to n sequential single-beat inserts, each clamped to
// its predecessor, but it computes and stores only the min(n, window)
// beats the window retains, so a batch costs O(min(n, window)), not
// O(n). (A client-timestamped batch still compares the stamps the
// window drops, since any of them can clamp the ones it keeps, and a
// metered monitor still reads its meter once per beat.)
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
	"math"
	"sync"

	"angstrom/internal/sim"
)

// Record is one emitted heartbeat, as Window reports it. A Monitor
// stores Time always, EnergyJ when a meter is attached, and Distortion
// and Tag once some beat has carried a non-zero one; Seq, Latency and
// Rate are derived when the record is read.
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
// goals can be evaluated between beats. The WattsUp model
// (xeon.PowerMeter) satisfies this.
type EnergyMeter interface {
	EnergyJoules() float64
}

// Monitor is the per-application heartbeat buffer. One Monitor exists per
// instrumented application; it holds a ring of recent beats plus the
// application's declared goals.
//
// Monitor is safe for concurrent use: the application beats from its own
// goroutine while observers read from the runtime's.
type Monitor struct {
	mu     sync.Mutex
	clock  sim.Nower
	meter  EnergyMeter // optional
	window int
	// The ring is a set of columns of `window` slots indexed alike; slot
	// (start+i)%window holds the i-th oldest retained beat.
	times  []sim.Time // every beat's time
	energy []float64  // meter readings; nil without a meter
	// Bit patterns of each beat's distortion and its tag; each is nil
	// until the first beat with a non-zero one (see column), and every
	// retained value is zero while it is.
	distortion, tags []uint64
	// before is the time of the beat just before the oldest retained one
	// (meaningful once a beat has been evicted): the oldest record's
	// Latency is derived from it.
	before sim.Time
	start  int // ring index of the oldest retained beat
	size   int // retained beats (<= window)
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
	m.times = make([]sim.Time, m.window)
	if m.meter != nil {
		m.energy = make([]float64, m.window)
	}
	return m
}

// Beat emits an untagged heartbeat with zero distortion.
func (m *Monitor) Beat() { m.emit(0, 0) }

// BeatTagged emits a heartbeat carrying an application tag. Tags delimit
// latency and energy goals ("target latency between specially tagged
// heartbeats", §3.1).
//
//lint:allow unusedexport the tagged and accuracy goal kinds wait for ROADMAP V/M to decide what a served goal is
func (m *Monitor) BeatTagged(tag uint64) { m.emit(tag, 0) }

// BeatWithAccuracy emits a heartbeat reporting the distortion (linear
// distance from the application-defined nominal value, §3.1) of the work
// completed since the previous beat.
//
//lint:allow unusedexport the tagged and accuracy goal kinds wait for ROADMAP V/M to decide what a served goal is
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
//
//lint:allow unusedexport the batch-equivalence tests replay beats through it as their reference
func (m *Monitor) BeatWithAccuracyAt(t sim.Time, distortion float64) { m.emitAt(t, 0, distortion) }

// emit stamps a beat at the monitor clock's current time.
//
//angstrom:hotpath
func (m *Monitor) emit(tag uint64, distortion float64) {
	m.emitAt(m.clock.Now(), tag, distortion)
}

// emitAt is the single-beat path of every chip-emitted heartbeat and
// of the Beat variants: a batch of one, which TestBeatAllocatesNothing
// holds to 0 allocations.
//
//angstrom:hotpath
func (m *Monitor) emitAt(now sim.Time, tag uint64, distortion float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := batch{n: 1, now: now}
	m.writeLocked(&b, tag, distortion)
}

// BeatBatchSpreadAt ingests a server-spread batch under one lock
// acquisition: count beats spread evenly across the interval since the
// monitor's previous beat, the final one landing at now carrying
// distortion. With no prior beat, a single-beat batch, or a paused
// clock (accelerated daemons between ticks) every beat lands at now.
// The result is byte-identical to count sequential BeatAt calls
// computed against the same last-beat time, and it costs
// O(min(count, window)): only the beats the window retains are
// computed and stored. The spread reference is read under the same
// lock, so concurrent writers to one monitor cannot interleave
// mid-batch. A count below 1 is one beat.
//
//angstrom:hotpath
func (m *Monitor) BeatBatchSpreadAt(now sim.Time, count int, distortion float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := batch{n: max(count, 1), now: now}
	var last sim.Time
	if m.count > 0 {
		last = m.timeAt(m.size - 1)
	}
	if !(count == 1 || last <= 0 || now <= last) { // so a NaN last or now spreads
		b.spread, b.last, b.step = true, last, (now-last)/float64(count)
	}
	m.writeLocked(&b, 0, distortion)
}

// BeatBatchShiftedAt ingests a client-timestamped batch under one lock
// acquisition: every ts[i]+shift in order, then one final beat exactly
// at now carrying distortion. The final beat takes now directly rather
// than lastTS+shift because the two differ in float arithmetic, and
// the daemon's clock-skew contract is that a shifted batch's last beat
// lands exactly on the server clock. The result is byte-identical to
// len(ts)+1 sequential BeatAt calls; only the min(len(ts)+1, window)
// beats the window retains are stored, and the stamps before them are
// only compared, for the clamp.
//
//angstrom:hotpath
func (m *Monitor) BeatBatchShiftedAt(ts []sim.Time, shift, now sim.Time, distortion float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b := batch{n: len(ts) + 1, now: now, ts: ts, shift: shift}
	m.writeLocked(&b, 0, distortion)
}

// A batch is n beats in Seq order: n-1 leading beats, then a final one
// at now that carries the batch's tag and distortion. A single beat is
// the n = 1 batch.
type batch struct {
	n   int
	now sim.Time
	// The shifted form: leading beat j at ts[j]+shift.
	ts    []sim.Time
	shift sim.Time
	// The spread form: leading beat j at last+step*(j+1). With neither
	// form every leading beat is at now.
	spread     bool
	last, step sim.Time
}

// at is beat j's time before the clamp.
//
//angstrom:hotpath
func (b *batch) at(j int) sim.Time {
	switch {
	case j == b.n-1:
		return b.now
	case b.ts != nil:
		return b.ts[j] + b.shift
	case b.spread:
		return b.last + b.step*float64(j+1)
	}
	return b.now
}

// clampThrough returns leading beat k-1's clamped time, given cur, the
// time of the beat before beat 0, without visiting the beats before it
// where it can. A spread beat never clamps: step is >= 0 or NaN, so
// last+step*i falls below neither last nor its predecessor. A run of
// beats all at now clamps as its first beat does. Only client stamps,
// which may step back, must all be compared.
//
//angstrom:hotpath
func (b *batch) clampThrough(cur sim.Time, k int) sim.Time {
	if b.ts == nil {
		return clamp(cur, b.at(k-1))
	}
	for _, t := range b.ts[:k] {
		cur = clamp(cur, t+b.shift)
	}
	return cur
}

// clamp is a beat stamped t after a beat at prev: t, unless that is
// earlier than prev (a NaN on either side passes t through).
//
//angstrom:hotpath
func clamp(prev, t sim.Time) sim.Time {
	if t < prev {
		return prev
	}
	return t
}

// writeLocked is the ring's one writer: it inserts a batch exactly as
// n sequential single-beat inserts would (each beat clamped to its
// predecessor, the oldest slot overwritten once the window is full, its
// time kept in before), but computes and stores only the
// min(n, window) beats the window retains: the retained leading beats
// in at most two contiguous runs of slots, then the final beat. A
// metered monitor still reads its meter once per beat, in order.
// Caller holds m.mu.
//
//angstrom:hotpath
func (m *Monitor) writeLocked(b *batch, tag uint64, distortion float64) {
	w, n := m.window, b.n
	keep := min(n, w) // the batch's beats the window retains
	skip := n - keep  // leading beats overwritten within the batch
	next := m.start + m.size
	if next >= w {
		next -= w
	}
	// cur is the clamped time of the beat before the next one stored.
	var cur sim.Time
	if m.count == 0 {
		cur = b.at(0)
		m.first = cur
	} else if next > 0 {
		cur = m.times[next-1]
	} else {
		cur = m.times[w-1]
	}
	s0 := next // the first retained beat's slot
	if skip > 0 {
		cur = b.clampThrough(cur, skip)
		m.before = cur
		s0 = 0 // the batch rewrites every slot: start the run at the first
	} else if over := m.size + n - w; over > 0 {
		i := m.start + over - 1
		if i >= w {
			i -= w
		}
		m.before = m.times[i]
	}
	// The retained leading beats fill [s0, end) and [0, wrap); the
	// final beat lands in newest, the slot after them.
	end, wrap := s0+keep-1, 0
	if end > w {
		end, wrap = w, end-w
	}
	newest := end
	if end == w {
		newest = wrap
	}
	if keep > 1 { // a single beat has no leading beats to store
		cur = b.store(m.times[s0:end], skip, cur)
		cur = b.store(m.times[:wrap], skip+end-s0, cur)
	}
	m.times[newest] = clamp(cur, b.now)
	if m.meter != nil {
		for range skip {
			m.meter.EnergyJoules()
		}
		for i := range m.energy[s0:end] {
			m.energy[s0+i] = m.meter.EnergyJoules()
		}
		for i := range m.energy[:wrap] {
			m.energy[i] = m.meter.EnergyJoules()
		}
		m.energy[newest] = m.meter.EnergyJoules()
	}
	if m.size+n <= w {
		m.size += n
	} else {
		m.size = w
		m.start = newest + 1
		if m.start == w {
			m.start = 0
		}
	}
	m.count += uint64(n)
	if m.distortion != nil {
		clear(m.distortion[s0:end])
		clear(m.distortion[:wrap])
	}
	if d := math.Float64bits(distortion); d != 0 || m.distortion != nil {
		if m.distortion == nil {
			m.distortion = m.column()
		}
		m.distortion[newest] = d
	}
	if m.tags != nil {
		clear(m.tags[s0:end])
		clear(m.tags[:wrap])
	}
	if tag != 0 || m.tags != nil {
		if m.tags == nil {
			m.tags = m.column()
		}
		m.tags[newest] = tag
	}
	if distortion != 0 {
		m.lastReport = m.count
	}
}

// store writes leading beats j, j+1, ... clamped, into the contiguous
// slots dst, after a beat at cur, and returns the last time stored (cur
// if dst is empty). Each form has its own loop, so no beat pays for the
// choice.
//
//angstrom:hotpath
func (b *batch) store(dst []sim.Time, j int, cur sim.Time) sim.Time {
	switch {
	case b.ts != nil:
		for i, t := range b.ts[j : j+len(dst)] {
			cur = clamp(cur, t+b.shift)
			dst[i] = cur
		}
	case b.spread:
		for i := range dst {
			cur = b.last + b.step*float64(j+i+1) // never clamps (see clampThrough)
			dst[i] = cur
		}
	default:
		for i := range dst {
			cur = clamp(cur, b.now)
			dst[i] = cur
		}
	}
	return cur
}

// column allocates one of the ring's lazily stored columns, zeroed:
// the only allocation a beat can make. It runs at most once per column
// per monitor, on the first beat that carries a non-zero value for it
// (TestMonitorFootprint pins both).
func (m *Monitor) column() []uint64 { return make([]uint64, m.window) }

// reportsDistortion reports whether any retained record carries a
// non-zero distortion: the window holds Seq count-size+1 .. count.
// Caller holds m.mu.
func (m *Monitor) reportsDistortion() bool { return m.lastReport+uint64(m.size) > m.count }

// timeAt returns the time of the i-th oldest retained beat
// (0 <= i < m.size); caller holds m.mu.
//
//angstrom:hotpath
func (m *Monitor) timeAt(i int) sim.Time { return m.times[(m.start+i)%m.window] }

// rateAt derives the i-th oldest retained beat's Latency and Rate
// exactly as they were once stamped on it: its time minus its
// predecessor's, and 1/latency when that is positive; both 0 for the
// first beat ever. Caller holds m.mu.
//
//angstrom:hotpath
func (m *Monitor) rateAt(i int) (latency, rate float64) {
	if m.count-uint64(m.size)+uint64(i) == 0 {
		return 0, 0
	}
	prev := m.before
	if i > 0 {
		prev = m.timeAt(i - 1)
	}
	latency = m.timeAt(i) - prev
	if latency > 0 {
		rate = 1 / latency
	}
	return latency, rate
}

// at returns the i-th oldest retained record (0 <= i < m.size); caller
// holds m.mu.
func (m *Monitor) at(i int) Record {
	slot := (m.start + i) % m.window
	r := Record{Seq: m.count - uint64(m.size) + uint64(i) + 1, Time: m.times[slot]}
	r.Latency, r.Rate = m.rateAt(i)
	if m.tags != nil {
		r.Tag = m.tags[slot]
	}
	if m.distortion != nil {
		r.Distortion = math.Float64frombits(m.distortion[slot])
	}
	if m.energy != nil {
		r.EnergyJ = m.energy[slot]
	}
	return r
}

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
	return m.timeAt(m.size - 1)
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
	newest := m.timeAt(m.size - 1)
	o.LastTime = newest
	if m.count >= 2 {
		span := newest - m.times[m.start]
		nIntervals := float64(m.size - 1)
		if span > 0 && nIntervals > 0 {
			o.WindowRate = nIntervals / span
			o.WindowLatency = span / nIntervals
		}
		if span > 0 && m.meter != nil {
			o.PowerW = (m.energy[(m.start+m.size-1)%m.window] - m.energy[m.start]) / span
		}
		_, o.InstantRate = m.rateAt(m.size - 1)
		total := newest - m.first
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
		for _, d := range m.distortion[m.start:end] {
			sum += math.Float64frombits(d)
		}
		for _, d := range m.distortion[:wrapped] {
			sum += math.Float64frombits(d)
		}
	}
	o.Distortion = sum / float64(m.size)
	return o
}

// Window returns a copy of the current ring contents, oldest first.
//
//lint:allow unusedexport the ring-identity tests compare monitors record for record through it
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
