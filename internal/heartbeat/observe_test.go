package heartbeat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"angstrom/internal/sim"
)

// observeReference is Observe as it was before the monitor tracked its
// newest non-zero distortion report: every field from the window's endpoints,
// and the mean distortion from a sum over the whole ring, oldest first.
// It is the definition the O(1) path must reproduce bit for bit.
func observeReference(m *Monitor) Observation {
	m.mu.Lock()
	defer m.mu.Unlock()
	var o Observation
	o.Beats = m.count
	if m.size == 0 {
		return o
	}
	newest := m.at(m.size - 1)
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
	for i := 0; i < m.size; i++ {
		sum += m.at(i).Distortion
	}
	o.Distortion = sum / float64(m.size)
	return o
}

// sameObservation compares field for field on the bit patterns, so a
// -0 for a +0 or one NaN for another is a difference.
func sameObservation(a, b Observation) bool {
	bits := math.Float64bits
	return a.Beats == b.Beats &&
		bits(a.WindowRate) == bits(b.WindowRate) &&
		bits(a.GlobalRate) == bits(b.GlobalRate) &&
		bits(a.InstantRate) == bits(b.InstantRate) &&
		bits(a.WindowLatency) == bits(b.WindowLatency) &&
		bits(a.Distortion) == bits(b.Distortion) &&
		bits(a.PowerW) == bits(b.PowerW) &&
		bits(a.LastTime) == bits(b.LastTime)
}

// nonzeroInWindow counts what the monitor only needs to know is zero.
func nonzeroInWindow(m *Monitor) int {
	n := 0
	for _, r := range m.Window() {
		if r.Distortion != 0 {
			n++
		}
	}
	return n
}

// Observe is bit-identical to the O(window) reference under random
// interleavings of every timestamped beat entry point, across window
// wrap-around, for distortions that stress the sum: signed zeros (which
// are not reports), values that cancel, values that vanish
// against their neighbours, and values that overflow it. Each run ends
// by flushing the window with zero-distortion beats one at a time, so
// the step on which the last non-zero report is evicted — where the
// summing path hands over to the constant one — is compared too.
func TestObserveMatchesWindowSum(t *testing.T) {
	negZero := math.Copysign(0, -1)
	distortions := []float64{0, 0, 0, negZero, 0.25, -0.25, 1e-300, -1e-300, 5e-324, 1e150, -1e150, 1e308, math.Inf(1), math.NaN()}
	for _, window := range []int{2, 3, 8, 20, 256} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(window)))
			meter := &fakeMeter{}
			opts := []Option{WithWindow(window)}
			if seed%3 == 0 {
				opts = append(opts, WithEnergyMeter(meter))
			}
			m := New(sim.NewClock(0), opts...)
			now := sim.Time(0)
			sawSum, sawSkip := false, false
			check := func(step string) {
				t.Helper()
				got, want := m.Observe(), observeReference(m)
				if !sameObservation(got, want) {
					t.Fatalf("window %d seed %d, after %s (beat %d):\n got %+v\nwant %+v", window, seed, step, got.Beats, got, want)
				}
				if n := nonzeroInWindow(m); (n > 0) != m.reportsDistortion() {
					t.Fatalf("window %d seed %d, after %s: monitor says reports in window: %v; window holds %d", window, seed, step, m.reportsDistortion(), n)
				}
				if m.reportsDistortion() {
					sawSum = true
				} else {
					sawSkip = true
				}
			}
			pick := func() float64 {
				// Long quiet stretches between bursts of reports, so windows
				// drain to all-zero and refill many times per run.
				if rng.Intn(4*window) > 3 {
					return []float64{0, negZero}[rng.Intn(2)]
				}
				return distortions[rng.Intn(len(distortions))]
			}
			check("construction")
			for op := 0; op < 24*window; op++ {
				now += sim.Time(rng.Float64() * 0.01)
				meter.joules += rng.Float64()
				switch rng.Intn(5) {
				case 0:
					m.BeatAt(now)
					check("BeatAt")
				case 1:
					m.BeatWithAccuracyAt(now, pick())
					check("BeatWithAccuracyAt")
				case 2:
					m.BeatBatchSpreadAt(now, 1+rng.Intn(2*window), pick())
					check("BeatBatchSpreadAt")
				case 3:
					ts := make([]sim.Time, rng.Intn(window+2))
					at := now - 0.005
					for i := range ts {
						at += sim.Time(rng.Float64() * 0.001)
						ts[i] = at
					}
					m.BeatBatchShiftedAt(ts, now-at, now, pick())
					check("BeatBatchShiftedAt")
				case 4:
					m.BeatWithAccuracyAt(now-1, pick()) // clamped to the previous beat
					check("BeatWithAccuracyAt in the past")
				}
			}
			m.BeatWithAccuracyAt(now, 0.5)
			for i := 0; i < window+1; i++ {
				now += 0.001
				m.BeatAt(now)
				check("flush")
			}
			if m.reportsDistortion() {
				t.Fatalf("window %d seed %d: a window flushed with zeros still reports distortion", window, seed)
			}
			if !sawSum || !sawSkip {
				t.Fatalf("window %d seed %d: run did not cross both paths (summed %v, skipped %v)", window, seed, sawSum, sawSkip)
			}
		}
	}
}

// Observe allocates nothing on either path.
func TestObserveAllocatesNothing(t *testing.T) {
	c := sim.NewClock(0)
	for _, distortion := range []float64{0, 0.5} {
		m := New(c, WithWindow(256))
		for i := 0; i < 300; i++ {
			c.Advance(0.01)
			m.BeatWithAccuracy(distortion)
		}
		var o Observation
		if n := testing.AllocsPerRun(100, func() { o = m.Observe() }); n != 0 {
			t.Fatalf("Observe with distortion %g: %g allocs per call, want 0", distortion, n)
		}
		if o.Distortion != distortion {
			t.Fatalf("mean distortion %g, want %g", o.Distortion, distortion)
		}
	}
}

// refRing is the monitor's ring as it was before it was stored as
// columns: one 56-byte Record per slot with every field stamped at
// emission. It is the definition the columnar ring must reproduce bit
// for bit; beside it, Observe keeps its O(1) endpoint reads and its
// skip of an all-zero distortion window, as the monitor's does.
type refRing struct {
	clock      sim.Nower
	meter      EnergyMeter
	window     int
	ring       []Record
	start      int
	size       int
	lastReport uint64
	count      uint64
	first      sim.Time
}

func newRefRing(clock sim.Nower, meter EnergyMeter, window int) *refRing {
	return &refRing{clock: clock, meter: meter, window: window, ring: make([]Record, window)}
}

func (m *refRing) at(i int) Record { return m.ring[(m.start+i)%m.window] }
func (m *refRing) last() Record    { return m.at(m.size - 1) }

func (m *refRing) emitLocked(now sim.Time, tag uint64, distortion float64) {
	if m.count > 0 {
		if last := m.last().Time; now < last {
			now = last
		}
	}
	rec := Record{Seq: m.count + 1, Tag: tag, Time: now, Distortion: distortion}
	if m.meter != nil {
		rec.EnergyJ = m.meter.EnergyJoules()
	}
	if m.count == 0 {
		m.first = now
	} else {
		rec.Latency = now - m.last().Time
		if rec.Latency > 0 {
			rec.Rate = 1 / rec.Latency
		}
	}
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

func (m *refRing) emit(tag uint64, distortion float64) { m.emitLocked(m.clock.Now(), tag, distortion) }

func (m *refRing) batchSpreadAt(now sim.Time, count int, distortion float64) {
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

func (m *refRing) batchShiftedAt(ts []sim.Time, shift, now sim.Time, distortion float64) {
	for _, t := range ts {
		m.emitLocked(t+shift, 0, 0)
	}
	m.emitLocked(now, 0, distortion)
}

func (m *refRing) lastTime() sim.Time {
	if m.count == 0 {
		return 0
	}
	return m.last().Time
}

func (m *refRing) observe() Observation {
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
	if m.lastReport+uint64(m.size) > m.count {
		for i := 0; i < m.size; i++ {
			sum += m.at(i).Distortion
		}
	}
	o.Distortion = sum / float64(m.size)
	return o
}

func (m *refRing) windowCopy() []Record {
	out := make([]Record, m.size)
	for i := range out {
		out[i] = m.at(i)
	}
	return out
}

func (m *refRing) taggedSpan(start, end uint64) (seconds, joules float64, ok bool) {
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

// sameRecord compares every field on its bit pattern.
func sameRecord(a, b Record) bool {
	bits := math.Float64bits
	return a.Seq == b.Seq && a.Tag == b.Tag &&
		bits(a.Time) == bits(b.Time) &&
		bits(a.Latency) == bits(b.Latency) &&
		bits(a.Rate) == bits(b.Rate) &&
		bits(a.Distortion) == bits(b.Distortion) &&
		bits(a.EnergyJ) == bits(b.EnergyJ)
}

// ringTags are the tags the ring tests beat with.
var ringTags = []uint64{1, 2, 7}

// compareRings fails t unless m reads exactly as ref does: Observe,
// Window, LastTime, Count, and TaggedSpan over every pair of ringTags
// and the untagged 0, each compared on its bit patterns.
func compareRings(t *testing.T, m *Monitor, ref *refRing, where string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (beat %d): "+format, append([]any{where, ref.count}, args...)...)
	}
	if got, want := m.Observe(), ref.observe(); !sameObservation(got, want) {
		fail("Observe\n got %+v\nwant %+v", got, want)
	}
	got, want := m.Window(), ref.windowCopy()
	if len(got) != len(want) {
		fail("Window holds %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			fail("Window[%d]\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if got, want := m.LastTime(), ref.lastTime(); math.Float64bits(got) != math.Float64bits(want) {
		fail("LastTime %g, want %g", got, want)
	}
	if got, want := m.Count(), ref.count; got != want {
		fail("Count %d, want %d", got, want)
	}
	for _, a := range append(ringTags, 0) {
		for _, b := range append(ringTags, 0) {
			s, j, ok := m.TaggedSpan(a, b)
			ws, wj, wok := ref.taggedSpan(a, b)
			if ok != wok || math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(j) != math.Float64bits(wj) {
				fail("TaggedSpan(%d, %d) = %g, %g, %v; want %g, %g, %v", a, b, s, j, ok, ws, wj, wok)
			}
		}
	}
}

// stamps returns n client timestamps from at on, each 0 to 1 ms after
// the last, or, when back is set, up to 0.25 ms before it in a fifth of
// the steps (the monitor clamps what the daemon's decoder would refuse).
func stamps(rng *rand.Rand, n int, at sim.Time, back bool) []sim.Time {
	ts := make([]sim.Time, n)
	for i := range ts {
		step := rng.Float64() * 0.001
		if back && rng.Intn(5) == 0 {
			step = -step / 4
		}
		at += sim.Time(step)
		ts[i] = at
	}
	return ts
}

// The columnar ring is the old ring: random interleavings of every beat
// entry point — clocked and timestamped, tagged, batched both ways with
// batches up to ten windows long, clamped into the past — across window
// wrap-around, with and without a meter, and with distortions that are
// signed zeros, NaN, cancelling or overflowing, leave Window, Observe,
// LastTime, Count and TaggedSpan bit-identical to refRing's after every
// call. Runs that never carry a distortion or a tag keep those columns
// unallocated, and are compared too.
func TestColumnarRingMatchesRecordRing(t *testing.T) {
	negZero := math.Copysign(0, -1)
	distortions := []float64{negZero, 0.25, -0.25, 1e-300, -1e-300, 5e-324, 1e150, -1e150, 1e308, -1e308, math.Inf(1), math.NaN()}
	for _, window := range []int{2, 3, 8, 20, 256} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed*7919 + int64(window)))
			clock := sim.NewClock(0)
			meter := &fakeMeter{}
			opts := []Option{WithWindow(window)}
			var refMeter EnergyMeter
			if seed%2 == 0 {
				opts = append(opts, WithEnergyMeter(meter))
				refMeter = meter
			}
			// Seeds 1 and 2 carry neither distortion nor tags.
			plain := seed <= 2
			m, ref := New(clock, opts...), newRefRing(clock, refMeter, window)
			pickD := func() float64 {
				if plain || rng.Intn(3) > 0 {
					return 0
				}
				return distortions[rng.Intn(len(distortions))]
			}
			pickTag := func() uint64 {
				if plain || rng.Intn(3) > 0 {
					return 0
				}
				return ringTags[rng.Intn(len(ringTags))]
			}
			check := func(step string) {
				t.Helper()
				compareRings(t, m, ref, fmt.Sprintf("window %d seed %d, after %s", window, seed, step))
			}
			check("construction")
			for op := 0; op < 3*window+60; op++ {
				clock.Advance(sim.Time(rng.Float64() * 0.01))
				now := clock.Now()
				meter.joules += rng.Float64()
				switch rng.Intn(8) {
				case 0:
					m.Beat()
					ref.emit(0, 0)
					check("Beat")
				case 1:
					tag := pickTag()
					m.BeatTagged(tag)
					ref.emit(tag, 0)
					check("BeatTagged")
				case 2:
					d := pickD()
					m.BeatWithAccuracy(d)
					ref.emit(0, d)
					check("BeatWithAccuracy")
				case 3:
					m.BeatAt(now)
					ref.emitLocked(now, 0, 0)
					check("BeatAt")
				case 4:
					d := pickD()
					m.BeatWithAccuracyAt(now, d)
					ref.emitLocked(now, 0, d)
					check("BeatWithAccuracyAt")
				case 5:
					n, d := 1+rng.Intn(10*window), pickD()
					m.BeatBatchSpreadAt(now, n, d)
					ref.batchSpreadAt(now, n, d)
					check("BeatBatchSpreadAt")
				case 6:
					at := now - 0.005
					ts := stamps(rng, rng.Intn(3*window+2), at, rng.Intn(4) == 0)
					if len(ts) > 0 {
						at = ts[len(ts)-1]
					}
					d, shift := pickD(), now-at
					m.BeatBatchShiftedAt(ts, shift, now, d)
					ref.batchShiftedAt(ts, shift, now, d)
					check("BeatBatchShiftedAt")
				case 7:
					d := pickD()
					m.BeatWithAccuracyAt(now-1, d) // clamped to the previous beat
					ref.emitLocked(now-1, 0, d)
					check("BeatWithAccuracyAt in the past")
				}
			}
			if plain && (m.distortion != nil || m.tags != nil) {
				t.Fatalf("window %d seed %d: a run with no distortion and no tag allocated a column", window, seed)
			}
			if (m.energy != nil) != (refMeter != nil) {
				t.Fatalf("window %d seed %d: energy column present %v, meter attached %v", window, seed, m.energy != nil, refMeter != nil)
			}
		}
	}
}

// readMeter counts its reads and reports the count as the reading, so
// a skipped or repeated read shows in every later energy value.
type readMeter struct{ reads float64 }

func (r *readMeter) EnergyJoules() float64 { r.reads++; return r.reads }

// maxBeatBatch is the serving daemon's bound on one batch
// (server.MaxBeatBatch).
const maxBeatBatch = 10000

// The batch cases a random interleaving may miss, each past the window
// and inside it, compared with refRing after every call: a first-ever
// batch of both forms; a paused clock (now == last) and one that runs
// backwards (now < last); client stamps that step backwards in the
// prefix the window drops; batches over existing distortion and tag
// columns, with final distortions of NaN and -0; and a meter that must
// be read once per beat, retained or not.
func TestBatchEdgesMatchRecordRing(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, window := range []int{2, 3, 20, 64, 256} {
		counts := []int{1, window - 1, window, window + 1, 10 * window, maxBeatBatch}
		for _, metered := range []bool{false, true} {
			for first := 0; first < 2; first++ {
				rng := rand.New(rand.NewSource(int64(window)))
				clock := sim.NewClock(5)
				var opts []Option
				var meter, refMeter EnergyMeter
				if metered {
					meter, refMeter = &readMeter{}, &readMeter{}
					opts = append(opts, WithEnergyMeter(meter))
				}
				m, ref := New(clock, append(opts, WithWindow(window))...), newRefRing(clock, refMeter, window)
				where := func(step string, n int) string {
					return fmt.Sprintf("window %d metered %v first %d, after %s of %d", window, metered, first, step, n)
				}
				spread := func(now sim.Time, n int, d float64, step string) {
					m.BeatBatchSpreadAt(now, n, d)
					ref.batchSpreadAt(now, n, d)
					compareRings(t, m, ref, where(step, n))
				}
				shifted := func(now sim.Time, n int, back bool, d float64, step string) {
					ts := stamps(rng, n-1, now-1, back)
					shift := sim.Time(0.25)
					m.BeatBatchShiftedAt(ts, shift, now, d)
					ref.batchShiftedAt(ts, shift, now, d)
					compareRings(t, m, ref, where(step, n))
				}
				n := counts[len(counts)-1-first] // a first batch past the window
				if first == 0 {
					spread(clock.Now(), n, 0, "first spread batch")
				} else {
					shifted(clock.Now(), n, true, 0, "first shifted batch")
				}
				for _, n := range counts {
					clock.Advance(1)
					spread(clock.Now(), n, 0, "spread batch")
					spread(clock.Now(), n, 0, "spread batch on a paused clock")
					spread(clock.Now()-0.5, n, 0.5, "spread batch before the last beat")
					shifted(clock.Now(), n, false, 0, "shifted batch")
					shifted(clock.Now(), n, true, 0, "shifted batch stepping back")
					shifted(clock.Now()-3, n, false, 0, "shifted batch before the last beat")
				}
				m.BeatTagged(7)
				ref.emit(7, 0)
				m.BeatWithAccuracy(0.25)
				ref.emit(0, 0.25)
				compareRings(t, m, ref, where("a tagged and a distorted beat", 1))
				for _, n := range counts {
					for _, d := range []float64{math.NaN(), negZero, 0, 0.75} {
						clock.Advance(0.5)
						m.BeatTagged(2)
						ref.emit(2, 0)
						spread(clock.Now(), n, d, fmt.Sprintf("spread batch with distortion %g over both columns", d))
						m.BeatTagged(1)
						ref.emit(1, 0)
						shifted(clock.Now(), n, true, d, fmt.Sprintf("shifted batch with distortion %g over both columns", d))
					}
				}
				if metered && meter.(*readMeter).reads != refMeter.(*readMeter).reads {
					t.Fatalf("window %d first %d: meter read %g times for %g beats", window, first, meter.(*readMeter).reads, refMeter.(*readMeter).reads)
				}
			}
		}
	}
}
