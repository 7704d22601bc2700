package heartbeat

import (
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
