package heartbeat

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"angstrom/internal/sim"
)

// fakeMeter is a settable cumulative energy source.
type fakeMeter struct{ joules float64 }

func (f *fakeMeter) EnergyJoules() float64 { return f.joules }

func TestFirstBeatHasNoRate(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c)
	m.Beat()
	w := m.Window()
	if len(w) != 1 {
		t.Fatalf("window length = %d, want 1", len(w))
	}
	if w[0].Rate != 0 || w[0].Latency != 0 {
		t.Fatalf("first beat rate/latency = %g/%g, want 0/0", w[0].Rate, w[0].Latency)
	}
	if w[0].Seq != 1 {
		t.Fatalf("first Seq = %d, want 1", w[0].Seq)
	}
}

func TestSteadyRateMeasured(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c)
	// 10 beats/s for 3 seconds.
	for i := 0; i < 30; i++ {
		c.Advance(0.1)
		m.Beat()
	}
	obs := m.Observe()
	if math.Abs(obs.WindowRate-10) > 1e-9 {
		t.Fatalf("WindowRate = %g, want 10", obs.WindowRate)
	}
	if math.Abs(obs.InstantRate-10) > 1e-9 {
		t.Fatalf("InstantRate = %g, want 10", obs.InstantRate)
	}
	if math.Abs(obs.WindowLatency-0.1) > 1e-9 {
		t.Fatalf("WindowLatency = %g, want 0.1", obs.WindowLatency)
	}
}

func TestWindowRateTracksRecentNotGlobal(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c, WithWindow(5))
	// Slow phase: 1 beat/s for 10 beats.
	for i := 0; i < 10; i++ {
		c.Advance(1.0)
		m.Beat()
	}
	// Fast phase: 100 beats/s for 10 beats, more than fills the window.
	for i := 0; i < 10; i++ {
		c.Advance(0.01)
		m.Beat()
	}
	obs := m.Observe()
	if math.Abs(obs.WindowRate-100) > 1e-6 {
		t.Fatalf("WindowRate = %g, want 100 (window must forget the slow phase)", obs.WindowRate)
	}
	if obs.GlobalRate > 5 {
		t.Fatalf("GlobalRate = %g, want < 5 (dominated by the slow phase)", obs.GlobalRate)
	}
}

func TestRingNeverExceedsWindow(t *testing.T) {
	f := func(nBeats uint8) bool {
		c := sim.NewClock(0)
		m := New(c, WithWindow(7))
		for i := 0; i < int(nBeats); i++ {
			c.Advance(0.5)
			m.Beat()
		}
		w := m.Window()
		if len(w) > 7 {
			return false
		}
		// Sequence numbers in the window must be consecutive and end at Count.
		for i := 1; i < len(w); i++ {
			if w[i].Seq != w[i-1].Seq+1 {
				return false
			}
		}
		return int(m.Count()) == int(nBeats)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObservePowerFromMeter(t *testing.T) {
	c := sim.NewClock(0)
	meter := &fakeMeter{}
	m := New(c, WithEnergyMeter(meter))
	for i := 0; i < 10; i++ {
		c.Advance(1.0)
		meter.joules += 50 // 50 W
		m.Beat()
	}
	obs := m.Observe()
	if math.Abs(obs.PowerW-50) > 1e-9 {
		t.Fatalf("PowerW = %g, want 50", obs.PowerW)
	}
}

func TestTaggedSpan(t *testing.T) {
	c := sim.NewClock(0)
	meter := &fakeMeter{}
	m := New(c, WithEnergyMeter(meter))
	m.BeatTagged(1) // start at t=0, E=0
	c.Advance(2.5)
	meter.joules = 100
	m.Beat()
	c.Advance(2.5)
	meter.joules = 250
	m.BeatTagged(2) // end at t=5, E=250
	sec, joules, ok := m.TaggedSpan(1, 2)
	if !ok {
		t.Fatal("TaggedSpan did not find the tag pair")
	}
	if math.Abs(sec-5) > 1e-9 || math.Abs(joules-250) > 1e-9 {
		t.Fatalf("TaggedSpan = (%g s, %g J), want (5, 250)", sec, joules)
	}
}

func TestTaggedSpanMissingTags(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c)
	m.Beat()
	c.Advance(1)
	m.BeatTagged(2)
	if _, _, ok := m.TaggedSpan(1, 2); ok {
		t.Fatal("TaggedSpan reported ok without a start tag present")
	}
	if _, _, ok := m.TaggedSpan(2, 9); ok {
		t.Fatal("TaggedSpan reported ok without an end tag present")
	}
}

func TestDistortionAveraged(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c, WithWindow(4))
	for _, d := range []float64{0.1, 0.2, 0.3, 0.4} {
		c.Advance(1)
		m.BeatWithAccuracy(d)
	}
	obs := m.Observe()
	if math.Abs(obs.Distortion-0.25) > 1e-12 {
		t.Fatalf("Distortion = %g, want 0.25", obs.Distortion)
	}
}

func TestPerformanceGoalCheck(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c)
	m.SetPerformanceGoal(9, 11)
	for i := 0; i < 25; i++ {
		c.Advance(0.1) // 10 beats/s: inside the band
		m.Beat()
	}
	s := m.Check()
	if !s.PerformanceSet || !s.PerformanceMet {
		t.Fatalf("performance goal not met at 10 beats/s with band [9,11]: %+v", s)
	}
	if !s.AllMet() {
		t.Fatal("AllMet() = false with only a satisfied performance goal")
	}
}

func TestPerformanceGoalViolated(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c)
	m.SetPerformanceGoal(20, 0) // at least 20 beats/s, no cap
	for i := 0; i < 25; i++ {
		c.Advance(0.1) // only 10 beats/s
		m.Beat()
	}
	s := m.Check()
	if s.PerformanceMet {
		t.Fatal("performance goal reported met at half the target rate")
	}
	if s.AllMet() {
		t.Fatal("AllMet() = true with violated performance goal")
	}
}

func TestPerformanceGoalTarget(t *testing.T) {
	g := PerformanceGoal{MinRate: 10, MaxRate: 30}
	if got := g.Target(); got != 20 {
		t.Fatalf("Target() = %g, want 20 (band midpoint)", got)
	}
	open := PerformanceGoal{MinRate: 10}
	if got := open.Target(); got != 10 {
		t.Fatalf("Target() = %g, want 10 (half-open band)", got)
	}
}

func TestInvertedBandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted band did not panic")
		}
	}()
	New(sim.NewClock(0)).SetPerformanceGoal(10, 5)
}

func TestAccuracyAndPowerGoals(t *testing.T) {
	c := sim.NewClock(0)
	meter := &fakeMeter{}
	m := New(c, WithEnergyMeter(meter))
	m.SetAccuracyGoal(0.5)
	m.SetPowerGoal(80, 5)
	for i := 0; i < 25; i++ {
		c.Advance(0.1)
		meter.joules += 7 // 70 W
		m.BeatWithAccuracy(0.2)
	}
	s := m.Check()
	if !s.AccuracyMet {
		t.Fatalf("accuracy goal (0.2 <= 0.5) not met: %+v", s)
	}
	if !s.PowerMet {
		t.Fatalf("power goal (70 W <= 80 W at 10 beats/s >= 5) not met: %+v", s)
	}
}

func TestEnergyGoalCheck(t *testing.T) {
	c := sim.NewClock(0)
	meter := &fakeMeter{}
	m := New(c, WithEnergyMeter(meter))
	m.SetEnergyGoal(1, 2, 100)
	m.BeatTagged(1)
	c.Advance(1)
	meter.joules = 60
	m.BeatTagged(2)
	if s := m.Check(); !s.EnergySet || !s.EnergyMet {
		t.Fatalf("energy goal (60 J <= 100 J) not met: %+v", s)
	}
	m.SetEnergyGoal(1, 2, 10)
	if s := m.Check(); s.EnergyMet {
		t.Fatal("energy goal (60 J <= 10 J) incorrectly met")
	}
}

func TestLatencyGoalCheck(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c)
	m.SetLatencyGoal(1, 2, 3.0)
	m.BeatTagged(1)
	c.Advance(2)
	m.BeatTagged(2)
	if s := m.Check(); !s.LatencyMet {
		t.Fatalf("latency goal (2 s <= 3 s) not met: %+v", s)
	}
}

func TestGoalsReturnsCopies(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c)
	m.SetPerformanceGoal(5, 15)
	g := m.Goals()
	g.Performance.MinRate = 999 // mutate the copy
	if m.Goals().Performance.MinRate != 5 {
		t.Fatal("observer mutated the application's goal through Goals()")
	}
}

func TestRegistryEnrollLookupWithdraw(t *testing.T) {
	r := NewRegistry()
	m := New(sim.NewClock(0))
	if err := r.Enroll("barnes", m); err != nil {
		t.Fatalf("Enroll: %v", err)
	}
	if err := r.Enroll("barnes", m); err == nil {
		t.Fatal("duplicate Enroll did not error")
	}
	if got, ok := r.Lookup("barnes"); !ok || got != m {
		t.Fatal("Lookup failed after Enroll")
	}
	if err := r.Enroll("ocean", New(sim.NewClock(0))); err != nil {
		t.Fatalf("Enroll second app: %v", err)
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "barnes" || names[1] != "ocean" {
		t.Fatalf("Names() = %v, want [barnes ocean]", names)
	}
	r.Withdraw("barnes")
	if _, ok := r.Lookup("barnes"); ok {
		t.Fatal("Lookup succeeded after Withdraw")
	}
}

func TestEnrollNilMonitorErrors(t *testing.T) {
	if err := NewRegistry().Enroll("x", nil); err == nil {
		t.Fatal("Enroll(nil) did not error")
	}
}

func TestTinyWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("window of 1 did not panic")
		}
	}()
	New(sim.NewClock(0), WithWindow(1))
}

// The ring must report records oldest-first with contiguous sequence
// numbers long after it has wrapped.
func TestRingWraparound(t *testing.T) {
	c := sim.NewClock(0)
	m := New(c, WithWindow(4))
	for i := 0; i < 11; i++ {
		c.Advance(0.5)
		m.Beat()
	}
	w := m.Window()
	if len(w) != 4 {
		t.Fatalf("window length = %d, want 4", len(w))
	}
	for i, r := range w {
		if want := uint64(8 + i); r.Seq != want {
			t.Fatalf("window[%d].Seq = %d, want %d", i, r.Seq, want)
		}
		if i > 0 && w[i].Time <= w[i-1].Time {
			t.Fatal("window not oldest-first")
		}
	}
	obs := m.Observe()
	if obs.Beats != 11 {
		t.Fatalf("Beats = %d, want 11", obs.Beats)
	}
	if math.Abs(obs.WindowRate-2) > 1e-9 {
		t.Fatalf("WindowRate = %g after wrap, want 2", obs.WindowRate)
	}
}

// TaggedSpan must keep working across the wrap boundary.
func TestTaggedSpanAfterWrap(t *testing.T) {
	c := sim.NewClock(0)
	meter := &fakeMeter{}
	m := New(c, WithWindow(5), WithEnergyMeter(meter))
	for i := 0; i < 20; i++ {
		c.Advance(1)
		meter.joules += 2
		switch i {
		case 16:
			m.BeatTagged(7)
		case 19:
			m.BeatTagged(9)
		default:
			m.Beat()
		}
	}
	sec, joules, ok := m.TaggedSpan(7, 9)
	if !ok {
		t.Fatal("tagged pair not found after wrap")
	}
	if sec != 3 || joules != 6 {
		t.Fatalf("span = %gs/%gJ, want 3s/6J", sec, joules)
	}
}

// Property: a wrapped ring's observation matches a never-wrapping one
// fed the same beats.
func TestRingMatchesUnboundedWindow(t *testing.T) {
	c1, c2 := sim.NewClock(0), sim.NewClock(0)
	small := New(c1, WithWindow(8))
	big := New(c2, WithWindow(1000))
	// Only the first 8 of these land in both windows; drive both and
	// compare the small window to the big one's trailing slice.
	for i := 0; i < 50; i++ {
		c1.Advance(0.1 + 0.01*float64(i%7))
		c2.AdvanceTo(c1.Now())
		small.Beat()
		big.Beat()
	}
	sw, bw := small.Window(), big.Window()
	tail := bw[len(bw)-len(sw):]
	for i := range sw {
		if sw[i] != tail[i] {
			t.Fatalf("record %d: small %+v != big tail %+v", i, sw[i], tail[i])
		}
	}
}

// lockedClock is a trivially race-safe Nower for concurrency tests.
type lockedClock struct {
	mu  sync.Mutex
	now sim.Time
}

func (c *lockedClock) Now() sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *lockedClock) advance(dt sim.Time) {
	c.mu.Lock()
	c.now += dt
	c.mu.Unlock()
}

// Many goroutines beating monitors found through a shared Registry while
// observers tick: must be race-detector clean and lose no beats.
func TestConcurrentBeatsAndObservers(t *testing.T) {
	clock := &lockedClock{}
	reg := NewRegistry()
	const apps = 8
	const beatsPerApp = 500
	for i := 0; i < apps; i++ {
		m := New(clock, WithWindow(16))
		m.SetPerformanceGoal(1, 0)
		if err := reg.Enroll(fmt.Sprintf("app-%d", i), m); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, name := range reg.Names() {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			m, ok := reg.Lookup(name)
			if !ok {
				t.Errorf("%s not found", name)
				return
			}
			for i := 0; i < beatsPerApp; i++ {
				clock.advance(1e-6)
				m.Beat()
			}
		}(name)
	}
	stop := make(chan struct{})
	var observers sync.WaitGroup
	for i := 0; i < 4; i++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range reg.Names() {
					if m, ok := reg.Lookup(name); ok {
						m.Observe()
						m.Check()
						m.Window()
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	observers.Wait()
	for _, name := range reg.Names() {
		m, _ := reg.Lookup(name)
		if got := m.Count(); got != beatsPerApp {
			t.Fatalf("%s count = %d, want %d", name, got, beatsPerApp)
		}
	}
}

// BenchmarkEmitLargeWindow gates the O(1) ring insert: cost per beat
// must not scale with the window (it was O(window) before PR 2).
func BenchmarkEmitLargeWindow(b *testing.B) {
	c := sim.NewClock(0)
	m := New(c, WithWindow(4096))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Advance(1e-6)
		m.Beat()
	}
}

// BeatAt places beats at explicit times: rates follow the supplied
// spacing, not the call time, and non-monotone stamps clamp to the
// previous beat instead of corrupting rate math.
func TestBeatAtExplicitTimestamps(t *testing.T) {
	clock := sim.NewClock(0)
	m := New(clock, WithWindow(8))
	clock.Advance(10) // the call-time clock is irrelevant to BeatAt
	for i := 0; i < 5; i++ {
		m.BeatAt(float64(i) * 0.5) // 2 beats/s
	}
	obs := m.Observe()
	if obs.Beats != 5 {
		t.Fatalf("beats = %d", obs.Beats)
	}
	if math.Abs(obs.WindowRate-2) > 1e-9 {
		t.Fatalf("window rate %g from 0.5s spacing, want 2", obs.WindowRate)
	}
	if obs.LastTime != 2 {
		t.Fatalf("last time %g, want 2", obs.LastTime)
	}
	if m.LastTime() != 2 {
		t.Fatalf("LastTime() = %g, want 2", m.LastTime())
	}

	// A stamp before the previous beat clamps (zero-latency record).
	m.BeatAt(1.0)
	if got := m.LastTime(); got != 2 {
		t.Fatalf("clamped beat moved time to %g", got)
	}
	w := m.Window()
	if lat := w[len(w)-1].Latency; lat != 0 {
		t.Fatalf("clamped beat latency %g, want 0", lat)
	}
}

func TestBeatWithAccuracyAt(t *testing.T) {
	clock := sim.NewClock(0)
	m := New(clock, WithWindow(4))
	m.BeatWithAccuracyAt(1, 0.25)
	w := m.Window()
	if len(w) != 1 || w[0].Distortion != 0.25 || w[0].Time != 1 {
		t.Fatalf("record %+v", w[0])
	}
}

func TestLastTimeBeforeFirstBeat(t *testing.T) {
	m := New(sim.NewClock(5))
	if got := m.LastTime(); got != 0 {
		t.Fatalf("LastTime before any beat = %g, want 0", got)
	}
}

// A beat into a 4096-record window allocates nothing, before and after
// the ring wraps (BenchmarkMonitorBeatWindow4096). AllocsPerRun
// truncates its mean to an integer, so it makes one run of n beats and
// the count it returns is every allocation they made.
func TestBeatAllocatesNothing(t *testing.T) {
	const window, n = 4096, 3 * 4096
	c := sim.NewClock(0)
	m := New(c, WithWindow(window))
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n; i++ {
			c.Advance(1e-6)
			m.Beat()
		}
	})
	if allocs != 0 {
		t.Fatalf("%d beats allocated %g objects, want 0", n, allocs)
	}
	if m.Count() != 2*n {
		t.Fatalf("%d beats counted, want %d", m.Count(), 2*n)
	}
}
