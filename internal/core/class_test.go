package core

import (
	"fmt"
	"math"
	"testing"

	"angstrom/internal/actuator"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// shapedSpace builds a space of one actuator per entry of rungs, with
// that many settings each: speedup grows with the rung and power faster,
// so most points are on the hull. (5, 4) is the advisory threads × DVFS
// shape, (7, 3, 2) the chip's cores × L2 × V/F.
func shapedSpace(t *testing.T, rungs ...int) *actuator.Space {
	t.Helper()
	acts := make([]*actuator.Actuator, len(rungs))
	for k, n := range rungs {
		step := 0.3 + 0.2*float64(k)
		var err error
		acts[k], err = actuator.Sweep(fmt.Sprintf("knob%d", k), actuator.Range(0, n-1), 0, 0, actuator.ApplicationScope,
			func(v int) string { return fmt.Sprint(v) },
			func(v int) (actuator.Effect, error) {
				s := 1 + step*float64(v)
				return actuator.Effect{Speedup: s, PowerX: math.Pow(s, 1.6), Distort: 1}, nil
			},
			func(int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	s, err := actuator.NewSpace(acts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadOptions(t *testing.T) {
	space := shapedSpace(t, 5, 4)
	fields := []struct {
		name string
		set  func(o *Options, v float64)
	}{
		{"Pole", func(o *Options, v float64) { o.Pole = v }},
		{"KalmanQ", func(o *Options, v float64) { o.KalmanQ = v }},
		{"KalmanR", func(o *Options, v float64) { o.KalmanR = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, 0} {
			t.Run(fmt.Sprintf("%s=%g", f.name, v), func(t *testing.T) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("New panicked: %v", p)
					}
				}()
				var opts Options
				f.set(&opts, v)
				clock := sim.NewClock(0)
				_, err := New("x", clock, heartbeat.New(clock), space, opts)
				if v == 0 { // zero selects the default
					if err != nil {
						t.Fatalf("default rejected: %v", err)
					}
				} else if err == nil {
					t.Fatal("accepted")
				}
			})
		}
	}
	clock := sim.NewClock(0)
	if _, err := New("x", clock, heartbeat.New(clock), space, Options{Pole: 1}); err == nil {
		t.Fatal("pole 1 accepted")
	}
}

func TestClassNewRejectsForeignSpace(t *testing.T) {
	cl, err := NewClass(shapedSpace(t, 5, 4))
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewClock(0)
	if _, err := cl.New("x", clock, heartbeat.New(clock), shapedSpace(t, 5, 4), Options{}); err == nil {
		t.Fatal("a space with its own point table accepted")
	}
}

// stepLoop closes rt's loop over a plant whose base speed swings, so
// decisions keep moving and the corrector keeps learning, and whose true
// speedups deviate from the declared ones. Its n steps allocate nothing
// but what the runtime does.
type stepLoop struct {
	clock *sim.Clock
	mon   *heartbeat.Monitor
	space *actuator.Space
	rt    *Runtime
	buf   []Slice
	err   error
}

func newStepLoop(t *testing.T, space *actuator.Space) *stepLoop {
	t.Helper()
	cl, err := NewClass(space)
	if err != nil {
		t.Fatal(err)
	}
	l := &stepLoop{clock: sim.NewClock(0), space: space}
	l.mon = heartbeat.New(l.clock)
	l.mon.SetPerformanceGoal(40, 44)
	if l.rt, err = cl.New("app", l.clock, l.mon, space, Options{}); err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *stepLoop) steps(n int) {
	for i := 0; i < n && l.err == nil; i++ {
		var d Decision
		if d, l.err = l.rt.Step(); l.err != nil {
			return
		}
		l.buf = d.AppendSlices(l.buf[:0], 1)
		for _, sl := range l.buf {
			base := 10 + 6*math.Sin(l.clock.Now()/2)
			rate := base * l.space.Effect(sl.Cfg).Speedup * (1 - 0.1*float64(sl.Cfg[0]%2))
			for end := l.clock.Now() + sl.Duration; l.clock.Now() < end; {
				l.clock.Advance(1 / rate)
				l.mon.Beat()
			}
		}
	}
}

// A warm Step allocates nothing on either space shape, including a Step
// whose corrector turns dirty and rebuilds the translator: the rebuild
// corrects into the runtime's own candidate table and hull storage,
// which only the first rebuild allocates (copy on first correction).
func TestRuntimeStepAllocatesNothing(t *testing.T) {
	for _, rungs := range [][]int{{5, 4}, {7, 3, 2}} {
		l := newStepLoop(t, shapedSpace(t, rungs...))
		for l.rt.cands == nil && l.err == nil && l.rt.decisions < 1000 {
			l.steps(1)
		}
		if l.err != nil || l.rt.cands == nil {
			t.Fatalf("%v: no first rebuild in 1000 steps (err %v)", rungs, l.err)
		}
		rebuilds := l.rt.corr.lastRebuild
		allocs := testing.AllocsPerRun(5, func() { l.steps(40) })
		if l.err != nil {
			t.Fatal(l.err)
		}
		if n := (l.rt.corr.lastRebuild - rebuilds) / rebuildEvery; n < 6 {
			t.Fatalf("%v: %d rebuilds over the 240 measured steps, want one in each 40", rungs, n)
		}
		if allocs != 0 {
			t.Fatalf("%v: 40 warm steps allocated %g objects, want 0", rungs, allocs)
		}
	}
}

// A class-backed New allocates one object however large the space: the
// Runtime. The corrector's estimate and feature slab wait for the first
// observed interval, the candidate table and hull for the first
// correction; until then the class's hull serves.
func TestNewAllocationsIndependentOfSpaceSize(t *testing.T) {
	const want = 1
	for _, rungs := range [][]int{{5, 4}, {7, 3, 2}} {
		template := shapedSpace(t, rungs...)
		cl, err := NewClass(template)
		if err != nil {
			t.Fatal(err)
		}
		apply := make([]func(int) error, len(rungs))
		for i := range apply {
			apply[i] = func(int) error { return nil }
		}
		space, err := template.Rebind(apply...)
		if err != nil {
			t.Fatal(err)
		}
		clock := sim.NewClock(0)
		mon := heartbeat.New(clock)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err = cl.New("app", clock, mon, space, Options{}); err != nil {
				panic(err)
			}
		})
		if allocs != want {
			t.Fatalf("%v (%d points): New allocated %g objects, want %d", rungs, len(space.Points()), allocs, want)
		}
	}
}
