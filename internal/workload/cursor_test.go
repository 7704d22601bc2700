package workload

import (
	"math"
	"testing"

	"angstrom/internal/sim"
)

func cursorInstance(t *testing.T) *Instance {
	t.Helper()
	spec, err := ByName("raytrace") // square phase signal + per-beat noise
	if err != nil {
		t.Fatal(err)
	}
	return NewInstance(spec, 11)
}

// Work carried past the next beat's requirement completes the beat at
// once. The overshoot arises for real when rem*ips rounds an ulp over the
// remaining work; before the cursor, xeon.Server turned it into a
// negative clock advance and panicked.
func TestCursorOvershootEmitsImmediately(t *testing.T) {
	in := cursorInstance(t)
	for _, over := range []float64{0, 1, 1e6} {
		c := Cursor{beats: 3}
		c.carry = in.WorkForBeat(3) + over
		dt, beat, err := c.Step(in, 1e9, 5, 6)
		if err != nil || !beat || dt != 0 {
			t.Fatalf("carry %g over: Step = (%g, %v, %v), want (0, true, nil)", over, dt, beat, err)
		}
		if c.beats != 4 || c.carry != 0 {
			t.Fatalf("carry %g over: cursor at beat %d carry %g, want beat 4 carry 0", over, c.beats, c.carry)
		}
	}
}

func TestCursorRejectsNonPositiveRateAndWork(t *testing.T) {
	good := cursorInstance(t)
	badSpec := good.Spec
	badSpec.InstrPerBeat = -5 // NewInstance does not validate
	nanSpec := good.Spec
	nanSpec.InstrPerBeat = math.NaN()
	cases := []struct {
		name string
		in   *Instance
		ips  float64
	}{
		{"zero rate", good, 0},
		{"negative rate", good, -1e9},
		{"NaN rate", good, math.NaN()},
		{"negative work", NewInstance(badSpec, 1), 1e9},
		{"NaN work", NewInstance(nanSpec, 1), 1e9},
	}
	for _, tc := range cases {
		c := Cursor{beats: 7, carry: 123}
		dt, beat, err := c.Step(tc.in, tc.ips, 1, 2)
		if err == nil {
			t.Errorf("%s: accepted (dt %g, beat %v)", tc.name, dt, beat)
		}
		if dt != 0 || beat {
			t.Errorf("%s: rejected step still reports dt %g beat %v", tc.name, dt, beat)
		}
		if c != (Cursor{beats: 7, carry: 123}) {
			t.Errorf("%s: rejected step moved the cursor to %+v", tc.name, c)
		}
	}
}

// run drives a cursor the way a platform model does — a partition-style
// frontier that lands exactly on each interval's end — and returns every
// beat's completion time.
func run(t *testing.T, c *Cursor, in *Instance, ips float64, now sim.Time, ends []sim.Time) []sim.Time {
	t.Helper()
	var beats []sim.Time
	for _, until := range ends {
		for now < until-1e-12 {
			dt, beat, err := c.Step(in, ips, now, until)
			if err != nil {
				t.Fatal(err)
			}
			if dt < 0 {
				t.Fatalf("negative step %g at %g", dt, now)
			}
			if !beat {
				now = until
				break
			}
			now += dt
			beats = append(beats, now)
		}
	}
	return beats
}

// Splitting an interval does not move a beat: the carry makes N
// consecutive intervals emit the same beats as one long one. A beat that
// straddles a split is reached by two additions instead of one, so its
// time agrees to rounding, not to the bit; bit-identity holds for equal
// splits (the figure goldens and the chip replay transcripts pin that).
func TestCursorSplitsEmitTheSameBeats(t *testing.T) {
	in := cursorInstance(t)
	const ips = 3.7e9
	var whole Cursor
	want := run(t, &whole, in, ips, 0, []sim.Time{2})
	if len(want) < 100 {
		t.Fatalf("only %d beats in the reference run", len(want))
	}
	rng := sim.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		var ends []sim.Time
		for at := 0.0; at < 2; {
			at += rng.Float64() * 0.1
			if at > 2 {
				at = 2
			}
			ends = append(ends, at)
		}
		var a Cursor
		got := run(t, &a, in, ips, 0, ends)
		if len(got) != len(want) || a.Beats() != whole.Beats() {
			t.Fatalf("trial %d: %d beats over %d intervals, one long interval emits %d", trial, len(got), len(ends), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: beat %d at %v, one long interval puts it at %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestCursorStepAllocatesNothing(t *testing.T) {
	in := cursorInstance(t)
	var c Cursor
	now := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		dt, _, err := c.Step(in, 1e9, now, now+1)
		if err != nil {
			t.Fatal(err)
		}
		now += dt
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %g per call", allocs)
	}
}
