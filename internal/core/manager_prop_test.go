package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// Property-based invariant tests for the Manager: randomized
// add/remove/goal-churn/beat sequences drive the incremental Step and
// the full-recompute reference in lockstep, asserting after every step
// that (a) the two produce byte-identical allocations, (b) allocations
// never exceed the pool (integral units space-shared, core-equivalents
// oversubscribed), (c) floors hold (every app keeps >= 1 unit; shares
// stay in (0, 1]), and (d) the whole transcript is deterministic for a
// fixed seed. This covers the partition and partitionShared walks far
// beyond the example-driven tests, including the mode flips between
// them as membership churns across the pool size.

// propCurves is the scaling-curve zoo: unimodal shapes the binary
// search must invert exactly, a plateau that exercises the
// equal-neighbor interpolation guard, and a non-monotone zigzag that
// must fall back to the linear scan.
var propCurves = []struct {
	name string
	fn   func(int) float64
}{
	{"linear", func(u int) float64 { return float64(u) }},
	{"amdahl90", func(u int) float64 { return 1 / (0.1 + 0.9/float64(u)) }},
	{"amdahl-sync", func(u int) float64 {
		if u <= 1 {
			return 1
		}
		cf := float64(u)
		return 1 / (0.05 + 0.95/cf + 0.02*math.Log2(cf))
	}},
	{"plateau8", func(u int) float64 { return math.Min(float64(u), 8) }},
	{"zigzag", func(u int) float64 { return float64(u) + 3*math.Sin(float64(u)) }},
}

// propFleet drives one incremental/reference manager pair over shared
// monitors (reads are pure, so both managers observe identical state).
type propFleet struct {
	t     *testing.T
	clock *sim.Clock
	inc   *Manager // incremental path under test
	ref   *Manager // full-recompute reference
	names []string
	mons  map[string]*heartbeat.Monitor
	next  int
}

func newPropFleet(t *testing.T, total int, oversub bool) *propFleet {
	t.Helper()
	clock := sim.NewClock(0)
	inc, err := NewManager(clock, total)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewManager(clock, total)
	if err != nil {
		t.Fatal(err)
	}
	ref.SetIncremental(false)
	inc.SetOversubscription(oversub)
	ref.SetOversubscription(oversub)
	return &propFleet{t: t, clock: clock, inc: inc, ref: ref, mons: make(map[string]*heartbeat.Monitor)}
}

func (f *propFleet) add(rng *rand.Rand) {
	name := fmt.Sprintf("app-%03d", f.next)
	f.next++
	mon := heartbeat.New(f.clock)
	mon.SetPerformanceGoal(1+rng.Float64()*40, 0)
	curve := propCurves[rng.Intn(len(propCurves))].fn
	errInc := f.inc.AddApp(name, mon, curve)
	errRef := f.ref.AddApp(name, mon, curve)
	if (errInc == nil) != (errRef == nil) {
		f.t.Fatalf("admission diverged for %s: inc=%v ref=%v", name, errInc, errRef)
	}
	if errInc == nil {
		f.names = append(f.names, name)
		f.mons[name] = mon
	}
}

func (f *propFleet) remove(rng *rand.Rand) {
	if len(f.names) == 0 {
		return
	}
	i := rng.Intn(len(f.names))
	name := f.names[i]
	f.names = append(f.names[:i], f.names[i+1:]...)
	delete(f.mons, name)
	if !f.inc.RemoveApp(name) || !f.ref.RemoveApp(name) {
		f.t.Fatalf("remove %s failed", name)
	}
}

func (f *propFleet) churnGoal(rng *rand.Rand) {
	if len(f.names) == 0 {
		return
	}
	mon := f.mons[f.names[rng.Intn(len(f.names))]]
	min := 0.5 + rng.Float64()*60
	if rng.Intn(2) == 0 {
		mon.SetPerformanceGoal(min, min*(1+rng.Float64()))
	} else {
		mon.SetPerformanceGoal(min, 0)
	}
}

func (f *propFleet) churnInterference(rng *rand.Rand) {
	if len(f.names) == 0 {
		return
	}
	name := f.names[rng.Intn(len(f.names))]
	factor := 0.05 + rng.Float64()*0.95
	for _, m := range []*Manager{f.inc, f.ref} {
		id, _ := m.AppID(name)
		m.SetInterference(id, factor)
	}
}

func (f *propFleet) churnPriority(rng *rand.Rand) {
	if len(f.names) == 0 {
		return
	}
	name := f.names[rng.Intn(len(f.names))]
	w := []float64{0.5, 1, 2, 4, 8}[rng.Intn(5)]
	if err := f.inc.SetPriority(name, w); err != nil {
		f.t.Fatal(err)
	}
	if err := f.ref.SetPriority(name, w); err != nil {
		f.t.Fatal(err)
	}
}

func (f *propFleet) beat(rng *rand.Rand) {
	dt := 0.05 + rng.Float64()
	start := f.clock.Now()
	f.clock.Advance(dt)
	for _, name := range f.names {
		if rng.Intn(3) == 0 {
			continue // this app idles through the interval
		}
		n := 1 + rng.Intn(30)
		mon := f.mons[name]
		for j := 1; j <= n; j++ {
			mon.BeatAt(start + dt*float64(j)/float64(n))
		}
	}
}

// step runs both managers and enforces every invariant.
func (f *propFleet) step(iter int) []Allocation {
	f.t.Helper()
	got, errInc := f.inc.Step()
	want, errRef := f.ref.Step()
	if (errInc == nil) != (errRef == nil) {
		f.t.Fatalf("iter %d: step errors diverged: inc=%v ref=%v", iter, errInc, errRef)
	}
	if errInc != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if i < len(want) && got[i] != want[i] {
				f.t.Errorf("iter %d: allocation %d diverged:\n  inc: %+v\n  ref: %+v", iter, i, got[i], want[i])
			}
		}
		f.t.Fatalf("iter %d: incremental step not byte-identical to full recompute", iter)
	}
	total := f.inc.total
	sumEquiv := 0.0
	sumUnits := 0
	for _, a := range got {
		if a.Units < 1 {
			f.t.Fatalf("iter %d: %s floored below 1 unit: %+v", iter, a.App, a)
		}
		if a.Share <= 0 || a.Share > 1 {
			f.t.Fatalf("iter %d: %s share %g outside (0, 1]", iter, a.App, a.Share)
		}
		if len(got) > total && a.Units != 1 {
			f.t.Fatalf("iter %d: oversubscribed %s holds %d units", iter, a.App, a.Units)
		}
		if len(got) <= total && a.Share != 1 {
			f.t.Fatalf("iter %d: space-shared %s time-shares at %g", iter, a.App, a.Share)
		}
		sumUnits += a.Units
		sumEquiv += float64(a.Units) * a.Share
	}
	if len(got) <= total && sumUnits > total {
		f.t.Fatalf("iter %d: %d units allocated on a %d-unit pool", iter, sumUnits, total)
	}
	if sumEquiv > float64(total)+1e-6 {
		f.t.Fatalf("iter %d: %g core-equivalents allocated on a %d-unit pool", iter, sumEquiv, total)
	}
	return got
}

// runScript executes one full randomized sequence and returns the
// transcript of every step's allocations.
func runScript(t *testing.T, seed int64, total int, oversub bool, iters int) [][]Allocation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := newPropFleet(t, total, oversub)
	var transcript [][]Allocation
	for iter := 0; iter < iters; iter++ {
		switch rng.Intn(12) {
		case 0, 1:
			f.add(rng)
		case 2:
			f.remove(rng)
		case 3:
			f.churnGoal(rng)
		case 4:
			f.churnInterference(rng)
		case 5:
			f.churnPriority(rng)
		default:
			f.beat(rng)
		}
		// Step reuses its output buffer; the transcript needs a copy.
		transcript = append(transcript, append([]Allocation(nil), f.step(iter)...))
	}
	return transcript
}

func TestManagerPropertyRandomChurn(t *testing.T) {
	cases := []struct {
		name    string
		total   int
		oversub bool
	}{
		{"tiny-pool-oversubscribed", 3, true},
		{"small-pool-oversubscribed", 16, true},
		{"wide-pool-spaceshared", 64, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				runScript(t, seed, tc.total, tc.oversub, 250)
			}
		})
	}
}

// The same seed must replay to the same transcript: Step is
// deterministic state machinery, not a heuristic.
func TestManagerPropertyDeterministicReplay(t *testing.T) {
	first := runScript(t, 42, 8, true, 200)
	second := runScript(t, 42, 8, true, 200)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("identical seeds produced diverging allocation transcripts")
	}
}

// demandUnits: the binary search over a verified monotone prefix must
// return bit-identical results to the linear scan for every curve shape
// and a dense sweep of targets (including exact plateau hits and
// demands beyond the curve's ceiling).
func TestDemandUnitsBinarySearchMatchesLinear(t *testing.T) {
	clock := sim.NewClock(0)
	for _, c := range propCurves {
		t.Run(c.name, func(t *testing.T) {
			inc, _ := NewManager(clock, 4096)
			ref, _ := NewManager(clock, 4096)
			ref.SetIncremental(false)
			mon := heartbeat.New(clock)
			mon.SetPerformanceGoal(10, 0)
			if err := inc.AddApp("x", mon, c.fn); err != nil {
				t.Fatal(err)
			}
			if err := ref.AddApp("x", mon, c.fn); err != nil {
				t.Fatal(err)
			}
			ai, ar := inc.apps[0], ref.apps[0]
			ai.haveBase, ar.haveBase = true, true
			ai.kfBase, ar.kfBase = 1, 1
			for target := 0.125; target < 6000; target *= 1.0837 {
				got := inc.demandUnits(ai, target)
				want := ref.demandUnits(ar, target)
				if got != want {
					t.Fatalf("target %g: binary %v != linear %v", target, got, want)
				}
			}
			// Exact plateau/ceiling values, where >= boundaries bite.
			for u := 1; u <= 4096; u *= 2 {
				target := c.fn(u)
				if got, want := inc.demandUnits(ai, target), ref.demandUnits(ar, target); got != want {
					t.Fatalf("exact target s(%d)=%g: binary %v != linear %v", u, target, got, want)
				}
			}
		})
	}
}

// verifyCurve classifications: unimodal shapes get a usable prefix,
// non-monotone shapes are rejected to the linear path.
func TestVerifyCurve(t *testing.T) {
	for _, c := range propCurves {
		peak, unimodal := VerifyCurve(c.fn, 4096)
		switch c.name {
		case "zigzag":
			if unimodal {
				t.Fatalf("zigzag classified unimodal (peak %d)", peak)
			}
		default:
			if !unimodal {
				t.Fatalf("%s not classified unimodal", c.name)
			}
			if peak < 1 {
				t.Fatalf("%s peak %d", c.name, peak)
			}
		}
	}
}
