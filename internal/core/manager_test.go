package core

import (
	"math"
	"testing"

	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// managedHarness simulates N applications sharing a pool of units under
// a Manager: app i's heart rate = base_i × scaling_i(allocated).
type managedHarness struct {
	clock *sim.Clock
	mgr   *Manager
	mons  []*heartbeat.Monitor
	bases []float64
	curve []func(int) float64
	alloc []int
	share []float64
}

// harnessOption tweaks the manager before apps enroll.
type harnessOption func(*Manager)

func withOversubscription() harnessOption {
	return func(m *Manager) { m.SetOversubscription(true) }
}

func newManagedHarness(t *testing.T, total int, bases []float64, curves []func(int) float64, opts ...harnessOption) *managedHarness {
	t.Helper()
	clock := sim.NewClock(0)
	mgr, err := NewManager(clock, total)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range opts {
		o(mgr)
	}
	h := &managedHarness{clock: clock, mgr: mgr, bases: bases, curve: curves}
	for i := range bases {
		mon := heartbeat.New(clock)
		h.mons = append(h.mons, mon)
		name := string(rune('a' + i))
		if err := mgr.AddApp(name, mon, curves[i]); err != nil {
			t.Fatal(err)
		}
		h.alloc = append(h.alloc, 1)
		h.share = append(h.share, 1)
	}
	return h
}

// run advances one period: every app beats at its true rate.
func (h *managedHarness) run(period float64) {
	// Interleave beats: advance in small steps so all monitors fill.
	end := h.clock.Now() + period
	next := make([]float64, len(h.mons))
	for i := range next {
		rate := h.bases[i] * h.curve[i](h.alloc[i]) * h.share[i]
		next[i] = h.clock.Now() + 1/rate
	}
	for {
		min, idx := math.Inf(1), -1
		for i, tn := range next {
			if tn < min {
				min, idx = tn, i
			}
		}
		if min > end {
			break
		}
		h.clock.AdvanceTo(min)
		h.mons[idx].Beat()
		rate := h.bases[idx] * h.curve[idx](h.alloc[idx]) * h.share[idx]
		next[idx] = min + 1/rate
	}
	h.clock.AdvanceTo(end)
}

func (h *managedHarness) step(t *testing.T) []Allocation {
	t.Helper()
	allocs, err := h.mgr.Step()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range allocs {
		h.alloc[i] = a.Units
		h.share[i] = a.Share
	}
	return allocs
}

func linear(u int) float64 { return float64(u) }

func amdahl(p float64) func(int) float64 {
	return func(u int) float64 {
		return 1 / ((1 - p) + p/float64(u))
	}
}

func TestManagerValidation(t *testing.T) {
	clock := sim.NewClock(0)
	if _, err := NewManager(nil, 4); err == nil {
		t.Fatal("nil clock accepted")
	}
	if _, err := NewManager(clock, 0); err == nil {
		t.Fatal("zero units accepted")
	}
	mgr, _ := NewManager(clock, 2)
	if err := mgr.AddApp("a", nil, linear); err == nil {
		t.Fatal("nil monitor accepted")
	}
	mon := heartbeat.New(clock)
	if err := mgr.AddApp("a", mon, linear); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddApp("a", mon, linear); err == nil {
		t.Fatal("duplicate app accepted")
	}
	if err := mgr.AddApp("b", heartbeat.New(clock), linear); err != nil {
		t.Fatal(err)
	}
	if err := mgr.AddApp("c", heartbeat.New(clock), linear); err == nil {
		t.Fatal("more apps than units accepted")
	}
	if _, err := mgr.Step(); err == nil {
		t.Fatal("Step without goals did not error")
	}
}

func TestManagerMeetsBothGoalsWhenFeasible(t *testing.T) {
	// 16 units; app a needs ~4 (goal 40, base 10, linear), app b needs
	// ~8 (goal 40, base 5, linear). Total 12 < 16: both must be met.
	h := newManagedHarness(t, 16,
		[]float64{10, 5},
		[]func(int) float64{linear, linear})
	h.mons[0].SetPerformanceGoal(38, 42)
	h.mons[1].SetPerformanceGoal(38, 42)
	var allocs []Allocation
	for i := 0; i < 30; i++ {
		allocs = h.step(t)
		h.run(1.0)
	}
	if !allocs[0].GoalMet || !allocs[1].GoalMet {
		t.Fatalf("goals not met at steady state: %+v", allocs)
	}
	if allocs[0].Units < 3 || allocs[0].Units > 5 {
		t.Fatalf("app a units = %d, want ~4", allocs[0].Units)
	}
	if allocs[1].Units < 7 || allocs[1].Units > 9 {
		t.Fatalf("app b units = %d, want ~8", allocs[1].Units)
	}
	total := allocs[0].Units + allocs[1].Units
	if total > 16 {
		t.Fatalf("allocated %d of 16 units", total)
	}
}

func TestManagerScalesDownOversubscription(t *testing.T) {
	// 8 units, both apps want ~8 each: shares must scale ~proportionally
	// and never exceed the pool.
	h := newManagedHarness(t, 8,
		[]float64{5, 5},
		[]func(int) float64{linear, linear})
	h.mons[0].SetPerformanceGoal(38, 42)
	h.mons[1].SetPerformanceGoal(38, 42)
	var allocs []Allocation
	for i := 0; i < 30; i++ {
		allocs = h.step(t)
		h.run(1.0)
	}
	total := allocs[0].Units + allocs[1].Units
	if total > 8 {
		t.Fatalf("allocated %d of 8 units", total)
	}
	if allocs[0].GoalMet && allocs[1].GoalMet {
		t.Fatal("both goals reported met despite 2x oversubscription")
	}
	if d := allocs[0].Units - allocs[1].Units; d < -1 || d > 1 {
		t.Fatalf("equal demands split unevenly: %+v", allocs)
	}
}

func TestManagerRespectsScalingCurves(t *testing.T) {
	// App a scales linearly; app b saturates (Amdahl p=0.7, max ~3.3x).
	// With b's goal above its saturation ceiling, b's demand caps at the
	// pool and the proportional split leaves a enough to meet its goal
	// only if demands are honest — the point of measuring scaling.
	h := newManagedHarness(t, 12,
		[]float64{10, 10},
		[]func(int) float64{linear, amdahl(0.7)})
	h.mons[0].SetPerformanceGoal(28, 32) // needs ~3 units
	h.mons[1].SetPerformanceGoal(28, 32) // needs speedup 3 ≈ near b's ceiling
	var allocs []Allocation
	for i := 0; i < 40; i++ {
		allocs = h.step(t)
		h.run(1.0)
	}
	if !allocs[0].GoalMet {
		t.Fatalf("linear app's modest goal unmet: %+v", allocs)
	}
	// b needs speedup 3: amdahl(0.7) gives 3.03 at 10 units, 2.99 at 9.
	if allocs[1].Units < 8 {
		t.Fatalf("saturating app granted only %d units for a near-ceiling goal", allocs[1].Units)
	}
}

func TestManagerAllocatedLookup(t *testing.T) {
	h := newManagedHarness(t, 4, []float64{10}, []func(int) float64{linear})
	h.mons[0].SetPerformanceGoal(10, 12)
	if _, ok := h.mgr.Allocated("nope"); ok {
		t.Fatal("unknown app reported allocated")
	}
	if u, ok := h.mgr.Allocated("a"); !ok || u != 1 {
		t.Fatalf("initial allocation = %d, want 1", u)
	}
}

func TestManagerOversubscriptionAdmission(t *testing.T) {
	clock := sim.NewClock(0)
	mgr, err := NewManager(clock, 2)
	if err != nil {
		t.Fatal(err)
	}
	add := func(name string) error {
		mon := heartbeat.New(clock)
		mon.SetPerformanceGoal(10, 12)
		return mgr.AddApp(name, mon, linear)
	}
	if err := add("a"); err != nil {
		t.Fatal(err)
	}
	if err := add("b"); err != nil {
		t.Fatal(err)
	}
	if err := add("c"); err == nil {
		t.Fatal("third app admitted to a 2-unit pool without oversubscription")
	}
	mgr.SetOversubscription(true)
	if !mgr.Oversubscribed() {
		t.Fatal("oversubscription not reported")
	}
	if err := add("c"); err != nil {
		t.Fatalf("oversubscribed admission refused: %v", err)
	}
}

// With twice as many apps as units, the manager time-shares: every app
// is pinned to one unit with a fractional share, shares sum to at most
// the pool, and a heavier goal earns a larger share.
func TestManagerTimeSharesOversubscribedFleet(t *testing.T) {
	h := newManagedHarness(t, 2,
		[]float64{10, 10, 10, 10},
		[]func(int) float64{linear, linear, linear, linear},
		withOversubscription())
	// Apps c and d want 4x the rate of a and b.
	h.mons[0].SetPerformanceGoal(1.9, 2.1)
	h.mons[1].SetPerformanceGoal(1.9, 2.1)
	h.mons[2].SetPerformanceGoal(7.6, 8.4)
	h.mons[3].SetPerformanceGoal(7.6, 8.4)
	var allocs []Allocation
	for i := 0; i < 40; i++ {
		allocs = h.step(t)
		h.run(1.0)
	}
	sum := 0.0
	for _, a := range allocs {
		if a.Units != 1 {
			t.Fatalf("oversubscribed app %s holds %d units, want 1", a.App, a.Units)
		}
		if a.Share <= 0 || a.Share > 1 {
			t.Fatalf("share %g outside (0, 1]: %+v", a.Share, a)
		}
		sum += float64(a.Units) * a.Share
	}
	if sum > 2+1e-9 {
		t.Fatalf("shares sum to %g core-equivalents on a 2-unit pool", sum)
	}
	if allocs[2].Share <= allocs[0].Share {
		t.Fatalf("heavy app's share %g not above light app's %g", allocs[2].Share, allocs[0].Share)
	}
	// Light goals (rate 2 = share 0.2 at base 10) must be met even
	// oversubscribed; heavy goals (share 0.8 each) cannot all fit.
	if !allocs[0].GoalMet || !allocs[1].GoalMet {
		t.Fatalf("feasible light goals unmet: %+v", allocs)
	}
}

// Shrinking an oversubscribed fleet back under the pool restores
// dedicated (share = 1) allocations.
func TestManagerRecoversFromOversubscription(t *testing.T) {
	h := newManagedHarness(t, 2,
		[]float64{10, 10, 10},
		[]func(int) float64{linear, linear, linear},
		withOversubscription())
	for i := range h.mons {
		h.mons[i].SetPerformanceGoal(9, 11)
		_ = i
	}
	var allocs []Allocation
	for i := 0; i < 10; i++ {
		allocs = h.step(t)
		h.run(1.0)
	}
	if allocs[0].Share >= 1 {
		t.Fatalf("3 apps on 2 units but share = %g", allocs[0].Share)
	}
	if !h.mgr.RemoveApp("c") {
		t.Fatal("remove failed")
	}
	h.mons = h.mons[:2]
	h.bases = h.bases[:2]
	h.curve = h.curve[:2]
	h.alloc = h.alloc[:2]
	h.share = h.share[:2]
	for i := 0; i < 10; i++ {
		allocs = h.step(t)
		h.run(1.0)
	}
	for _, a := range allocs {
		if a.Share != 1 {
			t.Fatalf("dedicated fleet still time-shares: %+v", a)
		}
	}
}

// Contention reported through SetInterference inflates demand: the same
// goal under a 0.5x contention factor needs twice the units, while the
// base-speed estimate stays uncontended (the factor divides out of the
// observed rate).
func TestManagerInterferenceInflatesDemand(t *testing.T) {
	h := newManagedHarness(t, 64, []float64{1}, []func(int) float64{linear})
	h.mons[0].SetPerformanceGoal(9.5, 10.5)
	for i := 0; i < 6; i++ {
		h.run(20)
		h.step(t)
	}
	clean := h.step(t)[0]
	if math.Abs(clean.Demand-10) > 1.5 {
		t.Fatalf("uncontended demand %g, want ~10", clean.Demand)
	}

	// Co-location halves delivered throughput: the platform reports the
	// factor and the application's true rate drops to match.
	id, ok := h.mgr.AppID("a")
	if !ok {
		t.Fatal("a has no manager handle")
	}
	h.mgr.SetInterference(id, 0.5)
	h.bases[0] *= 0.5
	for i := 0; i < 8; i++ {
		h.run(20)
		h.step(t)
	}
	contended := h.step(t)[0]
	if math.Abs(contended.Demand-20) > 3 {
		t.Fatalf("contended demand %g, want ~20 (2x at interference 0.5)", contended.Demand)
	}
	if contended.Units < 17 {
		t.Fatalf("contended allocation %d units, want ~20", contended.Units)
	}

	// Out-of-range factors and handles nobody holds are ignored.
	h.mgr.SetInterference(id, 0)
	h.mgr.SetInterference(id, 1.5)
	h.mgr.SetInterference(-1, 0.25)
	h.mgr.SetInterference(id+1, 0.25)
	if f := h.mgr.apps[0].interf; f != 0.5 {
		t.Fatalf("interference %g after invalid updates, want 0.5", f)
	}
	// A handle freed by RemoveApp names nobody until it is re-issued,
	// and then names only the newcomer.
	if !h.mgr.RemoveApp("a") {
		t.Fatal("a not managed")
	}
	h.mgr.SetInterference(id, 0.25)
	if err := h.mgr.AddApp("b", h.mons[0], linear); err != nil {
		t.Fatal(err)
	}
	if bid, _ := h.mgr.AppID("b"); bid != id {
		t.Fatalf("freed handle %d not re-issued: b holds %d", id, bid)
	}
	if f := h.mgr.apps[0].interf; f != 1 {
		t.Fatalf("newcomer on a recycled handle starts at interference %g, want 1", f)
	}
	h.mgr.SetInterference(id, 0.25)
	if f := h.mgr.apps[0].interf; f != 0.25 {
		t.Fatalf("interference %g through the re-issued handle, want 0.25", f)
	}
}
