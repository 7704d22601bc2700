package actuator

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// knob builds a valid test actuator whose speedups are the given values
// and whose power multipliers are speedup^2 (superlinear, like DVFS).
// The nominal setting is the first one with speedup exactly 1.
func knob(name string, speedups ...float64) *Actuator {
	settings := make([]Setting, len(speedups))
	nominal := -1
	for i, s := range speedups {
		settings[i] = Setting{
			Label:  name,
			Value:  i,
			Effect: Effect{Speedup: s, PowerX: s * s, Distort: 1},
		}
		if s == 1 && nominal < 0 {
			nominal = i
		}
	}
	return &Actuator{
		Name:         name,
		Settings:     settings,
		NominalIndex: nominal,
		Apply:        func(int) error { return nil },
		Scope:        GlobalScope,
		Axes:         []Axis{Performance, Power},
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	if err := knob("cores", 1, 2, 4).Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Actuator)
	}{
		{"empty name", func(a *Actuator) { a.Name = "" }},
		{"no settings", func(a *Actuator) { a.Settings = nil }},
		{"bad nominal index", func(a *Actuator) { a.NominalIndex = 99 }},
		{"non-identity nominal", func(a *Actuator) { a.Settings[a.NominalIndex].Effect.PowerX = 2 }},
		{"nil apply", func(a *Actuator) { a.Apply = nil }},
		{"negative delay", func(a *Actuator) { a.DelaySeconds = -1 }},
		{"non-positive multiplier", func(a *Actuator) { a.Settings[1].Effect.Speedup = 0 }},
		{"undeclared axis", func(a *Actuator) { a.Axes = []Axis{Performance} }},
	}
	for _, tc := range cases {
		a := knob("k", 1, 2)
		tc.mut(a)
		if err := a.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestSetAppliesAndTracks(t *testing.T) {
	applied := -1
	a := knob("freq", 1, 1.5)
	a.Apply = func(i int) error { applied = i; return nil }
	if err := a.Set(1); err != nil {
		t.Fatalf("Set(1): %v", err)
	}
	if applied != 1 || a.Current() != 1 {
		t.Fatalf("applied=%d Current()=%d, want 1/1", applied, a.Current())
	}
	if err := a.Set(5); err == nil {
		t.Fatal("Set(5) out of range did not error")
	}
	if a.Current() != 1 {
		t.Fatal("failed Set changed Current")
	}
}

func TestSetPropagatesApplyError(t *testing.T) {
	sentinel := errors.New("hardware said no")
	a := knob("freq", 1, 2)
	a.Apply = func(int) error { return sentinel }
	if err := a.Set(1); !errors.Is(err, sentinel) {
		t.Fatalf("Set error = %v, want wrapped sentinel", err)
	}
}

func TestEffectComposition(t *testing.T) {
	e := Effect{Speedup: 2, PowerX: 3, Distort: 1}.Mul(Effect{Speedup: 4, PowerX: 0.5, Distort: 1})
	if e.Speedup != 8 || e.PowerX != 1.5 || e.Distort != 1 {
		t.Fatalf("Mul = %+v, want {8 1.5 1}", e)
	}
}

func TestSpaceSizeAndNominal(t *testing.T) {
	s, err := NewSpace(knob("a", 1, 2, 4), knob("b", 0.5, 1, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 9 {
		t.Fatalf("Size() = %d, want 9", s.Size())
	}
	nom := s.Nominal()
	if nom[0] != 0 || nom[1] != 1 {
		t.Fatalf("Nominal() = %v, want [0 1]", nom)
	}
	e := s.Effect(nom)
	if e.Speedup != 1 || e.PowerX != 1 {
		t.Fatalf("nominal effect = %+v, want identity", e)
	}
}

func TestSpaceEffectIsProduct(t *testing.T) {
	s, err := NewSpace(knob("a", 1, 2), knob("b", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	e := s.Effect(Config{1, 1})
	if e.Speedup != 6 {
		t.Fatalf("speedup = %g, want 6", e.Speedup)
	}
	if math.Abs(e.PowerX-36) > 1e-12 {
		t.Fatalf("power = %g, want 36", e.PowerX)
	}
}

func TestSpaceRejectsDuplicateNames(t *testing.T) {
	if _, err := NewSpace(knob("a", 1), knob("a", 1)); err == nil {
		t.Fatal("duplicate actuator names accepted")
	}
}

func TestSpaceRejectsEmpty(t *testing.T) {
	if _, err := NewSpace(); err == nil {
		t.Fatal("empty space accepted")
	}
}

func TestEnumerateVisitsAllOnce(t *testing.T) {
	s, err := NewSpace(knob("a", 1, 2, 4), knob("b", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]int)
	s.Enumerate(func(cfg Config) {
		seen[[2]int{cfg[0], cfg[1]}]++
	})
	if len(seen) != 6 {
		t.Fatalf("enumerated %d distinct configs, want 6", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("config %v visited %d times", k, n)
		}
	}
}

func TestApplyConfigDrivesAllActuators(t *testing.T) {
	got := make(map[string]int)
	a, b := knob("a", 1, 2), knob("b", 1, 3)
	a.Apply = func(i int) error { got["a"] = i; return nil }
	b.Apply = func(i int) error { got["b"] = i; return nil }
	s, err := NewSpace(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(Config{1, 0}); err != nil {
		t.Fatal(err)
	}
	if got["a"] != 1 || got["b"] != 0 {
		t.Fatalf("applied %v, want a=1 b=0", got)
	}
	if !s.Current().Equal(Config{1, 0}) {
		t.Fatalf("Current() = %v, want [1 0]", s.Current())
	}
}

func TestApplyRejectsWrongLength(t *testing.T) {
	s, _ := NewSpace(knob("a", 1, 2))
	if err := s.Apply(Config{0, 0}); err == nil {
		t.Fatal("wrong-length config accepted")
	}
}

func TestMaxDelay(t *testing.T) {
	a, b := knob("a", 1), knob("b", 1)
	a.DelaySeconds = 0.25
	b.DelaySeconds = 1.5
	s, _ := NewSpace(a, b)
	if d := s.MaxDelay(); d != 1.5 {
		t.Fatalf("MaxDelay = %g, want 1.5", d)
	}
}

func TestParetoFrontierBasic(t *testing.T) {
	pts := []Point{
		{Cfg: Config{0}, Effect: Effect{Speedup: 1, PowerX: 1, Distort: 1}},
		{Cfg: Config{1}, Effect: Effect{Speedup: 2, PowerX: 4, Distort: 1}},
		{Cfg: Config{2}, Effect: Effect{Speedup: 1.5, PowerX: 5, Distort: 1}}, // dominated by cfg1? no: slower and pricier than cfg1 -> dominated
		{Cfg: Config{3}, Effect: Effect{Speedup: 3, PowerX: 9, Distort: 1}},
	}
	f := ParetoFrontier(pts)
	if len(f) != 3 {
		t.Fatalf("frontier size = %d, want 3 (dominated point kept?) %+v", len(f), f)
	}
	for i := 1; i < len(f); i++ {
		if f[i].Effect.Speedup <= f[i-1].Effect.Speedup {
			t.Fatal("frontier speedups not strictly increasing")
		}
		if f[i].Effect.PowerX <= f[i-1].Effect.PowerX {
			t.Fatal("frontier powers not strictly increasing")
		}
	}
}

func TestParetoFrontierProperty(t *testing.T) {
	// Property: no frontier point is dominated by any input point, and
	// every input point is dominated-or-equal by some frontier point.
	f := func(raw []struct{ S, P uint8 }) bool {
		if len(raw) == 0 {
			return true
		}
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{
				Cfg:    Config{i},
				Effect: Effect{Speedup: 1 + float64(r.S)/16, PowerX: 1 + float64(r.P)/16, Distort: 1},
			}
		}
		front := ParetoFrontier(pts)
		dominates := func(a, b Effect) bool {
			return a.Speedup >= b.Speedup && a.PowerX <= b.PowerX &&
				(a.Speedup > b.Speedup || a.PowerX < b.PowerX)
		}
		for _, fp := range front {
			for _, p := range pts {
				if dominates(p.Effect, fp.Effect) {
					return false
				}
			}
		}
		for _, p := range pts {
			covered := false
			for _, fp := range front {
				if fp.Effect.Speedup >= p.Effect.Speedup && fp.Effect.PowerX <= p.Effect.PowerX {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPointsSortedBySpeedup(t *testing.T) {
	s, _ := NewSpace(knob("a", 1, 4, 2), knob("b", 1, 0.5))
	pts := s.Points()
	if len(pts) != 6 {
		t.Fatalf("Points() length = %d, want 6", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Effect.Speedup < pts[i-1].Effect.Speedup {
			t.Fatal("Points() not sorted by speedup")
		}
	}
}

func TestRegistryScoping(t *testing.T) {
	r := NewRegistry()
	global := knob("dvfs", 1, 2)
	if err := r.RegisterGlobal(global); err != nil {
		t.Fatal(err)
	}
	appKnob := knob("algo", 1, 1.3)
	appKnob.Scope = ApplicationScope
	if err := r.RegisterForApp("encoder", appKnob); err != nil {
		t.Fatal(err)
	}
	// encoder sees both; other apps see only the global knob.
	if got := r.AvailableTo("encoder"); len(got) != 2 {
		t.Fatalf("encoder sees %d actuators, want 2", len(got))
	}
	if got := r.AvailableTo("barnes"); len(got) != 1 || got[0].Name != "dvfs" {
		t.Fatalf("barnes sees %v, want only dvfs", got)
	}
}

func TestRegistryRejectsScopeMismatch(t *testing.T) {
	r := NewRegistry()
	a := knob("x", 1, 2) // GlobalScope by construction
	if err := r.RegisterForApp("app", a); err == nil {
		t.Fatal("global-scope actuator accepted via RegisterForApp")
	}
	b := knob("y", 1, 2)
	b.Scope = ApplicationScope
	if err := r.RegisterGlobal(b); err == nil {
		t.Fatal("application-scope actuator accepted via RegisterGlobal")
	}
}

func TestRegistryDuplicateAndUnregister(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterGlobal(knob("x", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterGlobal(knob("x", 1, 2)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	r.Unregister("x")
	if err := r.RegisterGlobal(knob("x", 1, 2)); err != nil {
		t.Fatalf("re-registration after Unregister failed: %v", err)
	}
}

func TestSpaceFor(t *testing.T) {
	r := NewRegistry()
	if _, err := r.SpaceFor("app"); err == nil {
		t.Fatal("SpaceFor with no actuators did not error")
	}
	if err := r.RegisterGlobal(knob("cores", 1, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterGlobal(knob("freq", 1, 1.5)); err != nil {
		t.Fatal(err)
	}
	s, err := r.SpaceFor("app")
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 6 {
		t.Fatalf("space size = %d, want 6", s.Size())
	}
}

func TestMaxSpeedup(t *testing.T) {
	a := knob("a", 1, 2, 8, 4)
	if got := a.MaxSpeedup(); got != 8 {
		t.Fatalf("MaxSpeedup = %g, want 8", got)
	}
}

func TestAxisAndScopeStrings(t *testing.T) {
	if Performance.String() != "performance" || Power.String() != "power" ||
		Accuracy.String() != "accuracy" {
		t.Fatal("axis names wrong")
	}
	if Axis(42).String() == "" {
		t.Fatal("unknown axis must still format")
	}
	if GlobalScope.String() != "global" || ApplicationScope.String() != "application" {
		t.Fatal("scope names wrong")
	}
}

// A re-bound space shares the template's declaration and nothing else:
// its Apply functions are its own, and what it sets is invisible through
// the template and through a sibling re-bound from the same template.
func TestRebindSharesTablesNotKnobs(t *testing.T) {
	tmplApplied := 0
	a, b := knob("a", 0.5, 1, 2), knob("b", 1, 3)
	a.Apply = func(int) error { tmplApplied++; return nil }
	tmpl, err := NewSpace(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var got [2][]int
	bind := func(i int) *Space {
		s, err := tmpl.Rebind(
			func(level int) error { got[i] = append(got[i], level); return nil },
			func(level int) error { got[i] = append(got[i], 10+level); return nil })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	one, two := bind(0), bind(1)
	before := tmpl.Current()
	if !one.Current().Equal(tmpl.Nominal()) {
		t.Fatalf("a re-bound space starts at %v, want nominal %v", one.Current(), tmpl.Nominal())
	}
	if err := one.Apply(Config{2, 1}); err != nil {
		t.Fatal(err)
	}
	if err := two.Acts[0].Set(0); err != nil {
		t.Fatal(err)
	}
	if !one.Current().Equal(Config{2, 1}) || !two.Current().Equal(Config{0, 0}) || !tmpl.Current().Equal(before) {
		t.Fatalf("current: one %v two %v template %v; want [2 1] [0 0] %v", one.Current(), two.Current(), tmpl.Current(), before)
	}
	if fmt.Sprint(got) != "[[2 11] [0]]" || tmplApplied != 0 {
		t.Fatalf("applies reached %v (template %d), want [[2 11] [0]] (0)", got, tmplApplied)
	}
	if &one.Points()[0] != &tmpl.Points()[0] || &two.Acts[1].Settings[0] != &b.Settings[0] {
		t.Fatal("a re-bound space copied the point table or the settings")
	}
	if one.Effect(Config{2, 1}) != tmpl.Effect(Config{2, 1}) || one.Size() != tmpl.Size() || one.MaxDelay() != tmpl.MaxDelay() {
		t.Fatal("a re-bound space declares a different model")
	}
	if _, err := tmpl.Rebind(func(int) error { return nil }); err == nil {
		t.Fatal("Rebind accepted one apply function for two actuators")
	}
	if _, err := tmpl.Rebind(nil, func(int) error { return nil }); err == nil {
		t.Fatal("Rebind accepted a nil apply function")
	}
}
