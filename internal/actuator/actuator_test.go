package actuator

import (
	"errors"
	"fmt"
	"math"
	"testing"
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
	var applied []int
	a := knob("freq", 1, 1.5)
	a.Apply = func(i int) error { applied = append(applied, i); return nil }
	if err := a.Set(1); err != nil {
		t.Fatalf("Set(1): %v", err)
	}
	if err := a.Set(5); err == nil {
		t.Fatal("Set(5) out of range did not error")
	}
	if fmt.Sprint(applied) != "[1]" {
		t.Fatalf("Apply saw %v, want [1] (an out-of-range Set applies nothing)", applied)
	}
	// A nil Apply declares settings nothing drives: it validates, and
	// Set checks the index and drives nothing.
	a.Apply = nil
	if err := a.Validate(); err != nil {
		t.Fatalf("declaration without Apply rejected: %v", err)
	}
	if err := a.Set(1); err != nil {
		t.Fatalf("Set(1) without Apply: %v", err)
	}
	if err := a.Set(5); err == nil {
		t.Fatal("Set(5) out of range without Apply did not error")
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
}

func TestApplyRejectsWrongLength(t *testing.T) {
	s, _ := NewSpace(knob("a", 1, 2))
	if err := s.Apply(Config{0, 0}); err == nil {
		t.Fatal("wrong-length config accepted")
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
