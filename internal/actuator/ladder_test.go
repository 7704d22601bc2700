package actuator

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// Sweep declares one rung per value from the caller's model, pins the
// nominal rung to the identity without consulting the model, and hands
// apply the rung index.
func TestSweepTabulatesTheModel(t *testing.T) {
	var priced, applied []int
	a, err := Sweep("cores", []int{1, 4, 16}, 4, 0.25, GlobalScope,
		func(v int) string { return fmt.Sprintf("%d cores", v) },
		func(v int) (Effect, error) {
			priced = append(priced, v)
			return Effect{Speedup: float64(v) / 4, PowerX: float64(v) / 2, Distort: 1}, nil
		},
		func(level int) error { applied = append(applied, level); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(priced, []int{1, 16}) {
		t.Fatalf("model consulted for %v, want the non-nominal values [1 16]", priced)
	}
	want := []Setting{
		{Label: "1 cores", Value: 1, Effect: Effect{Speedup: 0.25, PowerX: 0.5, Distort: 1}},
		{Label: "4 cores", Value: 4, Effect: Nominal()},
		{Label: "16 cores", Value: 16, Effect: Effect{Speedup: 4, PowerX: 8, Distort: 1}},
	}
	if !reflect.DeepEqual(a.Settings, want) {
		t.Fatalf("settings %+v, want %+v", a.Settings, want)
	}
	if a.Name != "cores" || a.NominalIndex != 1 || a.Current() != 1 || a.DelaySeconds != 0.25 || a.Scope != GlobalScope {
		t.Fatalf("actuator %+v malformed", a)
	}
	if err := a.Set(2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(applied, []int{2}) {
		t.Fatalf("apply saw %v, want the rung index [2]", applied)
	}
}

func TestSweepRejections(t *testing.T) {
	label := func(v int) string { return fmt.Sprint(v) }
	apply := func(int) error { return nil }
	ok := func(v int) (Effect, error) { return Effect{Speedup: float64(v), PowerX: float64(v), Distort: 1}, nil }
	if _, err := Sweep("x", []int{1, 2}, 3, 0, GlobalScope, label, ok, apply); err == nil {
		t.Error("nominal value absent from the settings accepted")
	}
	boom := errors.New("model refused")
	if _, err := Sweep("x", []int{1, 2}, 1, 0, GlobalScope, label, func(int) (Effect, error) { return Effect{}, boom }, apply); !errors.Is(err, boom) {
		t.Errorf("model error not propagated: %v", err)
	}
	if _, err := Sweep("x", []int{1, 2}, 1, 0, GlobalScope, label, func(int) (Effect, error) { return Effect{Speedup: -1, PowerX: 1, Distort: 1}, nil }, apply); err == nil {
		t.Error("non-positive multiplier from the model accepted")
	}
}

// NewLadder is Sweep over declared rungs: it drives nothing, at
// application scope, starting at the nominal rung.
func TestNewLadderIsAdvisory(t *testing.T) {
	a, err := NewLadder("dvfs", []string{"slow", "nominal", "fast"}, []float64{0.5, 1, 2}, []float64{0.2, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.NominalIndex != 1 || a.Current() != 1 || a.Scope != ApplicationScope || a.DelaySeconds != 0 {
		t.Fatalf("ladder %+v malformed", a)
	}
	if err := a.Set(2); err != nil || a.Current() != 2 {
		t.Fatalf("Set(2): %v, current %d", err, a.Current())
	}
	if _, err := NewLadder("x", []string{"a", "b"}, []float64{2, 3}, []float64{2, 3}); err == nil {
		t.Error("ladder without a nominal rung accepted")
	}
	if _, err := NewLadder("x", []string{"a", "b"}, []float64{1, 2}, []float64{1}); err == nil {
		t.Error("ladder whose slices disagree accepted")
	}
}

func TestRange(t *testing.T) {
	if got := Range(1, 4); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Fatalf("Range(1, 4) = %v", got)
	}
	if got := Range(0, -1); len(got) != 0 {
		t.Fatalf("Range(0, -1) = %v, want empty", got)
	}
}
