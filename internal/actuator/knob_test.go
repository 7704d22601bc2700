package actuator

import (
	"fmt"
	"testing"
)

// fakeKnob is a minimal in-memory Knob.
type fakeKnob struct {
	name   string
	levels int
	cur    int
	moves  []int // every level actually applied
	fail   bool
}

func (k *fakeKnob) Name() string { return k.name }
func (k *fakeKnob) Levels() int  { return k.levels }
func (k *fakeKnob) Level() int   { return k.cur }
func (k *fakeKnob) SetLevel(level int) error {
	if k.fail {
		return fmt.Errorf("knob %s refused", k.name)
	}
	if level < 0 || level >= k.levels {
		return fmt.Errorf("level %d out of range", level)
	}
	k.cur = level
	k.moves = append(k.moves, level)
	return nil
}

// Stepped moves one rung per call toward the target and clamps
// out-of-range requests to the ladder.
func TestSteppedOneRungPerCall(t *testing.T) {
	raw := &fakeKnob{name: "cores", levels: 5}
	s := NewStepped(raw)
	if err := s.SetLevel(4); err != nil {
		t.Fatal(err)
	}
	if raw.cur != 1 {
		t.Fatalf("first call landed at %d, want 1", raw.cur)
	}
	for i := 0; i < 10; i++ {
		if err := s.SetLevel(4); err != nil {
			t.Fatal(err)
		}
	}
	if raw.cur != 4 {
		t.Fatalf("did not converge to 4 (at %d)", raw.cur)
	}
	if err := s.SetLevel(-3); err != nil {
		t.Fatal(err)
	}
	if raw.cur != 3 {
		t.Fatalf("downward step landed at %d, want 3", raw.cur)
	}
	if err := s.SetLevel(99); err != nil {
		t.Fatal(err)
	}
	if raw.cur != 4 {
		t.Fatalf("clamped upward step landed at %d, want 4", raw.cur)
	}
	// Every observed hardware move was exactly one rung.
	prev := 0
	for _, m := range raw.moves {
		if d := m - prev; d < -1 || d > 1 {
			t.Fatalf("move %d -> %d jumps more than one rung (history %v)", prev, m, raw.moves)
		}
		prev = m
	}
	// A satisfied target is a no-op, not an Apply.
	n := len(raw.moves)
	if err := s.SetLevel(4); err != nil {
		t.Fatal(err)
	}
	if len(raw.moves) != n {
		t.Fatal("no-op target still applied")
	}
}

func TestSteppedPropagatesErrors(t *testing.T) {
	raw := &fakeKnob{name: "x", levels: 3, fail: true}
	s := NewStepped(raw)
	if err := s.SetLevel(2); err == nil {
		t.Fatal("knob refusal swallowed")
	}
}
