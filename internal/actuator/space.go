package actuator

import (
	"fmt"
	"sort"
)

// Config selects one setting index per actuator of a Space. Config i
// corresponds to Space.Acts[i].
type Config []int

// Clone returns an independent copy.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	copy(out, c)
	return out
}

// Equal reports element-wise equality.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Space is the cartesian product of the action spaces of a set of
// actuators — the coordinated action space the SEEC decision engine
// searches (§2: the open interface is exactly what lets the runtime see
// the whole product space instead of one closed slice of it).
type Space struct {
	Acts []*Actuator

	points []Point // see Points; shared by every space re-bound from this one
}

// NewSpace validates the actuators and builds their joint space.
func NewSpace(acts ...*Actuator) (*Space, error) {
	if len(acts) == 0 {
		return nil, fmt.Errorf("actuator: empty space")
	}
	seen := make(map[string]bool, len(acts))
	for _, a := range acts {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("actuator: duplicate name %q in space", a.Name)
		}
		seen[a.Name] = true
	}
	s := &Space{Acts: acts}
	s.points = s.materialize()
	return s, nil
}

// Rebind returns a space over the model s declares whose actuator i is
// driven by apply[i] and records its own current setting, starting at
// nominal. The declaration is shared, not copied — the new actuators
// alias s's Settings and Axes, the new space s's point table, all
// read-only since NewSpace returned — so nothing done through the new
// space (Apply, Set, Current) shows through s or a sibling re-bound from
// it: a server tabulates one template per application class and re-binds
// it to each admitted application's knobs.
func (s *Space) Rebind(apply ...func(settingIndex int) error) (*Space, error) {
	if len(apply) != len(s.Acts) {
		return nil, fmt.Errorf("actuator: %d apply functions for %d actuators", len(apply), len(s.Acts))
	}
	acts := make([]Actuator, len(s.Acts))
	out := &Space{Acts: make([]*Actuator, len(s.Acts)), points: s.points}
	for i, t := range s.Acts {
		if apply[i] == nil {
			return nil, fmt.Errorf("actuator %q: nil Apply", t.Name)
		}
		acts[i] = Actuator{Name: t.Name, Settings: t.Settings, NominalIndex: t.NominalIndex, Apply: apply[i],
			DelaySeconds: t.DelaySeconds, Scope: t.Scope, Axes: t.Axes, current: t.NominalIndex}
		out.Acts[i] = &acts[i]
	}
	return out, nil
}

// Size reports the number of configurations in the space.
func (s *Space) Size() int {
	n := 1
	for _, a := range s.Acts {
		n *= len(a.Settings)
	}
	return n
}

// Nominal returns the configuration selecting every actuator's nominal
// setting.
func (s *Space) Nominal() Config {
	cfg := make(Config, len(s.Acts))
	for i, a := range s.Acts {
		cfg[i] = a.NominalIndex
	}
	return cfg
}

// Effect composes the declared effects of cfg across all actuators.
// This is the model the decision engine uses before any on-line
// correction by the adaptive layer.
func (s *Space) Effect(cfg Config) Effect {
	e := Nominal()
	for i, a := range s.Acts {
		e = e.Mul(a.EffectOf(cfg[i]))
	}
	return e
}

// Apply drives every actuator to its setting in cfg.
func (s *Space) Apply(cfg Config) error {
	if len(cfg) != len(s.Acts) {
		return fmt.Errorf("actuator: config length %d != %d actuators", len(cfg), len(s.Acts))
	}
	for i, a := range s.Acts {
		if err := a.Set(cfg[i]); err != nil {
			return err
		}
	}
	return nil
}

// Current returns the configuration most recently applied through
// Apply, actuator by actuator (see Actuator.Current).
func (s *Space) Current() Config {
	cfg := make(Config, len(s.Acts))
	for i, a := range s.Acts {
		cfg[i] = a.Current()
	}
	return cfg
}

// MaxDelay reports the largest actuation delay in the space; the runtime
// must wait at least this long before trusting observations after a
// reconfiguration.
func (s *Space) MaxDelay() float64 {
	d := 0.0
	for _, a := range s.Acts {
		if a.DelaySeconds > d {
			d = a.DelaySeconds
		}
	}
	return d
}

// Enumerate calls fn for every configuration in the space, in
// lexicographic order. fn must not retain cfg (it is reused).
func (s *Space) Enumerate(fn func(cfg Config)) {
	cfg := make(Config, len(s.Acts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(s.Acts) {
			fn(cfg)
			return
		}
		for j := range s.Acts[i].Settings {
			cfg[i] = j
			rec(i + 1)
		}
	}
	rec(0)
}

// Point is a configuration annotated with its composed effect, used for
// Pareto analysis and by the translator.
type Point struct {
	Cfg    Config
	Effect Effect
}

// Points is the full space with composed effects, sorted by ascending
// speedup then ascending power: one table, materialized by NewSpace and
// returned to every caller of this space and of every space re-bound
// from it. Read-only (copy before sorting or editing it).
func (s *Space) Points() []Point { return s.points }

func (s *Space) materialize() []Point {
	pts := make([]Point, 0, s.Size())
	s.Enumerate(func(cfg Config) {
		pts = append(pts, Point{Cfg: cfg.Clone(), Effect: s.Effect(cfg)})
	})
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Effect.Speedup != pts[j].Effect.Speedup {
			return pts[i].Effect.Speedup < pts[j].Effect.Speedup
		}
		return pts[i].Effect.PowerX < pts[j].Effect.PowerX
	})
	return pts
}

// ParetoFrontier filters pts (any order) to the subset not dominated in
// the (speedup up, power down) sense: a point is kept iff no other point
// has >= speedup and <= power with at least one strict. The result is
// sorted by ascending speedup, and power is strictly increasing along it.
func ParetoFrontier(pts []Point) []Point {
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	// Sort by speedup ascending; ties broken by power ascending.
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Effect.Speedup != sorted[j].Effect.Speedup {
			return sorted[i].Effect.Speedup < sorted[j].Effect.Speedup
		}
		return sorted[i].Effect.PowerX < sorted[j].Effect.PowerX
	})
	// Walk from the fastest point down: keep a point iff its power is
	// strictly below every faster point's power (minimum power suffix).
	var out []Point
	minPower := 0.0
	first := true
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		if first || p.Effect.PowerX < minPower {
			// Skip ties on speedup where a same-speed, cheaper point exists
			// later in `sorted` (it precedes in the reversed walk? no —
			// ties are ordered power-ascending, so the cheaper tie comes
			// first and would be visited last; handle by strict check).
			out = append(out, p)
			minPower = p.Effect.PowerX
			first = false
		}
	}
	// Reverse into ascending-speedup order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	// Remove speedup-duplicates keeping the cheaper (which, given the
	// suffix-min walk, is the one that survived with lower power).
	dedup := out[:0]
	for _, p := range out {
		if len(dedup) > 0 && dedup[len(dedup)-1].Effect.Speedup == p.Effect.Speedup {
			if p.Effect.PowerX < dedup[len(dedup)-1].Effect.PowerX {
				dedup[len(dedup)-1] = p
			}
			continue
		}
		dedup = append(dedup, p)
	}
	return dedup
}
