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

	points []Point // see Points
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

// Point is a configuration annotated with its composed effect, used by
// the translator.
type Point struct {
	Cfg    Config
	Effect Effect
}

// Points is the full space with composed effects, sorted by ascending
// speedup then ascending power: one table, materialized by NewSpace and
// returned to every caller. Read-only (copy before sorting or editing
// it).
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
