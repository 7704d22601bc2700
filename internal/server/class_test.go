package server

import (
	"fmt"
	"testing"

	"angstrom/internal/actuator"
)

// fingerprint digests everything a class table declares: every
// actuator's settings and the sorted point table. JSON prints a float64
// in the shortest form that reads back to the same bits, so equal
// digests mean equal tables to the bit.
func fingerprint(s *actuator.Space) string {
	var acts []any
	for _, a := range s.Acts {
		acts = append(acts, a.Name, a.Settings, a.NominalIndex, a.DelaySeconds, a.Scope, a.Axes)
	}
	return digest([]any{acts, s.Points()})
}

// classTableObserver is classFleetScript's view into the daemon: class
// tables are written once and never again. The fingerprint of every
// class — taken when the first fleet is admitted — is the same before
// the crash and, on the cold-booted daemon that rebuilt them, at the end;
// every app's runtime decides over its class's space itself, not a copy;
// and a chip app's knobs are its partition's, in the space's order, and
// move it off the base configuration.
func classTableObserver(t *testing.T) func(stage string, d *Daemon) {
	want := map[string]string{}
	return func(stage string, d *Daemon) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		got := map[string]string{}
		for k, cl := range d.classes {
			got[fmt.Sprintf("%s chip=%v", k.spec.Name, k.chip)] = fingerprint(cl.space)
		}
		if len(want) == 0 {
			if len(got) != 6 {
				t.Fatalf("%s: %d classes, want 3 workloads x 2 modes", stage, len(got))
			}
			for k, v := range got {
				want[k] = v
			}
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: class %s changed after its first admission:\n was %s\n now %s", stage, k, v, got[k])
			}
		}
		moved := 0
		for _, a := range d.dir.snapshot(nil) {
			cl := d.classes[classKey{a.spec, a.partition() != nil}]
			if cl == nil {
				t.Fatalf("%s: %s has no class", stage, a.name)
			}
			a.mu.Lock()
			space := a.rt.Space()
			a.mu.Unlock()
			if space != cl.space {
				t.Fatalf("%s: %s decides over a space of its own", stage, a.name)
			}
			part := a.partition()
			if part == nil {
				continue
			}
			for i, act := range space.Acts {
				if k := a.knobs[i]; k == nil || k.Name() != act.Name {
					t.Fatalf("%s: %s knob %d does not match actuator %s", stage, a.name, i, act.Name)
				}
			}
			if part.Config() != d.cfg.Chip.baseConfig() {
				moved++
			}
		}
		if stage != "admitted" && moved == 0 {
			t.Fatalf("%s: no app ever drove a knob off the base configuration", stage)
		}
	}
}
