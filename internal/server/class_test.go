package server

import (
	"fmt"
	"testing"

	"angstrom/internal/actuator"
)

// fingerprint digests everything a class table declares (and where its
// template's knobs stand): every actuator's settings and the sorted point
// table. JSON prints a float64 in the shortest form that reads back to
// the same bits, so equal digests mean equal tables to the bit.
func fingerprint(s *actuator.Space) string {
	var acts []any
	for _, a := range s.Acts {
		acts = append(acts, a.Name, a.Settings, a.NominalIndex, a.DelaySeconds, a.Scope, a.Axes, a.Current())
	}
	return digest([]any{acts, s.Points()})
}

// classTableObserver is classFleetScript's view into the daemon: class
// tables are written once and never again. The fingerprint of every
// class — taken when the first fleet is admitted, template knob positions
// included — is the same before the crash and, on the cold-booted daemon
// that rebuilt them, at the end; and every app's runtime reads its class's
// tables through its own actuators (shared declaration, private knobs).
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
			if part := a.partition(); part != nil {
				// buildChipSpace names and orders the actuators after the
				// partition's knobs without having any to ask.
				c, l, v, err := part.Knobs(d.cfg.Chip.CoreOptions, d.cfg.Chip.CacheOptionsKB)
				if err != nil || space.Acts[0].Name != c.Name() || space.Acts[1].Name != l.Name() || space.Acts[2].Name != v.Name() {
					t.Fatalf("%s: %s actuators do not match its partition's knobs (%v)", stage, a.name, err)
				}
			}
			if &space.Points()[0] != &cl.space.Points()[0] {
				t.Fatalf("%s: %s has its own point table", stage, a.name)
			}
			for i, act := range space.Acts {
				tmpl := cl.space.Acts[i]
				if act == tmpl || &act.Settings[0] != &tmpl.Settings[0] {
					t.Fatalf("%s: %s actuator %s: own actuator %v, shared settings %v; want both",
						stage, a.name, act.Name, act != tmpl, &act.Settings[0] == &tmpl.Settings[0])
				}
				if act.Current() != tmpl.Current() {
					moved++
				}
			}
		}
		if stage != "admitted" && moved == 0 {
			t.Fatalf("%s: no app ever drove a knob off nominal", stage)
		}
	}
}
