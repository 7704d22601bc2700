package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzDecodeSpec throws arbitrary bytes at the spec decoder. The
// contract under fuzz: never panic; anything accepted is fully
// validated (finite rates, ordered schedules, bounded sizes) and
// round-trips through JSON to an equally valid spec.
func FuzzDecodeSpec(f *testing.F) {
	for _, spec := range Builtins() {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","ticks":10,"tick_seconds":0.5,"cores":4,"classes":[{"name":"a","workload":"barnes","count":1,"min_rate":5,"base_rate":10}]}`))
	f.Add([]byte(`{"name":"x","ticks":10,"tick_seconds":1e309,"cores":4,"classes":[]}`))
	f.Add([]byte(`{"name":"x","ticks":10,"tick_seconds":0.5,"cores":4,"classes":[{"name":"a","workload":"barnes","count":1,"min_rate":-5,"base_rate":10}]}`))
	f.Add([]byte(`{"name":"x","ticks":10,"tick_seconds":0.5,"cores":4,"classes":[{"name":"a","workload":"barnes","count":1,"min_rate":5,"base_rate":10,"phases":[{"at_tick":8,"work_scale":2},{"at_tick":3,"work_scale":1}]}]}`))
	f.Add([]byte(`{"name":"x","ticks":10,"tick_seconds":0.5,"cores":4,"chips":1,"chip_tiles":8,"classes":[{"name":"a","workload":"barnes","count":1,"min_rate":5,"base_rate":10,"noise_std":0.1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		// Accepted specs are validated: spot-check the invariants the
		// engine depends on.
		if s.Ticks < 1 || s.Ticks > maxTicks || s.Cores < 1 {
			t.Fatalf("accepted spec with bad dimensions: %+v", s)
		}
		if math.IsNaN(s.TickSeconds) || s.TickSeconds <= 0 {
			t.Fatalf("accepted non-positive tick seconds %g", s.TickSeconds)
		}
		for _, c := range s.Classes {
			if !finitePos(c.MinRate) {
				t.Fatalf("accepted class with a non-finite min rate: %+v", c)
			}
			// An advisory class needs the base rate its execution is
			// modeled from; a chip class runs on the hardware model and
			// carries none of the fields the engine would ignore.
			if s.Chips == 0 && !finitePos(c.BaseRate) {
				t.Fatalf("accepted advisory class with a non-finite base rate: %+v", c)
			}
			if s.Chips > 0 && (c.BaseRate != 0 || c.NoiseStd != 0 || c.DistortionAmp != 0 || len(c.Phases) > 0) {
				t.Fatalf("accepted chip class with fields the engine ignores: %+v", c)
			}
			prev := -1
			for _, p := range c.Phases {
				if p.AtTick <= prev || !finitePos(p.WorkScale) {
					t.Fatalf("accepted unordered or degenerate phases: %+v", c.Phases)
				}
				prev = p.AtTick
			}
		}
		prev := 0
		for _, ev := range s.Events {
			if ev.AtTick < prev {
				t.Fatalf("accepted unordered events: %+v", s.Events)
			}
			if s.Chips > 0 && ev.Kind == EventPhaseShift {
				t.Fatalf("accepted phase_shift in a chip scenario: %+v", ev)
			}
			prev = ev.AtTick
		}
		// Round trip: encode and decode again; the spec must survive
		// unchanged (no lossy fields, no re-validation failure).
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("accepted spec does not re-decode: %v", err)
		}
		enc2, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed spec:\n%s\n%s", enc, enc2)
		}
	})
}
