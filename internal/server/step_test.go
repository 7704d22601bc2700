package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"angstrom/internal/actuator"
	"angstrom/internal/angstrom"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// refusingKnob logs every SetLevel that reaches it and refuses the ones
// its knob is named for without passing them on.
type refusingKnob struct {
	actuator.Knob
	refuse string
	log    *[]string
}

func (k refusingKnob) SetLevel(level int) error {
	if k.Name() == k.refuse {
		*k.log = append(*k.log, fmt.Sprintf("%s %d refused", k.Name(), level))
		return errors.New("refused")
	}
	err := k.Knob.SetLevel(level)
	*k.log = append(*k.log, fmt.Sprintf("%s %d %v", k.Name(), level, err == nil))
	return err
}

// stepCase is one act step on a real partition. Ladders: cores 1..64 in
// powers of two, L2 32/64/128 KB, DVFS 0 and 1.
type stepCase struct {
	name   string
	tiles  int // the die's tile pool (default 64)
	start  angstrom.Config
	target actuator.Config
	units  int
	refuse string // knob the wrapper refuses
	calls  string // knob calls, "; "-separated
	want   angstrom.Config
	err    string
}

func chipCfg(cores, kb, vf int) angstrom.Config {
	return angstrom.Config{Cores: cores, CacheKB: kb, VF: vf}
}

// The act step moves every knob at most one rung toward its target,
// clamps the target to the ladder and, on cores, to the manager's grant,
// and does not call a knob that holds its rung.
func TestChipStepOneRungPerCall(t *testing.T) {
	runStepCases(t, []stepCase{
		{name: "one rung up per axis", start: chipCfg(1, 32, 0), target: actuator.Config{6, 2, 1}, units: 64,
			calls: "cores 1 true; l2-capacity 1 true; dvfs 1 true", want: chipCfg(2, 64, 1)},
		{name: "one rung down per axis", start: chipCfg(8, 128, 1), target: actuator.Config{0, 0, 0}, units: 64,
			calls: "cores 2 true; l2-capacity 1 true; dvfs 0 true", want: chipCfg(4, 64, 0)},
		{name: "only the axes that move", start: chipCfg(2, 64, 1), target: actuator.Config{1, 2, 1}, units: 64,
			calls: "l2-capacity 2 true", want: chipCfg(2, 128, 1)},
		{name: "nothing moves", start: chipCfg(2, 64, 1), target: actuator.Config{1, 1, 1}, units: 64,
			want: chipCfg(2, 64, 1)},
		{name: "ladder clamp at the top", start: chipCfg(64, 128, 1), target: actuator.Config{9, 7, 5}, units: 64,
			want: chipCfg(64, 128, 1)},
		{name: "ladder clamp at the bottom", start: chipCfg(1, 32, 0), target: actuator.Config{-1, -2, -3}, units: 64,
			want: chipCfg(1, 32, 0)},
		{name: "grant holds cores", start: chipCfg(4, 32, 0), target: actuator.Config{6, 0, 0}, units: 4,
			want: chipCfg(4, 32, 0)},
		{name: "grant between rungs", start: chipCfg(4, 32, 0), target: actuator.Config{6, 0, 0}, units: 7,
			want: chipCfg(4, 32, 0)},
		{name: "grant pulls cores down", start: chipCfg(16, 32, 0), target: actuator.Config{6, 0, 0}, units: 2,
			calls: "cores 3 true", want: chipCfg(8, 32, 0)},
		{name: "grant below the target leaves the rest", start: chipCfg(2, 32, 0), target: actuator.Config{3, 1, 0}, units: 1,
			calls: "cores 0 true; l2-capacity 1 true", want: chipCfg(1, 64, 0)},
	})
}

// The first refusal stops the act step with the actuator's error text;
// the axes after it are not called.
func TestChipStepPropagatesErrors(t *testing.T) {
	runStepCases(t, []stepCase{
		{name: "stop at the first refusal", start: chipCfg(1, 32, 0), target: actuator.Config{3, 2, 1}, units: 64, refuse: "l2-capacity",
			calls: "cores 1 true; l2-capacity 1 refused", want: chipCfg(2, 32, 0),
			err: `actuator "l2-capacity": apply setting 2: refused`},
		{name: "the hardware refuses", tiles: 2, start: chipCfg(2, 32, 0), target: actuator.Config{2, 1, 1}, units: 64,
			calls: "cores 2 false", want: chipCfg(2, 32, 0),
			err: `actuator "cores": apply setting 2: angstrom: 4 cores would exceed the tile pool`},
	})
}

func runStepCases(t *testing.T, cases []stepCase) {
	t.Helper()
	cc := &ChipConfig{Tiles: 64}
	cc.fill(64)
	if n := len(cc.Params.VF); n != 2 {
		t.Fatalf("%d DVFS points, want 2", n)
	}
	spec, err := workload.ByName("barnes")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tiles := tc.tiles
			if tiles == 0 {
				tiles = 64
			}
			sc, err := angstrom.NewSharedChip(*cc.Params, tiles)
			if err != nil {
				t.Fatal(err)
			}
			clock := sim.NewClock(0)
			part, err := sc.Acquire("app", workload.NewInstance(spec, 1), heartbeat.New(clock), tc.start, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			var knobs [3]actuator.Knob
			if knobs[angstrom.AxisCores], knobs[angstrom.AxisL2], knobs[angstrom.AxisDVFS], err = part.Knobs(cc.ladders[angstrom.AxisCores], cc.ladders[angstrom.AxisL2]); err != nil {
				t.Fatal(err)
			}
			var log []string
			for i, k := range knobs {
				knobs[i] = refusingKnob{Knob: k, refuse: tc.refuse, log: &log}
			}
			got, err := cc.step(&knobs, part, part.Config(), tc.target, tc.units)
			if calls := strings.Join(log, "; "); calls != tc.calls {
				t.Errorf("knob calls %q, want %q", calls, tc.calls)
			}
			if got != tc.want || part.Config() != tc.want {
				t.Errorf("step returned %+v, partition holds %+v; want %+v", got, part.Config(), tc.want)
			}
			if msg := fmt.Sprint(err); (err != nil || tc.err != "") && msg != tc.err {
				t.Errorf("error %q, want %q", msg, tc.err)
			}
		})
	}
}
