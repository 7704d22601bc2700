package server

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"angstrom/internal/actuator"
)

// The actuation golden pins what the chip tick does to the hardware,
// call for call. testdata/chip_actuation.golden was written by running
// this file with -update in a checkout of the commit *before* the act
// phase learned to leave knobs alone that already hold their target,
// before the tick kept its sorted membership across ticks, and before
// decisions aliased the runtime's point table — when every apply went
// through every knob, every tick re-sorted, and every decision cloned.
// A fast path that skipped a call the full path would have made, sorted
// differently after a membership change, or let one decision's
// configuration leak into another shows up here as a different knob
// log or a different fleet. Regenerate (go test ./internal/server -run
// ChipActuationGolden -update) only for a change that means to move the
// fleet's behaviour, and say so.
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// loggingKnob records every SetLevel that reaches a partition's
// hardware knob: who, which knob, the level asked for, and whether the
// hardware took it.
type loggingKnob struct {
	actuator.Knob
	app string
	log *[]string
}

func (k loggingKnob) SetLevel(level int) error {
	err := k.Knob.SetLevel(level)
	*k.log = append(*k.log, fmt.Sprintf("%s %s %d %v", k.app, k.Name(), level, err == nil))
	return err
}

func digest(v any) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// actuationScript drives a two-die chip fleet of the given size through
// goal changes, withdrawals with same-name re-enrollment, a die losing
// and regaining half its memory bandwidth, and a forced migration. It
// writes one line per tick: the knob calls the tick made (refused ones
// counted apart) and digests of everything the daemon reports about the
// fleet afterwards.
func actuationScript(t *testing.T, out *strings.Builder, label string, apps, ticks int, minRate func(*rand.Rand) float64) (calls, refused int) {
	t.Helper()
	var knobLog []string
	d, err := NewDaemon(Config{
		Cores: 64, Accel: 0.1, Period: time.Hour, Oversubscribe: true, Shards: 8, TickWorkers: 1,
		Chip: &ChipConfig{Chips: 2, Tiles: 32,
			KnobWrap: func(app string, k actuator.Knob) actuator.Knob { return loggingKnob{Knob: k, app: app, log: &knobLog} }},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	workloads := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	name := func(i int) string { return fmt.Sprintf("act-%03d", i) }
	request := func(i int) EnrollRequest {
		lo := minRate(rng)
		return EnrollRequest{Name: name(i), Workload: workloads[i%len(workloads)], Window: 64, MinRate: lo, MaxRate: lo * 1.25}
	}
	for i := 0; i < apps; i++ {
		if err := d.Enroll(request(i)); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(out, "== %s: %d apps\n", label, apps)
	for tick := 0; tick < ticks; tick++ {
		if tick%3 == 0 {
			lo := minRate(rng)
			if err := d.SetGoal(name(rng.Intn(apps)), lo, lo*1.25); err != nil {
				t.Fatal(err)
			}
		}
		if tick%7 == 3 {
			i := rng.Intn(apps)
			if err := d.Withdraw(name(i)); err != nil {
				t.Fatal(err)
			}
			if err := d.Enroll(request(i)); err != nil {
				t.Fatal(err)
			}
		}
		switch tick {
		case 3 * ticks / 10:
			err = d.SaturateChip(0, 0.5)
		case 7 * ticks / 10:
			err = d.SaturateChip(0, 1)
		case ticks / 2:
			// Force one move: the first app on die 0, in name order, that
			// die 1 has room for.
			moved := false
			for _, st := range d.List() {
				if st.Chip.Chip == 0 && d.applyMigration(st.Name, 1, d.clock.Now()) == nil {
					fmt.Fprintf(out, "forced migration of %s to die 1\n", st.Name)
					moved = true
					break
				}
			}
			if !moved {
				t.Fatal("die 1 had room for nobody")
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		before := len(knobLog)
		d.Tick()
		tickRefused := 0
		for _, l := range knobLog[before:] {
			if strings.HasSuffix(l, "false") {
				tickRefused++
			}
		}
		refused += tickRefused
		fmt.Fprintf(out, "tick %03d knob_calls %4d refused %3d knobs %s apps %s chips %s migrations %d\n",
			tick, len(knobLog)-before, tickRefused, digest(knobLog[before:]), digest(d.List()), digest(d.ChipStatuses()), d.Migrations())
	}
	fmt.Fprintf(out, "total knob_calls %d refused %d knobs %s\n", len(knobLog), refused, digest(knobLog))
	if d.Migrations() == 0 {
		t.Fatalf("%s: the forced migration did not register", label)
	}
	return len(knobLog), refused
}

// Two fleets, because the knobs refuse for different reasons in each:
// 200 apps time-sharing 64 tiles (every app pinned to one unit, so the
// allocation clamp holds the core knob down and the traffic is cache
// and DVFS moves), and 20 apps with goals that want more cores than 64
// tiles hold (the core knob climbs until the tile ledger refuses it,
// which aborts that apply half-way and surfaces in the app's status).
func TestChipActuationGolden(t *testing.T) {
	var out strings.Builder
	calls, _ := actuationScript(t, &out, "time-shared", 200, 200, func(rng *rand.Rand) float64 { return 8 + float64(rng.Intn(40)) })
	if calls == 0 {
		t.Fatal("time-shared: no knob ever moved")
	}
	_, refused := actuationScript(t, &out, "space-shared", 20, 120, func(rng *rand.Rand) float64 { return 200 + float64(rng.Intn(400)) })
	if refused == 0 {
		t.Fatal("space-shared: the tile ledger never refused a core knob")
	}

	path := filepath.Join("testdata", "chip_actuation.golden")
	got := out.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("chip_actuation.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("chip_actuation.golden: %d lines, golden has %d", len(gl), len(wl))
}
