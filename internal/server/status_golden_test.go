package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The status-body golden pins the bytes the status routes answer for a
// chip-backed app, an advisory app and a chip app that has not decided
// yet, at three points of a short run: GET /v1/apps/{name} for each and
// GET /v1/apps for the fleet. testdata/status_bodies.golden was written
// by running this file with -update in a checkout of the commit before
// decisions' actuator labels were rendered once per class instead of
// per request. Regenerate only for a change that means to move the
// wire format, and say so.
func TestStatusBodiesGolden(t *testing.T) {
	d, err := NewDaemon(Config{
		Cores: 16, Accel: 0.1, Period: time.Hour, Oversubscribe: true, TickWorkers: 1,
		Chip: &ChipConfig{Tiles: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := chipGoal(t, "barnes", 4, 0.5)
	for _, req := range []EnrollRequest{
		{Name: "chip-a", Workload: "barnes", Window: 256, MinRate: lo, MaxRate: hi},
		{Name: "adv-b", Workload: "ocean", Mode: ModeAdvisory, MinRate: 40, MaxRate: 60},
	} {
		if err := d.Enroll(req); err != nil {
			t.Fatal(err)
		}
	}
	h := d.Handler()
	get := func(out *strings.Builder, path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body)
		}
		fmt.Fprintf(out, "GET %s\n%s", path, rec.Body)
	}
	var out strings.Builder
	for tick := 1; tick <= 8; tick++ {
		if err := d.Beat("adv-b", 40*tick, 0); err != nil {
			t.Fatal(err)
		}
		d.Tick()
		if tick == 3 {
			if err := d.Enroll(EnrollRequest{Name: "chip-c", Workload: "water", MinRate: lo, MaxRate: hi}); err != nil {
				t.Fatal(err)
			}
		}
		if tick == 1 || tick == 3 || tick == 8 {
			fmt.Fprintf(&out, "== after tick %d\n", tick)
			for _, name := range []string{"chip-a", "adv-b", "chip-c"} {
				if tick >= 3 || name != "chip-c" {
					get(&out, "/v1/apps/"+name)
				}
			}
			get(&out, "/v1/apps")
		}
	}
	got := out.String()
	if !strings.Contains(got, `"lo_config":{`) || !strings.Contains(got, `"decision":`) {
		t.Fatal("no app reported a decision")
	}

	path := filepath.Join("testdata", "status_bodies.golden")
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
			t.Fatalf("status_bodies.golden differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("status_bodies.golden: %d lines, golden has %d", len(gl), len(wl))
}
