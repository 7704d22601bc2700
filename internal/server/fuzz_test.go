package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Fuzz targets for the HTTP JSON surface. The contract under arbitrary
// input: no panic, no tile-ledger fault, and the application monitors'
// time frontier stays finite (a NaN smuggled through a beat payload
// would silently poison every windowed rate downstream). `go test`
// runs the seed corpus on every CI pass; `go test -fuzz=FuzzX` explores
// from it.

// fuzzDaemon builds a small accelerated daemon with one advisory app
// enrolled for the beat/goal endpoints to aim at.
func fuzzDaemon(f *testing.F) (*Daemon, http.Handler) {
	f.Helper()
	d, err := NewDaemon(Config{
		Cores: 8, Accel: 0.1, Period: time.Hour, Oversubscribe: true,
		Shards: 4, TickWorkers: 2,
		Chip: &ChipConfig{Tiles: 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "fz", Mode: ModeAdvisory, MinRate: 10, MaxRate: 20}); err != nil {
		f.Fatal(err)
	}
	return d, d.Handler()
}

// checkDaemonHealthy asserts the post-request invariants shared by
// every HTTP fuzz target.
func checkDaemonHealthy(t *testing.T, d *Daemon, status int) {
	t.Helper()
	if status < 200 || status > 599 {
		t.Fatalf("implausible HTTP status %d", status)
	}
	if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults", f)
	}
	if _, used := d.fleet.Chip(0).Usage(); used > float64(d.fleet.Chip(0).Tiles())+1e-6 {
		t.Fatalf("ledger overcommitted: %g", used)
	}
	st, err := d.Status("fz")
	if err != nil {
		t.Fatalf("resident app lost: %v", err)
	}
	if math.IsNaN(st.Observation.LastTime) || math.IsInf(st.Observation.LastTime, 0) {
		t.Fatalf("monitor frontier corrupted: %g", st.Observation.LastTime)
	}
	if math.IsNaN(st.Observation.WindowRate) || math.IsInf(st.Observation.WindowRate, 0) {
		t.Fatalf("window rate corrupted: %g", st.Observation.WindowRate)
	}
}

// FuzzBeatRequestJSON drives POST /v1/apps/{name}/beats with arbitrary
// bodies: counts, distortions, and timestamp arrays (the server-side
// spreading path and the client-timestamp path both decode from here).
func FuzzBeatRequestJSON(f *testing.F) {
	d, h := fuzzDaemon(f)
	seeds := []string{
		`{"count": 10}`,
		`{"count": 1, "distortion": 0.5}`,
		`{"count": 10000}`,
		`{"count": 10001}`,
		`{"count": -3}`,
		`{"timestamps": [1, 2, 3]}`,
		`{"timestamps": [3, 2, 1]}`,
		`{"timestamps": [1e308, 1e308]}`,
		`{"timestamps": [-1e308, 1e308]}`,
		`{"count": 3, "timestamps": [0.1, 0.2, 0.3]}`,
		`{"count": 2, "timestamps": [0.1]}`,
		`{"distortion": 1e308}`,
		`{"count": 5, "distortion": -1e-310}`,
		`{`,
		`[]`,
		`{"count": "ten"}`,
		`{"unknown_field": 1}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	var ticks int
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/apps/fz/beats", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if ticks++; ticks%64 == 0 {
			d.Tick() // periodically run the full loop over whatever state fuzzing built
		}
		checkDaemonHealthy(t, d, rec.Code)
	})
}

// FuzzEnrollRequestJSON drives POST /v1/apps (and a withdraw of
// whatever it created) on a chip-backed daemon: arbitrary names,
// modes, windows, and goal bands must never corrupt the tile ledger.
func FuzzEnrollRequestJSON(f *testing.F) {
	d, h := fuzzDaemon(f)
	seeds := []string{
		`{"name": "a", "min_rate": 10}`,
		`{"name": "a", "min_rate": 10, "max_rate": 5}`,
		`{"name": "a", "min_rate": -1}`,
		`{"name": "a", "min_rate": 1e308, "max_rate": 1e308}`,
		`{"name": "b", "workload": "ocean", "window": 2, "min_rate": 3}`,
		`{"name": "b", "workload": "nosuch", "min_rate": 3}`,
		`{"name": "c", "mode": "chip", "min_rate": 1}`,
		`{"name": "c", "mode": "advisory", "min_rate": 1}`,
		`{"name": "c", "mode": "warp", "min_rate": 1}`,
		`{"name": "", "min_rate": 1}`,
		`{"name": "x/y", "min_rate": 1}`,
		`{"name": " pad", "min_rate": 1}`,
		`{"name": "fz", "min_rate": 1}`,
		`{"name": "w", "window": 1, "min_rate": 1}`,
		`{"name": "w", "window": -5, "min_rate": 1}`,
		`{"name": "w", "window": 2000000000, "min_rate": 1}`,
		`not json`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("POST", "/v1/apps", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusCreated {
			// Withdraw by the name the daemon actually enrolled (echoed in
			// the response) so the fleet cannot grow without bound.
			var st AppStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err == nil && st.Name != "" && st.Name != "fz" {
				_ = d.Withdraw(st.Name)
			}
		}
		checkDaemonHealthy(t, d, rec.Code)
	})
}

// FuzzGoalRequestJSON drives PUT /v1/apps/fz/goal: goal churn must
// reject non-positive, inverted, and non-finite bands and never stall
// the resident app's serving state.
func FuzzGoalRequestJSON(f *testing.F) {
	d, h := fuzzDaemon(f)
	seeds := []string{
		`{"min_rate": 10, "max_rate": 20}`,
		`{"min_rate": 10}`,
		`{"min_rate": 0}`,
		`{"min_rate": -5, "max_rate": -1}`,
		`{"min_rate": 1e308, "max_rate": 1e308}`,
		`{"min_rate": 5e-324}`,
		`{"max_rate": 10}`,
		`{}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	var ticks int
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest("PUT", "/v1/apps/fz/goal", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if ticks++; ticks%64 == 0 {
			d.Tick()
		}
		checkDaemonHealthy(t, d, rec.Code)
	})
}

// FuzzBeatTimestampsDirect attacks the spreading math below the JSON
// layer, where NaN and Inf are reachable (JSON cannot carry them):
// arbitrary float timestamps and distortions must be rejected or
// ingested finitely — never panic, never leave a non-finite frontier.
func FuzzBeatTimestampsDirect(f *testing.F) {
	d, _ := fuzzDaemon(f)
	f.Add(1.0, 0.5, 0.25, uint8(3), 0.0)
	f.Add(0.0, 0.0, 0.0, uint8(1), 0.0)
	f.Add(math.NaN(), 1.0, 1.0, uint8(3), 0.0)
	f.Add(1.0, math.Inf(1), 1.0, uint8(3), 0.0)
	f.Add(1.0, 1.0, 1.0, uint8(2), math.NaN())
	f.Add(-1e308, 1e308, 1e308, uint8(3), 1e308)
	f.Add(5.0, -1.0, 0.0, uint8(3), 0.0) // decreasing
	f.Fuzz(func(t *testing.T, t0, d1, d2 float64, n uint8, distortion float64) {
		count := int(n%8) + 1
		ts := make([]float64, count)
		cur := t0
		for i := range ts {
			ts[i] = cur
			if i%2 == 0 {
				cur += d1
			} else {
				cur += d2
			}
		}
		_ = d.BeatTimestamps("fz", ts, distortion)
		_ = d.Beat("fz", count, distortion)
		st, err := d.Status("fz")
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(st.Observation.LastTime) || math.IsInf(st.Observation.LastTime, 0) {
			t.Fatalf("monitor frontier corrupted by ts=%v: %g", ts, st.Observation.LastTime)
		}
		if math.IsNaN(st.Observation.Distortion) || math.IsInf(st.Observation.Distortion, 0) {
			t.Fatalf("distortion corrupted: %g", st.Observation.Distortion)
		}
	})
}
