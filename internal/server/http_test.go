package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"angstrom/internal/heartbeat"
)

func testServer(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := NewDaemon(Config{Cores: 64, Accel: 0.5, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return d, ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// End-to-end over the wire: enroll, beat, tick, read decision, change
// goal, withdraw.
func TestHTTPLifecycle(t *testing.T) {
	d, ts := testServer(t)

	var health map[string]string
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	var enrolled AppStatus
	doJSON(t, "POST", ts.URL+"/v1/apps",
		EnrollRequest{Name: "svc", Workload: "volrend", Window: 256, MinRate: 40, MaxRate: 60},
		http.StatusCreated, &enrolled)
	if enrolled.Name != "svc" || enrolled.Workload != "volrend" {
		t.Fatalf("enrolled = %+v", enrolled)
	}
	if enrolled.Goal.MinRate != 40 {
		t.Fatalf("goal = %+v", enrolled.Goal)
	}

	// Duplicate → 409; bad goal → 400; unknown app → 404.
	doJSON(t, "POST", ts.URL+"/v1/apps",
		EnrollRequest{Name: "svc", MinRate: 40}, http.StatusConflict, nil)
	doJSON(t, "POST", ts.URL+"/v1/apps",
		EnrollRequest{Name: "bad", MinRate: -1}, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/apps/nosuch", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/v1/apps/nosuch/beats", BeatRequest{Count: 1}, http.StatusNotFound, nil)

	// Beats (batched) then a manual tick → a decision appears.
	for i := 0; i < 10; i++ {
		doJSON(t, "POST", ts.URL+"/v1/apps/svc/beats", BeatRequest{Count: 25}, http.StatusAccepted, nil)
		d.Tick()
	}
	var st AppStatus
	doJSON(t, "GET", ts.URL+"/v1/apps/svc", nil, http.StatusOK, &st)
	if st.Observation.Beats != 250 {
		t.Fatalf("beats = %d, want 250", st.Observation.Beats)
	}
	if st.Decision == nil {
		t.Fatal("no decision over the wire")
	}
	if len(st.Decision.HiConfig) == 0 {
		t.Fatal("decision carries no actuator labels")
	}
	if st.Cores.Units < 1 {
		t.Fatalf("allocation %d", st.Cores.Units)
	}

	// Goal update is visible in the next status.
	doJSON(t, "PUT", ts.URL+"/v1/apps/svc/goal", GoalRequest{MinRate: 80, MaxRate: 120}, http.StatusNoContent, nil)
	doJSON(t, "GET", ts.URL+"/v1/apps/svc", nil, http.StatusOK, &st)
	if st.Goal.MinRate != 80 || st.Goal.MaxRate != 120 {
		t.Fatalf("goal after PUT = %+v", st.Goal)
	}
	doJSON(t, "PUT", ts.URL+"/v1/apps/svc/goal", GoalRequest{MinRate: 10, MaxRate: 5}, http.StatusBadRequest, nil)

	// List + stats.
	var list []AppStatus
	doJSON(t, "GET", ts.URL+"/v1/apps", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0].Name != "svc" {
		t.Fatalf("list = %+v", list)
	}
	var stats StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.Apps != 1 || stats.Beats != 250 || !stats.Accelerated {
		t.Fatalf("stats = %+v", stats)
	}

	doJSON(t, "DELETE", ts.URL+"/v1/apps/svc", nil, http.StatusNoContent, nil)
	doJSON(t, "DELETE", ts.URL+"/v1/apps/svc", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/v1/apps/svc", nil, http.StatusNotFound, nil)
}

// Malformed JSON, unknown fields and data after the JSON value are
// rejected, not silently dropped: a rejected request enrolls nothing,
// ingests no beat and changes no goal.
func TestHTTPRejectsBadJSON(t *testing.T) {
	d, ts := testServer(t)
	doJSON(t, "POST", ts.URL+"/v1/apps", EnrollRequest{Name: "svc", MinRate: 10, MaxRate: 20}, http.StatusCreated, nil)
	for _, c := range []struct{ what, method, path, body string }{
		{"unknown field", "POST", "/v1/apps", `{"name": "x", "min_rate": 10, "bogus": 1}`},
		{"malformed body", "POST", "/v1/apps", `{not json`},
		{"enroll then a second value", "POST", "/v1/apps", `{"name":"a","min_rate":5}{"name":"b"}`},
		{"enroll then a stray brace", "POST", "/v1/apps", `{"name":"a","min_rate":5}}`},
		{"beats then a second value", "POST", "/v1/apps/svc/beats", `{"count":3} {"count":4}`},
		{"goal then garbage", "PUT", "/v1/apps/svc/goal", "{\"min_rate\":50,\"max_rate\":60}\nx"},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.what, resp.StatusCode)
		}
	}
	st, err := d.Status("svc")
	if err != nil {
		t.Fatal(err)
	}
	if apps := d.Stats().Apps; apps != 1 || st.Observation.Beats != 0 || st.Goal != (GoalView{MinRate: 10, MaxRate: 20}) {
		t.Fatalf("rejected requests left a trace: %d apps, %d beats, goal %+v", apps, st.Observation.Beats, st.Goal)
	}
}

// One request cannot ask for an unbounded monitor ring: a window above
// MaxWindow is a 400 at every door it could come in by (the API, a
// snapshot entry), and nothing is enrolled.
func TestWindowIsBounded(t *testing.T) {
	d, ts := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/apps", "application/json",
		bytes.NewBufferString(`{"name": "hog", "window": 2000000000, "min_rate": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("window 2e9: status %d, want 400", resp.StatusCode)
	}
	doJSON(t, "POST", ts.URL+"/v1/apps", EnrollRequest{Name: "hog", Window: MaxWindow + 1, MinRate: 10}, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/apps/hog", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/v1/apps", EnrollRequest{Name: "wide", Window: MaxWindow, MinRate: 10}, http.StatusCreated, nil)

	if err := d.restoreApp(snapApp{Name: "snap", Workload: "barnes", Window: MaxWindow + 1, MinRate: 10}); err == nil {
		t.Fatal("restoreApp accepted a window above MaxWindow")
	}
	if got := d.Stats().Apps; got != 1 {
		t.Fatalf("%d apps enrolled, want 1", got)
	}
}

// An enrollment that names no window gets heartbeat.DefaultWindow, and
// the snapshot persists that window, not the zero the request carried.
func TestEnrollDefaultWindow(t *testing.T) {
	d, ts := testServer(t)
	doJSON(t, "POST", ts.URL+"/v1/apps", EnrollRequest{Name: "plain", MinRate: 10}, http.StatusCreated, nil)
	d.mu.Lock()
	img := d.buildImage(1)
	d.mu.Unlock()
	if len(img.Apps) != 1 || img.Apps[0].Window != heartbeat.DefaultWindow {
		t.Fatalf("snapshot apps %+v, want one with window %d", img.Apps, heartbeat.DefaultWindow)
	}
}

// Pool exhaustion surfaces as 429 so load generators can back off.
func TestHTTPPoolExhaustion(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 2, Accel: 1, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		doJSON(t, "POST", ts.URL+"/v1/apps",
			EnrollRequest{Name: fmt.Sprintf("a%d", i), MinRate: 10}, http.StatusCreated, nil)
	}
	doJSON(t, "POST", ts.URL+"/v1/apps",
		EnrollRequest{Name: "a2", MinRate: 10}, http.StatusTooManyRequests, nil)
}

// Chip endpoints over the wire: the /v1/chips ledger of a fleet of one,
// per-app chip views, and 404 on an advisory daemon.
func TestHTTPChip(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 16, Accel: 0.5, Period: time.Hour, Chip: &ChipConfig{Tiles: 16}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)

	lo, hi := chipGoal(t, "barnes", 4, 0.5)
	var st AppStatus
	doJSON(t, "POST", ts.URL+"/v1/apps", EnrollRequest{Name: "a", MinRate: lo, MaxRate: hi}, http.StatusCreated, &st)
	if st.Chip == nil {
		t.Fatal("no chip view in the enroll response")
	}
	for i := 0; i < 5; i++ {
		d.Tick()
	}
	var chips ChipsResponse
	doJSON(t, "GET", ts.URL+"/v1/chips", nil, http.StatusOK, &chips)
	if len(chips.Chips) != 1 {
		t.Fatalf("%d dies, want a fleet of one", len(chips.Chips))
	}
	if chip := chips.Chips[0]; chip.Tiles != 16 || chip.Partitions != 1 || chip.CoreEquivalents < 1 {
		t.Fatalf("chip status %+v", chip)
	}
	doJSON(t, "GET", ts.URL+"/v1/apps/a", nil, http.StatusOK, &st)
	if st.Chip == nil || st.Chip.IPS <= 0 {
		t.Fatalf("chip view %+v", st.Chip)
	}
	var stats StatsResponse
	doJSON(t, "GET", ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.ChipApps != 1 {
		t.Fatalf("stats %+v, want 1 chip app", stats)
	}

	_, plain := testServer(t)
	doJSON(t, "GET", plain.URL+"/v1/chips", nil, http.StatusNotFound, nil)
}

// Per-beat timestamps over the wire, including the count/timestamps
// consistency check.
func TestHTTPBeatTimestamps(t *testing.T) {
	d, ts := testServer(t)
	var st AppStatus
	doJSON(t, "POST", ts.URL+"/v1/apps", EnrollRequest{Name: "a", Window: 4, MinRate: 1}, http.StatusCreated, &st)
	d.Tick()
	doJSON(t, "POST", ts.URL+"/v1/apps/a/beats",
		BeatRequest{Timestamps: []float64{0, 0.25, 0.5, 0.75}}, http.StatusAccepted, nil)
	doJSON(t, "GET", ts.URL+"/v1/apps/a", nil, http.StatusOK, &st)
	if got := st.Observation.WindowRate; got < 3.99 || got > 4.01 {
		t.Fatalf("window rate %g, want 4", got)
	}
	doJSON(t, "POST", ts.URL+"/v1/apps/a/beats",
		BeatRequest{Count: 3, Timestamps: []float64{1, 2}}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/apps/a/beats",
		BeatRequest{Timestamps: []float64{2, 1}}, http.StatusBadRequest, nil)
}
