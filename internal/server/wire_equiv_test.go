package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"angstrom/internal/journal"
)

// The tentpole property: the binary wire path is byte-equivalent to
// JSON ingestion. One seeded beat schedule is driven through two
// journaled daemons — one fed through the HTTP/JSON endpoints, one fed
// the identical batches through the binary protocol (control plane
// stays HTTP on both) — and every observable artifact must match
// byte for byte: per-tick status transcripts (heartbeat windows, rates,
// allocations, decisions), the fleet beat counters, and the daemons
// restored by replaying each journal.
//
// Timestamped batches are the delicate part: the wire encodes them as
// nanosecond uvarints, so the schedule is generated on a nanosecond
// grid and the JSON side is fed float64(ns)/1e9 — the exact conversion
// the wire decoder performs. Go's JSON round-trips float64 exactly, so
// any divergence is a real decoder bug, not float noise.

// equivOp is one round's action for one app, applied to both daemons.
type equivOp struct {
	app        int
	count      int      // count-mode batch size (0 = ts-mode)
	ns         []uint64 // ts-mode nanosecond timestamps
	distortion float64
	goal       float64 // >0: SetGoal(min=goal) this round instead of beating
	churn      bool    // withdraw + re-enroll before anything else
}

func TestWireMatchesJSONIngestion(t *testing.T) {
	base := Config{Cores: 48, Accel: 0.5, Period: time.Hour, Oversubscribe: true, TickWorkers: 2}
	const apps, rounds = 8, 25

	fsJSON, fsWire := journal.NewMemFS(), journal.NewMemFS()
	dj, err := NewDaemon(journalOnly(base, fsJSON))
	if err != nil {
		t.Fatal(err)
	}
	dw, err := NewDaemon(journalOnly(base, fsWire))
	if err != nil {
		t.Fatal(err)
	}
	srvJSON := httptest.NewServer(dj.Handler())
	defer srvJSON.Close()
	srvWireCtl := httptest.NewServer(dw.Handler())
	defer srvWireCtl.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(dw, ln)
	go ws.Serve()
	defer ws.Close()
	wc, err := DialWire(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	name := func(i int) string { return fmt.Sprintf("eq-%02d", i) }
	post := func(t *testing.T, srv *httptest.Server, path string, body any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: %s", path, resp.Status)
		}
	}
	do := func(t *testing.T, srv *httptest.Server, method, path string, body any) {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("%s %s: %s", method, path, resp.Status)
		}
	}
	enrollBoth := func(t *testing.T, i int) {
		t.Helper()
		req := EnrollRequest{Name: name(i), Mode: ModeAdvisory, MinRate: 10 + float64(i), MaxRate: 40}
		post(t, srvJSON, "/v1/apps", req)
		post(t, srvWireCtl, "/v1/apps", req)
	}

	handles := make([]uint32, apps)
	for i := 0; i < apps; i++ {
		enrollBoth(t, i)
		h, err := wc.Hello(name(i))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	// Generate the whole seeded schedule up front from one rng, then
	// apply the identical ops to both transports.
	rng := rand.New(rand.NewSource(42))
	distortions := []float64{0, 0, 0.25, 0.5}
	cursors := make([]uint64, apps) // per-app ns clocks, arbitrary epochs
	for i := range cursors {
		cursors[i] = uint64(rng.Intn(1e9))
	}
	schedule := make([][]equivOp, rounds)
	for r := range schedule {
		for i := 0; i < apps; i++ {
			if (r+i)%4 == 3 {
				continue // idle this round: quiescence paths stay exercised
			}
			op := equivOp{app: i, distortion: distortions[rng.Intn(len(distortions))]}
			switch {
			case i == 0 && r%7 == 5:
				op.churn = true
				op.count = 1 + rng.Intn(10)
			case rng.Intn(10) == 0:
				op.goal = 12 + float64(rng.Intn(25))
			case rng.Intn(2) == 0:
				op.count = 1 + rng.Intn(40)
			default:
				n := 1 + rng.Intn(20)
				op.ns = make([]uint64, n)
				for j := 0; j < n; j++ {
					cursors[i] += uint64(1_000_00 + rng.Intn(100_000_000)) // 0.1ms..100ms
					op.ns[j] = cursors[i]
				}
			}
			schedule[r] = append(schedule[r], op)
		}
	}

	var wantTr, gotTr [][]AppStatus
	for r, ops := range schedule {
		for _, op := range ops {
			if op.churn {
				do(t, srvJSON, "DELETE", "/v1/apps/"+name(op.app), nil)
				do(t, srvWireCtl, "DELETE", "/v1/apps/"+name(op.app), nil)
				enrollBoth(t, op.app)
				// Handles map to names, not app identities, so the
				// existing handle tracks the re-enrollment — but a
				// mid-stream re-hello must also keep working.
				h, err := wc.Hello(name(op.app))
				if err != nil {
					t.Fatal(err)
				}
				handles[op.app] = h
			}
			switch {
			case op.goal > 0:
				do(t, srvJSON, "PUT", "/v1/apps/"+name(op.app)+"/goal", GoalRequest{MinRate: op.goal})
				do(t, srvWireCtl, "PUT", "/v1/apps/"+name(op.app)+"/goal", GoalRequest{MinRate: op.goal})
			case op.count > 0:
				post(t, srvJSON, "/v1/apps/"+name(op.app)+"/beats",
					BeatRequest{Count: op.count, Distortion: op.distortion})
				if err := wc.Beats(handles[op.app], op.count, op.distortion); err != nil {
					t.Fatal(err)
				}
			default:
				ts := make([]float64, len(op.ns))
				for j, v := range op.ns {
					ts[j] = float64(v) / 1e9 // the decoder's exact conversion
				}
				post(t, srvJSON, "/v1/apps/"+name(op.app)+"/beats",
					BeatRequest{Timestamps: ts, Distortion: op.distortion})
				if err := wc.BeatsAt(handles[op.app], op.ns, op.distortion); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Barrier: every wire batch of this round is ingested (and the
		// conn's counter deltas published) before either daemon ticks.
		if _, err := wc.Flush(); err != nil {
			t.Fatalf("round %d flush: %v", r, err)
		}
		dj.Tick()
		dw.Tick()
		wantTr = append(wantTr, dj.List())
		gotTr = append(gotTr, dw.List())
	}
	diffTranscripts(t, "wire vs json transcript", wantTr, gotTr)

	stJ, stW := dj.Stats(), dw.Stats()
	if stJ.Beats != stW.Beats {
		t.Fatalf("fleet beat totals diverge: json=%d wire=%d", stJ.Beats, stW.Beats)
	}
	if stJ.Ticks != stW.Ticks || stJ.Decisions != stW.Decisions {
		t.Fatalf("tick/decision counters diverge: json=%d/%d wire=%d/%d",
			stJ.Ticks, stJ.Decisions, stW.Ticks, stW.Decisions)
	}

	// Journal-replay restore: both journals replayed into fresh daemons
	// must rebuild the exact live state — and each other's.
	if err := dj.jd.w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := dw.jd.w.Flush(); err != nil {
		t.Fatal(err)
	}
	rj, err := NewDaemon(journalOnly(base, fsJSON.Crash(0)))
	if err != nil {
		t.Fatalf("restore json journal: %v", err)
	}
	rw, err := NewDaemon(journalOnly(base, fsWire.Crash(0)))
	if err != nil {
		t.Fatalf("restore wire journal: %v", err)
	}
	diffTranscripts(t, "json replay vs live", [][]AppStatus{dj.List()}, [][]AppStatus{rj.List()})
	diffTranscripts(t, "wire replay vs live", [][]AppStatus{dw.List()}, [][]AppStatus{rw.List()})
	diffTranscripts(t, "wire replay vs json replay", [][]AppStatus{rj.List()}, [][]AppStatus{rw.List()})
	if rj.Stats().Beats != rw.Stats().Beats || rj.Stats().Beats != stJ.Beats {
		t.Fatalf("replayed beat totals diverge: json=%d wire=%d live=%d",
			rj.Stats().Beats, rw.Stats().Beats, stJ.Beats)
	}
	// And the restored daemons keep agreeing once they tick on.
	rj.Tick()
	rw.Tick()
	diffTranscripts(t, "post-replay tick", [][]AppStatus{rj.List()}, [][]AppStatus{rw.List()})
}
