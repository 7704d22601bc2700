package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler returns the daemon's HTTP/JSON API:
//
//	GET    /healthz               liveness
//	GET    /readyz                readiness (503 until restored + journal healthy)
//	GET    /v1/stats              daemon counters
//	GET    /v1/chip               single-die ledger (404 unless -chip with one die)
//	GET    /v1/chips              fleet-wide per-die ledgers (404 unless -chip)
//	GET    /v1/apps               all application statuses
//	POST   /v1/apps               enroll (EnrollRequest)
//	GET    /v1/apps/{name}        one application's status + decision
//	DELETE /v1/apps/{name}        withdraw
//	POST   /v1/apps/{name}/beats  batched heartbeats (BeatRequest)
//	PUT    /v1/apps/{name}/goal   replace the performance goal (GoalRequest)
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if ok, reason := d.Ready(); !ok {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "unavailable", "reason": reason})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.Stats())
	})
	mux.HandleFunc("GET /v1/chip", func(w http.ResponseWriter, r *http.Request) {
		// Back-compat: pre-fleet clients get exactly the old view as long
		// as exactly one die is configured. Multi-die daemons refuse it —
		// a single-chip answer would silently hide the rest of the fleet.
		st, ok := d.ChipStatus()
		if !ok {
			if d.fleet != nil {
				writeError(w, http.StatusNotFound, errors.New("server: multi-chip fleet; use /v1/chips"))
				return
			}
			writeError(w, http.StatusNotFound, errors.New("server: chip mode not enabled"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/chips", func(w http.ResponseWriter, r *http.Request) {
		sts := d.ChipStatuses()
		if sts == nil {
			writeError(w, http.StatusNotFound, errors.New("server: chip mode not enabled"))
			return
		}
		writeJSON(w, http.StatusOK, ChipsResponse{Chips: sts, Migrations: d.Migrations()})
	})
	mux.HandleFunc("GET /v1/apps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, d.List())
	})
	mux.HandleFunc("POST /v1/apps", func(w http.ResponseWriter, r *http.Request) {
		var req EnrollRequest
		if !readJSON(w, r, &req) {
			return
		}
		if err := d.Enroll(req); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		st, err := d.Status(req.Name)
		if err != nil {
			// Withdrawn between enroll and read-back; report the enroll.
			writeJSON(w, http.StatusCreated, AppStatus{Name: req.Name})
			return
		}
		writeJSON(w, http.StatusCreated, st)
	})
	mux.HandleFunc("GET /v1/apps/{name}", func(w http.ResponseWriter, r *http.Request) {
		st, err := d.Status(r.PathValue("name"))
		if err != nil {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/apps/{name}", func(w http.ResponseWriter, r *http.Request) {
		if err := d.Withdraw(r.PathValue("name")); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/apps/{name}/beats", func(w http.ResponseWriter, r *http.Request) {
		var req BeatRequest
		if !readJSON(w, r, &req) {
			return
		}
		name := r.PathValue("name")
		var err error
		if len(req.Timestamps) > 0 {
			if req.Count != 0 && req.Count != len(req.Timestamps) {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("server: count %d disagrees with %d timestamps", req.Count, len(req.Timestamps)))
				return
			}
			err = d.BeatTimestamps(name, req.Timestamps, req.Distortion)
		} else {
			if req.Count == 0 {
				req.Count = 1
			}
			err = d.Beat(name, req.Count, req.Distortion)
		}
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("PUT /v1/apps/{name}/goal", func(w http.ResponseWriter, r *http.Request) {
		var req GoalRequest
		if !readJSON(w, r, &req) {
			return
		}
		name := r.PathValue("name")
		if err := d.SetGoal(name, req.MinRate, req.MaxRate); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// statusFor maps the daemon's sentinel errors to HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNotEnrolled):
		return http.StatusNotFound
	case errors.Is(err, ErrDuplicate):
		return http.StatusConflict
	case errors.Is(err, ErrPoolExhausted):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDegraded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
