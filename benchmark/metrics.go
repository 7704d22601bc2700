package main

import "time"

// metricDef names one reported number. The lists below are the
// benchmark's contract with BENCHMARK.json; the smoke test holds the two
// to each other.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the numbers an operator of the daemon would feel. Every
// workload reports all of them (untraced pass): set-up time (daemon,
// listeners, enrollment, client handshakes), beats taken in per second
// of the window, a client's request from send to reply, the wall time
// of Daemon.Tick, a goal change from send to the end of the tick whose
// decision shows it, a cold boot from the crash image until ready, and
// the process's VmHWM when serving ends.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"beats_per_s", "1/s", "higher"},
	{"req_p50_us", "us", "lower"},
	{"req_p99_us", "us", "lower"},
	{"tick_p50_ms", "ms", "lower"},
	{"decision_lag_p50_ms", "ms", "lower"},
	{"decision_lag_p90_ms", "ms", "lower"},
	{"recover_p50_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the numbers of single layers (traced pass). The first
// block is read off every workload's own traced window; the rest are
// isolated calls into one layer, timed in the traced pass of the
// workload that is the layer's home and reported as 0 by the others
// (see README.md for the table of homes and of what each should move).
var perLayer = []metricDef{
	{"trace.beats_per_s", "1/s", "higher"},
	{"trace.req_p50_us", "us", "lower"},
	{"trace.tick_p50_ms", "ms", "lower"},
	{"trace.recover_p50_s", "s", "lower"},
	{"trace.spans", "count", "lower"},
	{"server.tick.p90_ms", "ms", "lower"},
	{"server.tick.busy_frac", "frac", "lower"},
	{"server.tick.self_ms", "ms", "lower"},
	{"journal.fs.sync_p50_us", "us", "lower"},
	{"journal.fs.sync_p99_us", "us", "lower"},
	{"journal.fs.syncs_per_s", "1/s", "lower"},
	{"journal.fs.write_mb_per_s", "MB/s", "lower"},
	{"journal.fs.bytes_per_beat", "B", "lower"},
	{"journal.fs.busy_frac", "frac", "lower"},
	{"journal.snapshot_ms", "ms", "lower"},
	{"server.wire.bytes_per_beat", "B", "lower"},
	{"actuator.knob_calls_per_tick", "count", "lower"},
	{"actuator.knob_moves_per_tick", "count", "lower"},
	{"actuator.knob_refusals_per_tick", "count", "lower"},
	{"server.control.commit_p50_us", "us", "lower"},
	{"server.migrations", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_mb_per_s", "MB/s", "lower"},
	{"runtime.mallocs_per_s", "1/s", "lower"},
	{"server.recover.records_per_s", "1/s", "higher"},
	{"server.recover.first_tick_ms", "ms", "lower"},

	// home: wire_durable
	{"server.wire.count_frame_ns", "ns", "lower"},
	{"server.wire.ts_frame_ns", "ns", "lower"},
	{"server.wire.flush_rtt_us", "us", "lower"},
	{"server.wire.hello_us", "us", "lower"},
	{"server.ingest.beat_ns", "ns", "lower"},
	{"server.ingest.beat_durable_ns", "ns", "lower"},
	{"server.ingest.beat_ts_durable_ns", "ns", "lower"},
	{"server.ingest.beat_durable_allocs", "count", "lower"},
	{"journal.append_ns", "ns", "lower"},
	{"heartbeat.batch_spread_ns", "ns", "lower"},
	{"heartbeat.batch_shifted_ns", "ns", "lower"},

	// home: http_fleet
	{"server.http.beat_us", "us", "lower"},
	{"server.http.beat_allocs", "count", "lower"},
	{"server.http.status_us", "us", "lower"},
	{"server.http.goal_us", "us", "lower"},
	{"journal.commit_us", "us", "lower"},
	{"heartbeat.observe_ns", "ns", "lower"},
	{"server.tick.idle_ms", "ms", "lower"},
	{"server.tick.active_ms", "ms", "lower"},
	{"server.tick.active_allocs_per_app", "count", "lower"},
	{"core.manager.step_ms", "ms", "lower"},
	{"core.manager.step_idle_us", "us", "lower"},
	{"core.runtime.step_us", "us", "lower"},
	{"core.runtime.step_allocs", "count", "lower"},
	{"server.enroll_us", "us", "lower"},
	{"server.setgoal_us", "us", "lower"},

	// home: chip_fleet
	{"server.tick.chip_ms", "ms", "lower"},
	{"server.tick.chip_allocs_per_app", "count", "lower"},
	{"server.enroll_chip_us", "us", "lower"},
	{"core.broker.split_us", "us", "lower"},
	{"angstrom.contention_ms", "ms", "lower"},
	{"angstrom.advance_us", "us", "lower"},
	{"angstrom.sense_ns", "ns", "lower"},
	{"angstrom.acquire_release_us", "us", "lower"},
	{"angstrom.fleet_loads_us", "us", "lower"},

	// home: recover_10k
	{"journal.recover_s", "s", "lower"},
	{"server.recover.replay_s", "s", "lower"},
	{"server.recover.allocs", "count", "lower"},
}

// metric is one reported value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// stateHash is chip_fleet's hash of the fleet's final state (List,
	// ChipStatuses, Migrations): equal for equal seeds. Not on the line.
	stateHash string
}

// endToEndValues reads the untraced pass's metrics off the run.
func (r *run) endToEndValues() map[string]float64 {
	return map[string]float64{
		"setup_s":             median(r.setups),
		"beats_per_s":         r.beatsPerS,
		"req_p50_us":          r.req.quantile(0.50, time.Microsecond),
		"req_p99_us":          r.req.quantile(0.99, time.Microsecond),
		"tick_p50_ms":         r.tick.quantile(0.50, time.Millisecond),
		"decision_lag_p50_ms": r.lag.quantile(0.50, time.Millisecond),
		"decision_lag_p90_ms": r.lag.quantile(0.90, time.Millisecond),
		"recover_p50_s":       median(r.boots),
		"peak_rss_mb":         r.peakRSS,
	}
}
