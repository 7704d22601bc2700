package server

import "sort"

// Enrollment modes: how decisions reach the application's hardware.
const (
	// ModeDefault picks the daemon's default (chip when configured).
	ModeDefault = "default"
	// ModeChip binds the app to a partition of the shared Angstrom chip;
	// decisions actuate real knobs (cores, L2, DVFS) and the partition
	// emits the app's heartbeats as its modeled execution progresses.
	ModeChip = "chip"
	// ModeAdvisory serves software ladders the client actuates itself,
	// beating over the API as it makes progress.
	ModeAdvisory = "advisory"
)

// EnrollRequest registers an application with the daemon.
//
//	POST /v1/apps
type EnrollRequest struct {
	// Name uniquely identifies the application.
	Name string `json:"name"`
	// Workload names the declared behaviour profile (internal/workload
	// spec) used for the action space and the core-scaling curve.
	// Defaults to "barnes".
	Workload string `json:"workload,omitempty"`
	// Window is the heart-rate averaging window in beats (default: the
	// daemon's configured window).
	Window int `json:"window,omitempty"`
	// Mode selects chip-backed or advisory serving (default: chip when
	// the daemon runs with a chip, advisory otherwise). See ModeChip and
	// ModeAdvisory.
	Mode string `json:"mode,omitempty"`
	// MinRate/MaxRate declare the performance goal band in beats/s.
	// MinRate is required; MaxRate 0 means "no upper bound".
	MinRate float64 `json:"min_rate"`
	MaxRate float64 `json:"max_rate,omitempty"`
	// Priority is the water-fill weight for contended-pool arbitration
	// (SLO classes): under scarcity the app's fair share is proportional
	// to it. 0 means the default weight 1; must be finite, positive, and
	// at most 1e6.
	Priority float64 `json:"priority,omitempty"`
	// Chip, when set, pins the enrollment to that die of a multi-chip
	// fleet instead of letting the placer choose. The daemon stamps the
	// placer's choice into the journaled record, so replayed enrollments
	// always carry a pin.
	Chip *int `json:"chip,omitempty"`
}

// BeatRequest ingests a batch of heartbeats.
//
//	POST /v1/apps/{name}/beats
type BeatRequest struct {
	// Count is how many beats to emit (default 1, or len(Timestamps)
	// when timestamps are supplied).
	Count int `json:"count,omitempty"`
	// Distortion, if nonzero, is reported with the batch's last beat.
	Distortion float64 `json:"distortion,omitempty"`
	// Timestamps optionally places each beat of the batch: one
	// non-decreasing timestamp per beat, in seconds of any client epoch
	// (only the spacing is used; the batch is shifted so its last beat
	// lands at the server's current time). Without timestamps the
	// server spreads the batch evenly since the app's previous beat.
	Timestamps []float64 `json:"timestamps,omitempty"`
}

// GoalRequest replaces an application's performance goal.
//
//	PUT /v1/apps/{name}/goal
type GoalRequest struct {
	MinRate float64 `json:"min_rate"`
	MaxRate float64 `json:"max_rate,omitempty"`
}

// GoalView is the declared performance band.
type GoalView struct {
	MinRate float64 `json:"min_rate"`
	MaxRate float64 `json:"max_rate,omitempty"`
}

// ObservationView mirrors heartbeat.Observation for the wire.
type ObservationView struct {
	Beats         uint64  `json:"beats"`
	WindowRate    float64 `json:"window_rate"`
	GlobalRate    float64 `json:"global_rate"`
	InstantRate   float64 `json:"instant_rate"`
	WindowLatency float64 `json:"window_latency"`
	Distortion    float64 `json:"distortion"`
	LastTime      float64 `json:"last_time"`
}

// AllocationView is the manager's latest core share for one app.
type AllocationView struct {
	Units int `json:"units"`
	// Demand is the un-rounded unit count the goal asked for.
	Demand float64 `json:"demand"`
	// Share is the time share of the allocated units in (0, 1]; below 1
	// the app time-shares its units (oversubscribed fleet).
	Share float64 `json:"time_share,omitempty"`
	// GoalFit reports whether the demand fit inside the partition.
	GoalFit bool `json:"goal_fit"`
}

// ChipView is a chip-backed app's hardware state: its partition's
// configuration and the Sensor sample behind the controller's feedback.
type ChipView struct {
	// Chip is the die this app's partition lives on (fleet placement;
	// may change when the daemon migrates the app off a saturated die).
	Chip      int     `json:"chip"`
	Cores     int     `json:"cores"`
	CacheKB   int     `json:"cache_kb"`
	VF        string  `json:"vf"`
	TimeShare float64 `json:"time_share"`
	IPS       float64 `json:"ips"`
	PowerW    float64 `json:"power_w"`
	StallFrac float64 `json:"stall_frac"`
	HeartRate float64 `json:"heart_rate"`
	EnergyJ   float64 `json:"energy_j"`
	// Slowdown is the cross-partition contention factor applied to this
	// app's throughput (1 = uncontended; 0.8 = running at 80% of its
	// isolated model because of co-tenant memory/NoC traffic). IPS,
	// HeartRate, and StallFrac above already include it.
	Slowdown float64 `json:"slowdown"`
	// MemRho and NoCRho are the chip-wide memory-bandwidth and mesh
	// utilizations this partition observed at the last contention pass.
	MemRho float64 `json:"mem_rho"`
	NoCRho float64 `json:"noc_rho"`
	// ActuationErr is the last knob refusal, if any ("" when clean);
	// transient during fleet rebalances.
	ActuationErr string `json:"actuation_err,omitempty"`
}

// DecisionView is the latest SEEC decision, actuator settings resolved
// to labels. Clients act on it from their side of the wire.
type DecisionView struct {
	Time           float64           `json:"time"`
	Goal           float64           `json:"goal"`
	Observed       float64           `json:"observed"`
	BaseEstimate   float64           `json:"base_estimate"`
	TargetSpeedup  float64           `json:"target_speedup"`
	HiFrac         float64           `json:"hi_frac"`
	PredictedPower float64           `json:"predicted_power"`
	LoConfig       map[string]string `json:"lo_config"`
	HiConfig       map[string]string `json:"hi_config"`
}

// AppStatus is one application's full serving state.
//
//	GET /v1/apps/{name}
type AppStatus struct {
	Name        string          `json:"name"`
	Workload    string          `json:"workload"`
	Goal        GoalView        `json:"goal"`
	GoalMet     bool            `json:"goal_met"`
	Observation ObservationView `json:"observation"`
	Cores       AllocationView  `json:"cores"`
	Chip        *ChipView       `json:"chip,omitempty"`
	Decision    *DecisionView   `json:"decision,omitempty"`
	DecisionErr string          `json:"decision_err,omitempty"`
	EnrolledAt  float64         `json:"enrolled_at"`
}

func sortAppStatuses(s []AppStatus) {
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
}

// StatsResponse is the daemon-wide counter snapshot.
//
//	GET /v1/stats
type StatsResponse struct {
	Apps     int `json:"apps"`
	ChipApps int `json:"chip_apps,omitempty"`
	Cores    int `json:"cores"`
	// Chips is the fleet's die count (absent for advisory daemons).
	Chips int `json:"chips,omitempty"`
	// Shards is the application-directory shard count (the tick fans
	// its per-app phases across these).
	Shards    int    `json:"shards,omitempty"`
	Ticks     uint64 `json:"ticks"`
	Beats     uint64 `json:"beats"`
	Decisions uint64 `json:"decisions"`
	// Migrations counts inter-die partition moves the fleet has applied.
	Migrations uint64 `json:"migrations,omitempty"`
	// Evicted counts stale applications withdrawn by -beat-timeout.
	Evicted uint64 `json:"evicted,omitempty"`
	// WireConns is the live binary beat-protocol connection count and
	// WireFrames the accepted wire batch frames (absent when no client
	// has used -beat-listen). Wire connections publish their beat
	// totals through per-connection deltas, so Beats may trail the
	// wire's ground truth by up to one flush threshold per connection
	// until clients issue a flush barrier.
	WireConns     int     `json:"wire_conns,omitempty"`
	WireFrames    uint64  `json:"wire_frames,omitempty"`
	ClockSeconds  float64 `json:"clock_seconds"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	PeriodSeconds float64 `json:"period_seconds"`
	Accelerated   bool    `json:"accelerated"`
	// PowerOvercommitW is the watts by which the sum of floored per-app
	// power caps exceeds the chip budget: 0 when the budget is
	// satisfiable, positive when even the cheapest configurations cannot
	// fit under it (the caps are then floored and the overdraft is
	// surfaced here instead of being silently hidden).
	PowerOvercommitW float64 `json:"chip_power_overcommit_w,omitempty"`
	// Tick and Chip count what the tick was refused and carried on past
	// (Chip is absent for advisory daemons).
	Tick TickStats  `json:"tick"`
	Chip *ChipStats `json:"chip,omitempty"`
	// Journal is the durability layer's state (absent without -data-dir):
	// appended record count, newest snapshot, and whether the daemon has
	// degraded to read-only after a journal failure.
	Journal *JournalStats `json:"journal,omitempty"`
}

// TickStats counts the arbitration failures the tick has survived.
type TickStats struct {
	// StepErrors counts per-die arbitrations that did not run as asked:
	// a broker budget the die's manager refused, or a Manager.Step that
	// failed, leaving the die's tenants on last tick's grants. Any
	// nonzero value wants looking at.
	StepErrors uint64 `json:"step_errors"`
}

// ChipStats counts the chip fleet's refused actuations.
type ChipStats struct {
	// ShareRefusals counts time shares a die's tile ledger would not
	// grant when the tick applied the arbiter's split. They are
	// transient by design — the arbiter re-offers the share next tick —
	// and routine wherever a die's manager is granted more units than
	// the die has tiles; a count that keeps pace with ticks × apps means
	// the arbiter and the ledger disagree about what fits.
	ShareRefusals uint64 `json:"share_refusals"`
}

// ChipStatusResponse is one die's tile-ledger snapshot.
//
//	GET /v1/chip (single-die daemons), GET /v1/chips (per die)
type ChipStatusResponse struct {
	// Chip is the die index within the fleet.
	Chip int `json:"chip"`
	// Tiles is the physical tile pool.
	Tiles int `json:"tiles"`
	// Partitions is the number of applications holding a partition.
	Partitions int `json:"partitions"`
	// CoreEquivalents is the ledger in use: sum of cores × time share.
	CoreEquivalents float64 `json:"core_equivalents"`
	// PowerW is uncore plus every partition's attributed power.
	PowerW float64 `json:"power_w"`
	// PowerBudgetW is the configured chip-wide budget (0 = unlimited).
	PowerBudgetW float64 `json:"power_budget_w,omitempty"`
	// UncoreW is the constant chip overhead.
	UncoreW float64 `json:"uncore_w"`
	// MemBandwidthBps and MemDemandBps are the chip's off-chip bandwidth
	// and the fleet's aggregate effective demand on it; MemRho and NoCRho
	// are the resulting utilizations from the last contention pass.
	MemBandwidthBps float64 `json:"mem_bandwidth_bps"`
	MemDemandBps    float64 `json:"mem_demand_bps"`
	MemRho          float64 `json:"mem_rho"`
	NoCRho          float64 `json:"noc_rho"`
	// MemBandwidthScale is the die's current bandwidth derating in
	// (0, 1]: 1 nominal, lower when a thermal throttle / failed channel
	// (or the chaos harness) has taken capacity away.
	MemBandwidthScale float64 `json:"mem_bandwidth_scale,omitempty"`
	// LedgerFaults counts tile-ledger accounting violations the chip has
	// caught; any nonzero value is a bug.
	LedgerFaults uint64 `json:"ledger_faults,omitempty"`
}

// ChipsResponse is the fleet-wide ledger view.
//
//	GET /v1/chips
type ChipsResponse struct {
	// Chips is every die's ledger snapshot, in die order.
	Chips []ChipStatusResponse `json:"chips"`
	// Migrations counts inter-die partition moves applied so far.
	Migrations uint64 `json:"migrations"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}
