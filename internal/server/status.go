package server

import (
	"fmt"
	"math"
	"time"

	"angstrom/internal/angstrom"
	"angstrom/internal/core"
	"angstrom/internal/heartbeat"
)

// Status reports one application's serving state.
func (d *Daemon) Status(name string) (AppStatus, error) {
	a, ok := d.lookup(name)
	if !ok {
		return AppStatus{}, fmt.Errorf("server: %q %w", name, ErrNotEnrolled)
	}
	return d.status(a), nil
}

// List reports every enrolled application, sorted by name.
func (d *Daemon) List() []AppStatus {
	apps := d.dir.apps()
	out := make([]AppStatus, len(apps))
	for i, a := range apps {
		out[i] = d.status(a)
	}
	sortAppStatuses(out)
	return out
}

func (d *Daemon) status(a *app) AppStatus {
	obs := a.mon.Observe()
	st := AppStatus{
		Name:     a.name,
		Workload: a.spec.Name,
		Observation: ObservationView{
			Beats:         obs.Beats,
			WindowRate:    obs.WindowRate,
			GlobalRate:    obs.GlobalRate,
			InstantRate:   obs.InstantRate,
			WindowLatency: obs.WindowLatency,
			Distortion:    obs.Distortion,
			LastTime:      obs.LastTime,
		},
		GoalMet: true,
	}
	// goal_met is judged from the band and the observation this response
	// reports, whatever beat or goal change lands meanwhile.
	if minRate, maxRate, ok := a.mon.PerformanceBand(); ok {
		st.Goal = GoalView{MinRate: minRate, MaxRate: maxRate}
		st.GoalMet = heartbeat.PerformanceGoal{MinRate: minRate, MaxRate: maxRate}.Met(obs.WindowRate)
	}
	if part := a.partition(); part != nil {
		st.Chip = d.chipView(part)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st.EnrolledAt = a.enrolledAt
	st.Cores = AllocationView{
		Units:   a.alloc.Units,
		Demand:  a.alloc.Demand,
		Share:   a.alloc.Share,
		GoalFit: a.alloc.GoalMet,
	}
	st.DecisionErr = a.decisionErr
	if st.Chip != nil {
		st.Chip.Chip = a.chip
		st.Chip.ActuationErr = a.actErr
	}
	if a.hasDecision {
		st.Decision = decisionView(a.decision, a.cls)
	}
	return st
}

// decisionView renders a core.Decision with actuator settings resolved
// to their labels, which cls rendered once per configuration.
func decisionView(dec core.Decision, cls *appClass) *DecisionView {
	return &DecisionView{
		Time:           dec.Time,
		Goal:           dec.Goal,
		Observed:       dec.Observed,
		BaseEstimate:   dec.BaseEstimate,
		TargetSpeedup:  dec.TargetSpeedup,
		HiFrac:         dec.HiFrac,
		PredictedPower: dec.PredictedPower,
		LoConfig:       cls.labels[dec.Schedule.Lo.ID],
		HiConfig:       cls.labels[dec.Schedule.Hi.ID],
	}
}

// chipView renders one chip-backed app's hardware state for the wire.
// The caller passes the partition it already loaded so the view is
// internally consistent even while a migration rebinds the app (and
// fills in the die index and actuation error under the app's mutex).
func (d *Daemon) chipView(part *angstrom.Partition) *ChipView {
	s := part.Sense()
	cfg := part.Config()
	in := part.Interference()
	return &ChipView{
		Cores:     cfg.Cores,
		CacheKB:   cfg.CacheKB,
		VF:        d.cfg.Chip.vfLabels[cfg.VF],
		TimeShare: part.Share(),
		IPS:       s.IPS,
		PowerW:    s.PowerW,
		StallFrac: s.StallFrac,
		HeartRate: s.HeartRate,
		EnergyJ:   s.EnergyJ,
		Slowdown:  in.Slowdown,
		MemRho:    in.MemRho,
		NoCRho:    in.NoCRho,
	}
}

// ChipStatuses reports every die's ledger, in die order (nil when the
// daemon is not chip-backed).
func (d *Daemon) ChipStatuses() []ChipStatusResponse {
	if d.fleet == nil {
		return nil
	}
	out := make([]ChipStatusResponse, d.fleet.Chips())
	for i := range out {
		out[i] = d.chipStatusAt(i)
	}
	return out
}

func (d *Daemon) chipStatusAt(i int) ChipStatusResponse {
	sc := d.fleet.Chip(i)
	parts, used := sc.Usage()
	c := sc.Contention()
	return ChipStatusResponse{
		Chip:              i,
		Tiles:             sc.Tiles(),
		Partitions:        parts,
		CoreEquivalents:   used,
		PowerW:            sc.TotalPowerW(),
		PowerBudgetW:      d.cfg.Chip.PowerBudgetW,
		UncoreW:           d.cfg.Chip.Params.UncoreW,
		MemBandwidthBps:   c.MemCapacityBps,
		MemDemandBps:      c.MemDemandBps,
		MemRho:            c.MemRho,
		NoCRho:            c.NoCRho,
		MemBandwidthScale: sc.MemBandwidthScale(),
		LedgerFaults:      sc.LedgerFaults(),
	}
}

// Stats reports daemon-wide counters.
func (d *Daemon) Stats() StatsResponse {
	st := StatsResponse{
		Apps:             d.dir.len(),
		Cores:            d.cfg.Cores,
		Migrations:       d.migrations.Load(),
		Ticks:            d.ticks.Load(),
		Beats:            d.beats.Load(),
		Decisions:        d.decisions.Load(),
		Evicted:          d.evicted.Load(),
		WireConns:        int(d.wireConns.Load()),
		WireFrames:       d.wireFrames.Load(),
		ClockSeconds:     d.clock.Now(),
		UptimeSeconds:    time.Since(d.started).Seconds(),
		PeriodSeconds:    d.cfg.Period.Seconds(),
		Accelerated:      d.simClock != nil,
		PowerOvercommitW: math.Float64frombits(d.powerOvercommit.Load()),
		Tick:             TickStats{StepErrors: d.stepErrors.Load()},
	}
	if d.fleet != nil {
		st.Chips = d.fleet.Chips()
		st.Chip = &ChipStats{ShareRefusals: d.shareRefusals.Load()}
		for i := range st.Chips {
			parts, _ := d.fleet.Chip(i).Usage()
			st.ChipApps += parts
		}
	}
	if jd := d.jd; jd.w != nil {
		st.Journal = &JournalStats{
			Records:        jd.w.Seq(),
			SnapshotSeq:    jd.snapSeq.Load(),
			Degraded:       jd.degraded.Load(),
			Error:          jd.reason(),
			DroppedRecords: jd.dropped.Load(),
		}
	}
	return st
}
