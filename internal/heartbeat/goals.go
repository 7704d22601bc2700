package heartbeat

import "fmt"

// The paper (§3.1) lists three application-specified goal classes:
// performance (target heart rate or tagged latency), accuracy (maximum
// distortion over a set of heartbeats), and power/energy (target average
// power at a heart rate, or energy between tagged beats). Goals collects
// whichever of these the application has declared.
type Goals struct {
	Performance *PerformanceGoal
	Latency     *LatencyGoal
	Accuracy    *AccuracyGoal
	Power       *PowerGoal
	Energy      *EnergyGoal
}

// PerformanceGoal asks for the windowed heart rate to stay inside
// [MinRate, MaxRate] beats per second. MaxRate <= 0 means "no upper bound".
type PerformanceGoal struct {
	MinRate float64
	MaxRate float64
}

// Target is the midpoint the runtime steers toward: the midpoint of the
// band, or MinRate when the band is half-open.
func (g PerformanceGoal) Target() float64 {
	if g.MaxRate > 0 {
		return (g.MinRate + g.MaxRate) / 2
	}
	return g.MinRate
}

// Met reports whether a windowed heart rate lies inside the band.
func (g PerformanceGoal) Met(rate float64) bool {
	return rate >= g.MinRate && (g.MaxRate <= 0 || rate <= g.MaxRate)
}

// LatencyGoal asks for at most Target seconds between a beat tagged
// StartTag and the following beat tagged EndTag.
type LatencyGoal struct {
	StartTag, EndTag uint64
	Target           float64
}

// AccuracyGoal bounds mean distortion over the observation window.
type AccuracyGoal struct {
	MaxDistortion float64
}

// PowerGoal asks for average power at most TargetW while sustaining
// MinRate beats/s.
type PowerGoal struct {
	TargetW float64
	MinRate float64
}

// EnergyGoal bounds the energy between tagged beats.
type EnergyGoal struct {
	StartTag, EndTag uint64
	TargetJ          float64
}

// SetPerformanceGoal declares a target heart-rate band. It panics on an
// inverted band, which is always a caller bug. Goal changes are part of
// the daemon's replayed state, so inside internal/server only journaling
// writers may call it.
//
//angstrom:journaled mutator
func (m *Monitor) SetPerformanceGoal(minRate, maxRate float64) {
	if maxRate > 0 && maxRate < minRate {
		panic(fmt.Sprintf("heartbeat: inverted rate band [%g, %g]", minRate, maxRate))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.goals.Performance = &PerformanceGoal{MinRate: minRate, MaxRate: maxRate}
}

// SetLatencyGoal declares a tagged-latency target.
//
//lint:allow unusedexport the tagged and accuracy goal kinds wait for ROADMAP V/M to decide what a served goal is
func (m *Monitor) SetLatencyGoal(startTag, endTag uint64, target float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.goals.Latency = &LatencyGoal{StartTag: startTag, EndTag: endTag, Target: target}
}

// SetAccuracyGoal declares a maximum mean distortion.
//
//lint:allow unusedexport the tagged and accuracy goal kinds wait for ROADMAP V/M to decide what a served goal is
func (m *Monitor) SetAccuracyGoal(maxDistortion float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.goals.Accuracy = &AccuracyGoal{MaxDistortion: maxDistortion}
}

// SetPowerGoal declares a target average power for a given minimum rate.
//
//lint:allow unusedexport the tagged and accuracy goal kinds wait for ROADMAP V/M to decide what a served goal is
func (m *Monitor) SetPowerGoal(targetW, minRate float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.goals.Power = &PowerGoal{TargetW: targetW, MinRate: minRate}
}

// SetEnergyGoal declares a tagged-energy target.
//
//lint:allow unusedexport the tagged and accuracy goal kinds wait for ROADMAP V/M to decide what a served goal is
func (m *Monitor) SetEnergyGoal(startTag, endTag uint64, targetJ float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.goals.Energy = &EnergyGoal{StartTag: startTag, EndTag: endTag, TargetJ: targetJ}
}

// Goals returns a copy of the declared goals (pointers are to copies, so
// observers cannot mutate application goals).
func (m *Monitor) Goals() Goals {
	m.mu.Lock()
	defer m.mu.Unlock()
	var g Goals
	if m.goals.Performance != nil {
		v := *m.goals.Performance
		g.Performance = &v
	}
	if m.goals.Latency != nil {
		v := *m.goals.Latency
		g.Latency = &v
	}
	if m.goals.Accuracy != nil {
		v := *m.goals.Accuracy
		g.Accuracy = &v
	}
	if m.goals.Power != nil {
		v := *m.goals.Power
		g.Power = &v
	}
	if m.goals.Energy != nil {
		v := *m.goals.Energy
		g.Energy = &v
	}
	return g
}

// PerformanceBand reports the declared heart-rate band without
// allocating. Goals copies every declared goal into fresh pointers —
// correct for observers that hold the result, but two allocations per
// call; fleet-scale hot paths (the manager's per-tick observe loop runs
// once per enrolled application) read just the performance band through
// this accessor instead. ok is false when no performance goal is set.
func (m *Monitor) PerformanceBand() (minRate, maxRate float64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.goals.Performance == nil {
		return 0, 0, false
	}
	return m.goals.Performance.MinRate, m.goals.Performance.MaxRate, true
}

// Status reports, for each declared goal, whether the current observation
// satisfies it.
type Status struct {
	PerformanceMet bool
	PerformanceSet bool
	LatencyMet     bool
	LatencySet     bool
	AccuracyMet    bool
	AccuracySet    bool
	PowerMet       bool
	PowerSet       bool
	EnergyMet      bool
	EnergySet      bool
}

// AllMet reports whether every declared goal is currently satisfied.
func (s Status) AllMet() bool {
	return (!s.PerformanceSet || s.PerformanceMet) &&
		(!s.LatencySet || s.LatencyMet) &&
		(!s.AccuracySet || s.AccuracyMet) &&
		(!s.PowerSet || s.PowerMet) &&
		(!s.EnergySet || s.EnergyMet)
}

// Check evaluates all declared goals against the current window.
func (m *Monitor) Check() Status {
	obs := m.Observe()
	goals := m.Goals()
	var s Status
	if g := goals.Performance; g != nil {
		s.PerformanceSet = true
		s.PerformanceMet = g.Met(obs.WindowRate)
	}
	if g := goals.Latency; g != nil {
		s.LatencySet = true
		if sec, _, ok := m.TaggedSpan(g.StartTag, g.EndTag); ok {
			s.LatencyMet = sec <= g.Target
		}
	}
	if g := goals.Accuracy; g != nil {
		s.AccuracySet = true
		s.AccuracyMet = obs.Distortion <= g.MaxDistortion
	}
	if g := goals.Power; g != nil {
		s.PowerSet = true
		s.PowerMet = obs.PowerW <= g.TargetW && obs.WindowRate >= g.MinRate
	}
	if g := goals.Energy; g != nil {
		s.EnergySet = true
		if _, joules, ok := m.TaggedSpan(g.StartTag, g.EndTag); ok {
			s.EnergyMet = joules <= g.TargetJ
		}
	}
	return s
}
