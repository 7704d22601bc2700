package angstrom

import "fmt"

// PartnerCore models §4.3: each main core is paired with a small,
// low-power core that can inspect and manipulate the main core's state
// (counters, configuration registers) and drain its event-probe queues.
// Running the SEEC decision engine there keeps the main core free for
// application work, at ~10% of the main core's area and power.
//
// The model exposes the two quantities the evaluation needs — how long a
// decision takes and what it costs in energy — for a decision workload
// measured in (main-core-equivalent) cycles.
type PartnerCore struct {
	// Main is the paired main core's current operating point.
	Main VFPoint
	// Energy is the main core's energy model (the partner derives from
	// it by the ratios below).
	Energy CoreEnergy
	// FreqRatio is partner clock / main clock (simplified pipeline, low
	// power circuits: slower).
	FreqRatio float64
	// PowerRatio is partner power / main power at equal voltage (§4.3:
	// "about 10% of the area and 10% of the power").
	PowerRatio float64
	// CPIRatio is the partner's cycles-per-instruction penalty from the
	// simplified pipeline, smaller caches and fewer functional units.
	CPIRatio float64

	// Counters is the paired main core's counter file (the partner has
	// direct access, §4.3).
	Counters *CounterFile
	// Events is the probe queue the partner drains.
	Events *EventQueue
}

// NewPartnerCore pairs a partner with a main core's observation state.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func NewPartnerCore(main VFPoint, energy CoreEnergy, counters *CounterFile, events *EventQueue) (*PartnerCore, error) {
	if counters == nil {
		return nil, fmt.Errorf("angstrom: partner core without counter access")
	}
	if err := energy.Validate(); err != nil {
		return nil, err
	}
	return &PartnerCore{
		Main:       main,
		Energy:     energy,
		FreqRatio:  0.2,
		PowerRatio: 0.1,
		CPIRatio:   1.5,
		Counters:   counters,
		Events:     events,
	}, nil
}

// DecisionCost is the time and energy of running a decision workload.
type DecisionCost struct {
	Seconds float64
	Joules  float64
}

// RunDecision models executing `instructions` of decision-engine code on
// the partner core at the main core's current voltage.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func (p *PartnerCore) RunDecision(instructions float64) DecisionCost {
	f := p.Main.FHz * p.FreqRatio
	cycles := instructions * p.CPIRatio
	seconds := cycles / f
	mainPowerW := p.Energy.DynamicPJPerCycle(p.Main.Volts)*1e-12*p.Main.FHz +
		p.Energy.LeakW(p.Main.Volts)
	return DecisionCost{
		Seconds: seconds,
		Joules:  mainPowerW * p.PowerRatio * seconds,
	}
}

// RunDecisionOnMain models the same workload executed on the main core —
// the baseline the partner core exists to beat. It costs application
// time (the main core cannot run the application meanwhile) and full
// main-core power.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func (p *PartnerCore) RunDecisionOnMain(instructions float64) DecisionCost {
	seconds := instructions / p.Main.FHz // CPI 1 on the big core
	mainPowerW := p.Energy.DynamicPJPerCycle(p.Main.Volts)*1e-12*p.Main.FHz +
		p.Energy.LeakW(p.Main.Volts)
	return DecisionCost{Seconds: seconds, Joules: mainPowerW * seconds}
}

// DrainEvents pops up to max pending probe events for processing,
// returning them oldest-first.
//
//lint:allow unusedexport the §4.1 probes and §4.3 partner core wait for ROADMAP B.2 (a daemon that observes itself)
func (p *PartnerCore) DrainEvents(max int) []Event {
	if p.Events == nil {
		return nil
	}
	var out []Event
	for len(out) < max {
		e, ok := p.Events.Pop()
		if !ok {
			break
		}
		out = append(out, e)
	}
	return out
}
