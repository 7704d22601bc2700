package cache

import "fmt"

// Adaptive is the ARCc-style adaptive coherence architecture (§4.2.2,
// [19]): it provides both a directory protocol and a shared-NUCA
// protocol over the same physical cache slices and selects, per
// application, whichever currently serves accesses with lower average
// latency.
//
// Selection is measurement-driven, modeled after shadow-tag monitoring:
// every access is performed by the active protocol (whose latency the
// core pays) and also replayed against the alternative's shadow state,
// so both protocols' steady-state costs are continuously known. At each
// epoch boundary the controller switches to the alternative if it has
// been cheaper by more than a hysteresis margin, paying a flush penalty
// — the real cost of migrating the on-chip data layout.
//
// In the Angstrom design this knob is exposed to SEEC like any other
// actuator; Adaptive is the hardware-autonomous policy it defaults to.
type Adaptive struct {
	prots  [2]Protocol
	active int

	epochLen   int
	hysteresis float64

	n            int
	cycles       [2]float64 // per-protocol latency this epoch
	flushPenalty float64
}

// NewAdaptive wraps a directory and a NUCA protocol. epochLen is the
// decision epoch in accesses.
func NewAdaptive(dir, nuca Protocol, epochLen int, flushPenaltyCycles float64) (*Adaptive, error) {
	if dir == nil || nuca == nil {
		return nil, fmt.Errorf("cache: adaptive protocol needs both protocols")
	}
	if epochLen < 16 {
		return nil, fmt.Errorf("cache: epoch %d too short", epochLen)
	}
	return &Adaptive{
		prots:        [2]Protocol{dir, nuca},
		epochLen:     epochLen,
		hysteresis:   0.95, // alternative must be >=5% better to switch
		flushPenalty: flushPenaltyCycles,
	}, nil
}

// Name implements Protocol.
func (a *Adaptive) Name() string { return "arcc(" + a.prots[a.active].Name() + ")" }

// Access implements Protocol: the active protocol serves the access, the
// alternative's shadow state replays it, and epoch accounting may flip
// the selection.
func (a *Adaptive) Access(core int, line uint64, write bool) Outcome {
	out := a.prots[a.active].Access(core, line, write)
	shadow := a.prots[1-a.active].Access(core, line, write)
	a.cycles[a.active] += out.Cycles
	a.cycles[1-a.active] += shadow.Cycles
	a.n++
	if a.n >= a.epochLen {
		if a.cycles[1-a.active] < a.cycles[a.active]*a.hysteresis {
			a.active = 1 - a.active
			out.Cycles += a.flushPenalty
		}
		a.n, a.cycles = 0, [2]float64{}
	}
	return out
}

// FlushAll implements Protocol.
func (a *Adaptive) FlushAll() int {
	return a.prots[0].FlushAll() + a.prots[1].FlushAll()
}

// Stats implements Protocol, reporting the active protocol's counters
// (the shadow protocol's counters are monitoring state, not traffic).
func (a *Adaptive) Stats() Stats { return a.prots[a.active].Stats() }
