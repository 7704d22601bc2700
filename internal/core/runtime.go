// Package core implements the SEEC runtime decision system — the paper's
// primary contribution. SEEC closes an *open* observe-decide-act loop
// (Figure 1): applications state goals through the Application Heartbeats
// API (internal/heartbeat), system components at every layer register
// actions through the actuator interface (internal/actuator), and this
// runtime decides, every decision period, how to use the registered
// actions to meet the goals at minimum cost.
//
// The decision engine is layered exactly as §3.3 describes:
//
//  1. a classical control system (control.Integral) turns the heart-rate
//     error into a speedup demand;
//  2. an adaptive layer (control.Kalman for the workload's base speed,
//     an RLS corrector for actuator models whose observed behaviour
//     diverges from their declared multipliers);
//  3. a machine-learning layer (control.MW) that matches applications the
//     runtime has never seen to prior behaviour profiles.
//
// The speedup demand is translated to a minimum-power schedule over the
// discrete configuration space (control.Translator), possibly
// time-multiplexing two configurations inside one decision period.
package core

import (
	"errors"
	"fmt"
	"math"

	"angstrom/internal/actuator"
	"angstrom/internal/control"
	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// Prior is a candidate behaviour profile for the machine-learning layer:
// the base heart rate a known application class sustains at speedup 1.
type Prior struct {
	Name     string
	BaseRate float64
}

// Options tune the runtime. The zero value of each field selects the
// documented default.
type Options struct {
	// KalmanQ and KalmanR are the process/measurement noise covariances
	// of the base-speed filter. Defaults 0.05 and 1.
	KalmanQ, KalmanR float64
	// Priors, if non-empty, enables the machine-learning layer for
	// applications the runtime has no experience with.
	Priors []Prior
}

// pole is the classical controller's pole: fast, but robust to the
// Kalman estimate lagging a phase change.
const pole = 0.4

// priorRounds is how many decisions blend the prior models before the
// runtime trusts the Kalman filter alone.
const priorRounds = 8

func (o *Options) fill() {
	if o.KalmanQ == 0 {
		o.KalmanQ = 0.05
	}
	if o.KalmanR == 0 {
		o.KalmanR = 1
	}
}

// validate rejects what fill leaves unusable: noise covariances that are
// not finite and positive. Each test is written so that NaN, which fails
// every ordered comparison, fails it.
func (o *Options) validate() error {
	if !(o.KalmanQ > 0 && o.KalmanQ <= math.MaxFloat64) || !(o.KalmanR > 0 && o.KalmanR <= math.MaxFloat64) {
		return fmt.Errorf("core: Kalman covariances q=%g, r=%g must be finite and positive", o.KalmanQ, o.KalmanR)
	}
	return nil
}

// Decision is one output of the decide phase: the schedule the runtime
// wants executed during the next decision period.
type Decision struct {
	Time          sim.Time
	Goal          float64 // target heart rate (beats/s)
	Observed      float64 // windowed heart rate at decision time
	BaseEstimate  float64 // b̂: heart rate at speedup 1
	TargetSpeedup float64 // controller demand
	Schedule      control.Schedule

	// LoCfg/HiCfg are the concrete configurations behind the schedule;
	// run HiCfg for HiFrac of the period, LoCfg for the rest. They alias
	// the space's point table, which every decision of every runtime of
	// the class (see Class) shares: read-only (Clone before changing one).
	LoCfg, HiCfg actuator.Config
	HiFrac       float64
	// PredictedPower is the schedule's power multiplier under the
	// (corrected) actuator models.
	PredictedPower float64
}

// Slice is one contiguous piece of an executed decision.
type Slice struct {
	Cfg      actuator.Config
	Duration float64
}

// Slices splits a decision period into the at-most-two slices the
// schedule requires, low-power slice first (SEEC runs the cheap
// configuration first so a truncated period errs toward saving power).
// The slices share the decision's configurations (read-only).
func (d Decision) Slices(period float64) []Slice { return d.AppendSlices(nil, period) }

// AppendSlices is Slices appending to dst: a loop that re-decides every
// period passes last period's slices, cut to length zero, and allocates
// nothing.
func (d Decision) AppendSlices(dst []Slice, period float64) []Slice {
	if d.HiFrac >= 1 || d.LoCfg.Equal(d.HiCfg) {
		return append(dst, Slice{Cfg: d.HiCfg, Duration: period})
	}
	if d.HiFrac <= 0 {
		return append(dst, Slice{Cfg: d.LoCfg, Duration: period})
	}
	return append(dst,
		Slice{Cfg: d.LoCfg, Duration: period * (1 - d.HiFrac)},
		Slice{Cfg: d.HiCfg, Duration: period * d.HiFrac})
}

// Runtime is the SEEC runtime for one application. Its filter,
// controller, corrector and translator are held in this one block by
// value; what it shares with its class (see Class) it reads in place:
// the point table, the feature layout and, until its first correction,
// the hull.
type Runtime struct {
	app   string
	mon   *heartbeat.Monitor
	space *actuator.Space
	clock sim.Nower
	opts  Options

	points []actuator.Point // the class's materialized space, index = Candidate.ID
	kf     control.Kalman
	ctl    control.Integral
	tr     control.Translator
	corr   corrector
	// cands is the corrected candidate table a rebuild hands the
	// translator; the first rebuild allocates it.
	cands []control.Candidate

	mw *control.MW

	last      Decision
	hasLast   bool
	decisions int

	prevBeats uint64
	prevTime  sim.Time

	// Goal constraints (see powercap.go): zero means unconstrained.
	powerCap        float64
	distortionBound float64
}

// Class is the part of a runtime that depends only on the declared model
// of its action space, tabulated once per space and shared by every
// runtime of the class: the space itself, the point table, where each
// actuator's settings sit in the corrector's feature vector, the declared
// speedup range the controller starts saturated to, and the translator's
// hull over the declared speedups.
// A runtime's corrections start at zero and exp(0) is exactly 1, so that
// hull is bit for bit the one the runtime would build itself; it reads
// it in place until its first rebuild — the corrector turning dirty, a
// power cap or a distortion bound set or cleared — builds its own.
// Immutable once NewClass returns.
type Class struct {
	space      *actuator.Space
	points     []actuator.Point
	offsets    []int // feature offset of each actuator's settings block
	nfeat      int
	minS, maxS float64
	tr         control.Translator
}

// NewClass tabulates the class of runtimes deciding over space.
func NewClass(space *actuator.Space) (*Class, error) {
	if space == nil {
		return nil, errors.New("core: nil space")
	}
	cl := &Class{space: space, points: space.Points(), offsets: make([]int, len(space.Acts)), minS: math.Inf(1), maxS: math.Inf(-1)}
	for i, a := range space.Acts {
		cl.offsets[i] = cl.nfeat
		cl.nfeat += len(a.Settings)
	}
	cands := make([]control.Candidate, len(cl.points))
	for i, p := range cl.points {
		cl.minS = math.Min(cl.minS, p.Effect.Speedup)
		cl.maxS = math.Max(cl.maxS, p.Effect.Speedup)
		cands[i] = control.Candidate{ID: i, Speedup: p.Effect.Speedup, Power: p.Effect.PowerX}
	}
	if err := cl.tr.Rebuild(cands); err != nil {
		return nil, err
	}
	return cl, nil
}

var errNilInput = errors.New("core: nil monitor, space or clock")

// New builds a runtime for app, observing mon and deciding over space.
// The application must have declared a performance goal before the
// first Step (the paper's experiments all use performance goals with
// power as the cost to minimize). The runtime reads the space's declared
// model (Settings, Points) in place and never writes it; what it learns
// about the application lives in its own corrector, filters and
// translator. It is Class.New over a class of space's own.
func New(app string, clock sim.Nower, mon *heartbeat.Monitor, space *actuator.Space, opts Options) (*Runtime, error) {
	if space == nil {
		return nil, errNilInput
	}
	cl, err := NewClass(space)
	if err != nil {
		return nil, err
	}
	return cl.New(app, clock, mon, opts)
}

// New builds a runtime of the class (see the package-level New) deciding
// over the class's space.
func (cl *Class) New(app string, clock sim.Nower, mon *heartbeat.Monitor, opts Options) (*Runtime, error) {
	if mon == nil || clock == nil {
		return nil, errNilInput
	}
	opts.fill()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	r := &Runtime{
		app:    app,
		mon:    mon,
		space:  cl.space,
		clock:  clock,
		opts:   opts,
		points: cl.points,
		kf:     control.NewKalman(opts.KalmanQ, opts.KalmanR),
		ctl:    control.NewIntegral(pole, cl.minS, cl.maxS),
		tr:     cl.tr.Shared(),
		corr:   corrector{offsets: cl.offsets, nfeat: cl.nfeat},
	}
	if len(opts.Priors) > 0 {
		r.mw = control.NewMW(len(opts.Priors), 2)
	}
	return r, nil
}

// MarkIdle advances the observation interval without deciding. A
// serving loop that holds an application's standing decision through a
// quiescent period (no new beats) calls this instead of Step each
// skipped tick. Two artifacts are avoided: stepping would feed the
// integral controller a zero rate (an artifact of the idle interval,
// not of the application) and wind it up toward maximum speedup; and
// NOT advancing the interval would dilute the first post-idle
// measurement over the whole gap, corrupting the Kalman base estimate
// on resume. With the interval resynced every skipped tick, the wake-up
// Step measures exactly the period in which beats reappeared.
func (r *Runtime) MarkIdle() { r.prevTime = r.clock.Now() }

// candidates maps the materialized space through the model corrector,
// into the runtime's candidate table.
func (r *Runtime) candidates() []control.Candidate {
	if r.cands == nil {
		r.cands = make([]control.Candidate, len(r.points))
	}
	for i, p := range r.points {
		sp := r.corr.correctedSpeedup(p.Cfg, p.Effect.Speedup)
		r.cands[i] = control.Candidate{ID: i, Speedup: sp, Power: p.Effect.PowerX}
	}
	return r.cands
}

// Step runs one observe-decide iteration and returns the decision. The
// caller (the act phase) executes the decision's slices over the next
// decision period, then calls Step again.
func (r *Runtime) Step() (Decision, error) {
	minRate, maxRate, ok := r.mon.PerformanceBand()
	if !ok {
		return Decision{}, fmt.Errorf("core: application %q declared no performance goal", r.app)
	}
	goal := heartbeat.PerformanceGoal{MinRate: minRate, MaxRate: maxRate}.Target()
	obs := r.mon.Observe()
	now := r.clock.Now()

	// The controlled variable is the heart rate over the *whole* elapsed
	// decision interval, not the monitor's trailing window: a
	// time-multiplexed interval ends in its high slice, and a trailing
	// window would see only that slice and bias the controller.
	observedRate := obs.WindowRate
	if r.hasLast && now > r.prevTime {
		observedRate = float64(obs.Beats-r.prevBeats) / (now - r.prevTime)
	}
	r.prevBeats = obs.Beats
	r.prevTime = now

	// --- Observe: fold the last interval's measurement into the layers.
	applied := 1.0
	if r.hasLast {
		applied = r.last.Schedule.AvgSpeedup()
	}
	var base float64
	if obs.Beats >= 2 && observedRate > 0 {
		base = r.kf.Update(observedRate, applied)
		if r.hasLast {
			r.corr.observe(r.last, r.points, observedRate)
			if r.corr.dirty() {
				if err := r.tr.Rebuild(r.constrainedCandidates()); err != nil {
					return Decision{}, err
				}
			}
		}
		if r.mw != nil && r.decisions < priorRounds {
			base = r.blendPriors(observedRate, applied, base)
		}
	} else {
		// No signal yet: bootstrap from priors if present.
		base = r.kf.Estimate()
		if base == 0 && r.mw != nil {
			preds := make([]float64, len(r.opts.Priors))
			for i, p := range r.opts.Priors {
				preds[i] = p.BaseRate
			}
			base = r.mw.Blend(preds)
		}
	}

	// --- Decide: classical controller + translator.
	target := r.ctl.Step(goal, observedRate, base)
	sch := r.tr.Translate(target)
	d := Decision{
		Time:           now,
		Goal:           goal,
		Observed:       observedRate,
		BaseEstimate:   base,
		TargetSpeedup:  target,
		Schedule:       sch,
		LoCfg:          r.points[sch.Lo.ID].Cfg,
		HiCfg:          r.points[sch.Hi.ID].Cfg,
		HiFrac:         sch.HiFrac,
		PredictedPower: sch.AvgPower(),
	}
	r.last = d
	r.hasLast = true
	r.decisions++
	return d, nil
}

// blendPriors scores each prior model against the new measurement and
// returns the MW-weighted blend of prior predictions and the Kalman
// estimate. Losses are normalized relative prediction errors.
func (r *Runtime) blendPriors(h, applied, kalman float64) float64 {
	measured := h / applied
	losses := make([]float64, len(r.opts.Priors))
	preds := make([]float64, len(r.opts.Priors))
	for i, p := range r.opts.Priors {
		preds[i] = p.BaseRate
		denom := math.Max(measured, 1e-9)
		losses[i] = math.Min(math.Abs(p.BaseRate-measured)/denom, 1)
	}
	r.mw.Update(losses)
	blend := r.mw.Blend(preds)
	// Weight shifts from the prior blend to the Kalman estimate as
	// evidence accumulates.
	alpha := float64(r.decisions+1) / float64(priorRounds+1)
	return alpha*kalman + (1-alpha)*blend
}

// RequiredPowerX reports the smallest declared power multiplier among
// configurations whose (RLS-corrected) speedup reaches `speedup` — the
// headroom a power cap must leave for the speedup to stay attainable
// under the runtime's current model. If no configuration reaches it,
// the cheapest configuration of the highest corrected speedup tier is
// returned. Callers (power budget arbiters) re-evaluate it as the
// correction layer learns, so the answer tracks observed behaviour
// rather than the designer-declared model.
func (r *Runtime) RequiredPowerX(speedup float64) float64 {
	best := math.Inf(1)
	fallbackS, fallbackX := math.Inf(-1), 1.0
	for _, p := range r.points {
		s, x := r.corr.correctedSpeedup(p.Cfg, p.Effect.Speedup), p.Effect.PowerX
		if s > fallbackS || (s == fallbackS && x < fallbackX) {
			fallbackS, fallbackX = s, x
		}
		if s >= speedup && x < best {
			best = x
		}
	}
	if math.IsInf(best, 1) {
		return fallbackX
	}
	return best
}

// Space exposes the runtime's action space, its class's declaration
// (read-only; drivers apply its configurations).
//
//lint:allow unusedexport the class tests prove every app decides over its class's one space through it
func (r *Runtime) Space() *actuator.Space { return r.space }

// BaseEstimate reports the current base-speed estimate.
func (r *Runtime) BaseEstimate() float64 { return r.kf.Estimate() }
