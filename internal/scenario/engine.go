package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"

	"angstrom/internal/oracle"
	"angstrom/internal/server"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

// Host is the daemon surface the engine drives: the real mutation paths
// (enroll, withdraw, goal, beat) plus the manually-stepped tick. It is
// an interface on purpose — angstromlint's clock-discipline flood stops
// at interface calls, which makes this the sanctioned boundary between
// the deterministic engine (annotated below) and server internals that
// legitimately touch the wall clock (snapshot pacing, uptime counters).
// Determinism across layouts is the daemon's own worker-pool contract;
// the engine's job is to feed it a byte-identical schedule.
type Host interface {
	Enroll(req server.EnrollRequest) error
	Withdraw(name string) error
	SetGoal(name string, minRate, maxRate float64) error
	Beat(name string, count int, distortion float64) error
	Tick()
	List() []server.AppStatus
	Stats() server.StatsResponse
	// CrashRestart flushes and kills the current daemon and boots a
	// successor from its journal through the real recovery path,
	// reporting how many applications survived. Hosts without a journal
	// return an error.
	CrashRestart() (restoredApps int, err error)
	// SaturateChip derates one die's memory bandwidth to factor of
	// nominal (chip-backed hosts only; factor 1 restores).
	SaturateChip(chip int, factor float64) error
	Close() error
}

// Options selects the daemon layout under test. The scenario contract
// is that every layout produces the same transcript bytes.
type Options struct {
	TickWorkers int
}

// Result is one scenario run: the scorecard and the byte-exact
// transcript the determinism tests compare across layouts.
type Result struct {
	Scorecard  Scorecard
	Transcript []byte
}

// Run builds a daemon-backed host for spec and drives the scenario
// through it.
func Run(spec Spec, opts Options) (*Result, error) {
	h, err := NewDaemonHost(spec, opts)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	return Drive(spec, h)
}

// liveApp is the engine's model of one enrolled application: it emits
// beats at the rate its class's scaling curve predicts for its current
// allocation, divided by its current work per beat.
type liveApp struct {
	name  string
	class int
	rng   *sim.RNG
	// carry accumulates fractional beats across ticks.
	carry float64
	// units/share mirror the daemon's latest allocation.
	units int
	share float64
	// minRate/maxRate is the current goal; base* the declared one
	// (goal thrash flips between them).
	minRate, maxRate float64
	baseMin, baseMax float64
	thrashed         bool
	// dieAt is the tick this app withdraws itself (-1 = immortal).
	dieAt int
	// Per-tick emission state consumed by the scorer.
	emitted  int
	lastWork float64
	lastDist float64
	// lastBeats is the daemon-side beat counter at the previous
	// observation (chip mode derives emitted from its delta: the chip
	// emits the beats, the engine only reads them back).
	lastBeats uint64
	tally     *appTally
}

// engine holds one run's state. All of it is deterministic in
// (spec, seed); nothing reads a clock or global randomness.
type engine struct {
	spec *Spec
	h    Host
	rng  *sim.RNG
	// chipMode: applications run on the daemon's chip model and emit
	// their own beats; the engine neither beats nor models execution.
	chipMode bool

	// Per-class compiled tables.
	points    [][]oracle.Point // speedup points for the oracle
	workScale []float64        // current phase work multiplier
	phaseIdx  []int            // next pending PhaseStep
	arrCarry  []float64        // fractional arrivals
	seq       []int            // name sequence numbers

	nextID     uint64
	apps       []*liveApp
	finished   []AppScore
	transcript []byte
	crashes    int
	rejected   int
	peak       int

	// scratch buffers reused across ticks.
	demScratch []float64
	okScratch  []bool
}

// Drive compiles spec into its timed schedule and executes it against
// h, one tick at a time: events, arrivals, departures, beat emission,
// the daemon tick, observation, scoring. Everything stochastic draws
// from sim.RNG streams keyed by (seed, enrollment id), so a fixed spec
// replays byte-identically on any host layout.
//
//angstrom:deterministic
func Drive(spec Spec, h Host) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	nc := len(spec.Classes)
	e := &engine{
		spec:      &spec,
		h:         h,
		rng:       sim.NewRNG(spec.Seed),
		chipMode:  spec.Chips > 0,
		points:    make([][]oracle.Point, nc),
		workScale: make([]float64, nc),
		phaseIdx:  make([]int, nc),
		arrCarry:  make([]float64, nc),
		seq:       make([]int, nc),
	}
	for ci := range spec.Classes {
		ws, err := workload.ByName(spec.Classes[ci].Workload)
		if err != nil {
			return nil, err
		}
		curve := ws.CachedSpeedup(spec.Cores)
		pts := make([]oracle.Point, spec.Cores)
		for u := 1; u <= spec.Cores; u++ {
			pts[u-1] = oracle.Point{Rate: curve(u), Power: float64(u)}
		}
		e.points[ci] = pts
		e.workScale[ci] = 1
	}
	for ci := range spec.Classes {
		for k := 0; k < spec.Classes[ci].Count; k++ {
			if err := e.enroll(ci, 0); err != nil {
				return nil, err
			}
		}
	}
	for t := 0; t < spec.Ticks; t++ {
		e.advancePhases(t)
		if err := e.events(t); err != nil {
			return nil, err
		}
		if err := e.arrivals(t); err != nil {
			return nil, err
		}
		if err := e.departures(t); err != nil {
			return nil, err
		}
		if err := e.emit(); err != nil {
			return nil, err
		}
		e.h.Tick()
		e.observe(t)
		e.score(t)
	}
	st := e.h.Stats()
	sc := Scorecard{
		Scenario: spec.Name, Seed: spec.Seed, Ticks: spec.Ticks,
		Crashes: e.crashes, PeakApps: e.peak,
		Beats: st.Beats, Decisions: st.Decisions,
		Migrations: st.Migrations,
	}
	collectScores(&sc, e.finished, e.tallies())
	sum := sha256.Sum256(e.transcript)
	sc.TranscriptSHA256 = hex.EncodeToString(sum[:])
	return &Result{Scorecard: sc, Transcript: e.transcript}, nil
}

func (e *engine) tallies() []*appTally {
	out := make([]*appTally, len(e.apps))
	for i, a := range e.apps {
		out[i] = a.tally
	}
	return out
}

// windowFor sizes an enrollment's averaging window to roughly two
// ticks of on-target beats, clamped to a sane range.
func windowFor(c *Class, tickSeconds float64) int {
	w := int(2 * c.MinRate * tickSeconds)
	if w < 8 {
		w = 8
	}
	if w > 256 {
		w = 256
	}
	return w
}

// enroll admits one application of class ci at tick t. A pool-exhausted
// refusal (space-shared daemon, full pool) is an admission-control
// outcome, not an engine failure: the arrival is counted rejected and
// the scenario continues.
func (e *engine) enroll(ci, t int) error {
	c := &e.spec.Classes[ci]
	name := fmt.Sprintf("%s-%05d", c.Name, e.seq[ci])
	e.seq[ci]++
	id := e.nextID
	e.nextID++
	mode := server.ModeAdvisory
	if e.chipMode {
		// Chip-backed: the placer picks the die and the partition emits
		// the app's beats as the hardware model executes.
		mode = server.ModeChip
	}
	err := e.h.Enroll(server.EnrollRequest{
		Name:     name,
		Workload: c.Workload,
		Mode:     mode,
		Window:   windowFor(c, e.spec.TickSeconds),
		MinRate:  c.MinRate,
		MaxRate:  c.MaxRate,
		Priority: c.Priority,
	})
	if errors.Is(err, server.ErrPoolExhausted) {
		e.rejected++
		e.logf("reject %s pool-exhausted\n", name)
		return nil
	}
	if err != nil {
		return fmt.Errorf("scenario %s: enroll %s: %w", e.spec.Name, name, err)
	}
	a := &liveApp{
		name: name, class: ci, rng: e.rng.Split(id),
		units: 1, share: 1,
		minRate: c.MinRate, maxRate: c.MaxRate,
		baseMin: c.MinRate, baseMax: c.MaxRate,
		dieAt: -1,
		tally: &appTally{name: name, class: c.Name},
	}
	if c.MeanLifeTicks > 0 {
		a.dieAt = t + 1 + int(a.rng.Exp(c.MeanLifeTicks))
	}
	e.apps = append(e.apps, a)
	if len(e.apps) > e.peak {
		e.peak = len(e.apps)
	}
	return nil
}

// withdraw removes one live app (by index into e.apps) through the
// host and folds its tally into the finished scores.
func (e *engine) withdraw(a *liveApp) error {
	if err := e.h.Withdraw(a.name); err != nil {
		return fmt.Errorf("scenario %s: withdraw %s: %w", e.spec.Name, a.name, err)
	}
	e.finished = append(e.finished, a.tally.finish())
	return nil
}

// advancePhases applies each class's phase program steps due at t.
func (e *engine) advancePhases(t int) {
	for ci := range e.spec.Classes {
		c := &e.spec.Classes[ci]
		for e.phaseIdx[ci] < len(c.Phases) && c.Phases[e.phaseIdx[ci]].AtTick == t {
			e.workScale[ci] = c.Phases[e.phaseIdx[ci]].WorkScale
			e.logf("phase %s scale=%s\n", c.Name, fstr(e.workScale[ci]))
			e.phaseIdx[ci]++
		}
	}
}

// classIndex resolves an event's class name (validated, so it exists).
func (e *engine) classIndex(name string) int {
	for ci := range e.spec.Classes {
		if e.spec.Classes[ci].Name == name {
			return ci
		}
	}
	return -1
}

// events executes the schedule entries due at tick t.
func (e *engine) events(t int) error {
	for i := range e.spec.Events {
		ev := &e.spec.Events[i]
		switch ev.Kind {
		case EventGoalThrash:
			if t >= ev.AtTick && t < ev.UntilTick && (t-ev.AtTick)%ev.EveryTicks == 0 {
				if err := e.thrashFlip(ev.Class, ev.Factor); err != nil {
					return err
				}
			}
			if t == ev.UntilTick {
				if err := e.thrashRestore(ev.Class); err != nil {
					return err
				}
			}
		case EventFlashCrowd:
			if t == ev.AtTick {
				ci := e.classIndex(ev.Class)
				e.logf("event flash_crowd %s count=%d\n", ev.Class, ev.Count)
				for k := 0; k < ev.Count; k++ {
					if err := e.enroll(ci, t); err != nil {
						return err
					}
				}
			}
		case EventMassWithdraw:
			if t == ev.AtTick {
				if err := e.massWithdraw(ev); err != nil {
					return err
				}
			}
		case EventPhaseShift:
			if t == ev.AtTick {
				ci := e.classIndex(ev.Class)
				e.workScale[ci] *= ev.Factor
				e.logf("event phase_shift %s scale=%s\n", ev.Class, fstr(e.workScale[ci]))
			}
		case EventCrashRestart:
			if t == ev.AtTick {
				n, err := e.h.CrashRestart()
				if err != nil {
					return fmt.Errorf("scenario %s: %w", e.spec.Name, err)
				}
				e.crashes++
				e.logf("event crash_restart restored=%d\n", n)
			}
		case EventChipSaturate:
			if t == ev.AtTick {
				if err := e.h.SaturateChip(ev.Chip, ev.Factor); err != nil {
					return fmt.Errorf("scenario %s: %w", e.spec.Name, err)
				}
				e.logf("event chip_saturate chip=%d factor=%s\n", ev.Chip, fstr(ev.Factor))
			}
		}
	}
	return nil
}

// thrashFlip toggles every app of the class between its declared band
// and the band scaled by factor.
func (e *engine) thrashFlip(class string, factor float64) error {
	ci := e.classIndex(class)
	flipped := 0
	for _, a := range e.apps {
		if a.class != ci {
			continue
		}
		if a.thrashed {
			a.minRate, a.maxRate = a.baseMin, a.baseMax
		} else {
			a.minRate = a.baseMin * factor
			a.maxRate = a.baseMax * factor
		}
		a.thrashed = !a.thrashed
		if err := e.h.SetGoal(a.name, a.minRate, a.maxRate); err != nil {
			return fmt.Errorf("scenario %s: thrash %s: %w", e.spec.Name, a.name, err)
		}
		flipped++
	}
	e.logf("event goal_thrash %s factor=%s flipped=%d\n", class, fstr(factor), flipped)
	return nil
}

// thrashRestore puts every still-flipped app of the class back on its
// declared band when the thrash window closes.
func (e *engine) thrashRestore(class string) error {
	ci := e.classIndex(class)
	for _, a := range e.apps {
		if a.class != ci || !a.thrashed {
			continue
		}
		a.minRate, a.maxRate = a.baseMin, a.baseMax
		a.thrashed = false
		if err := e.h.SetGoal(a.name, a.minRate, a.maxRate); err != nil {
			return fmt.Errorf("scenario %s: unthrash %s: %w", e.spec.Name, a.name, err)
		}
	}
	return nil
}

// massWithdraw removes each matching app with probability Fraction.
func (e *engine) massWithdraw(ev *Event) error {
	ci := -1
	if ev.Class != "" {
		ci = e.classIndex(ev.Class)
	}
	kept := e.apps[:0]
	victims := 0
	for _, a := range e.apps {
		match := ci < 0 || a.class == ci
		if match && e.rng.Float64() < ev.Fraction {
			if err := e.withdraw(a); err != nil {
				return err
			}
			victims++
			continue
		}
		kept = append(kept, a)
	}
	e.apps = kept
	e.logf("event mass_withdraw class=%s victims=%d\n", ev.Class, victims)
	return nil
}

// arrivals enrolls each class's (possibly diurnally modulated) mean
// arrivals for this tick, carrying fractions across ticks.
func (e *engine) arrivals(t int) error {
	for ci := range e.spec.Classes {
		c := &e.spec.Classes[ci]
		if c.ArrivalsPerTick <= 0 {
			continue
		}
		mean := c.ArrivalsPerTick
		if c.DiurnalAmp > 0 {
			mean *= 1 + c.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/c.DiurnalPeriodTicks)
		}
		e.arrCarry[ci] += mean
		for e.arrCarry[ci] >= 1 {
			e.arrCarry[ci]--
			if err := e.enroll(ci, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// departures withdraws apps whose drawn lifetime expires at t.
func (e *engine) departures(t int) error {
	kept := e.apps[:0]
	for _, a := range e.apps {
		if a.dieAt >= 0 && t >= a.dieAt {
			if err := e.withdraw(a); err != nil {
				return err
			}
			continue
		}
		kept = append(kept, a)
	}
	e.apps = kept
	return nil
}

// speedup reads the class's scaling at a clamped unit count.
func (e *engine) speedup(ci, units int) float64 {
	pts := e.points[ci]
	if units < 1 {
		units = 1
	}
	if units > len(pts) {
		units = len(pts)
	}
	return pts[units-1].Rate
}

// emit models one tick of execution for every live app: its heart rate
// is the class base rate times the speedup of its current allocation,
// divided by its current work per beat (phase program × noise), and the
// integral beats land on the daemon through the real beat path.
func (e *engine) emit() error {
	if e.chipMode {
		// Chip partitions emit their own beats as the hardware model
		// executes; the daemon refuses API beats for chip-backed apps.
		// observe() recovers per-app emission from the beat counters.
		return nil
	}
	dt := e.spec.TickSeconds
	for _, a := range e.apps {
		c := &e.spec.Classes[a.class]
		work := e.workScale[a.class]
		if c.NoiseStd > 0 {
			work *= math.Max(0.25, 1+a.rng.Norm(0, c.NoiseStd))
		}
		a.lastWork = work
		share := a.share
		if share <= 0 || share > 1 {
			share = 1
		}
		rate := c.BaseRate * e.speedup(a.class, a.units) * share / work
		a.carry += rate * dt
		n := int(a.carry)
		a.carry -= float64(n)
		if n > server.MaxBeatBatch {
			n = server.MaxBeatBatch
		}
		a.emitted = n
		a.lastDist = 0
		if n == 0 {
			continue
		}
		if c.DistortionAmp > 0 {
			a.lastDist = c.DistortionAmp * (2*a.rng.Float64() - 1)
		}
		if err := e.h.Beat(a.name, n, a.lastDist); err != nil {
			return fmt.Errorf("scenario %s: beat %s: %w", e.spec.Name, a.name, err)
		}
	}
	return nil
}

// observe reads the post-tick serving state, mirrors each app's new
// allocation into the model, and appends the tick's transcript block
// (statuses arrive sorted by name, so the bytes are layout-independent
// exactly when the daemon's determinism contract holds).
func (e *engine) observe(t int) {
	statuses := e.h.List()
	byName := make(map[string]int, len(statuses))
	for i := range statuses {
		byName[statuses[i].Name] = i
	}
	for _, a := range e.apps {
		i, ok := byName[a.name]
		if !ok {
			continue
		}
		a.units = statuses[i].Cores.Units
		a.share = statuses[i].Cores.Share
		if a.share <= 0 {
			a.share = 1
		}
		if e.chipMode {
			beats := statuses[i].Observation.Beats
			a.emitted = int(beats - a.lastBeats)
			a.lastBeats = beats
		}
	}
	e.logf("tick %d apps=%d\n", t, len(statuses))
	for i := range statuses {
		st := &statuses[i]
		e.transcript = append(e.transcript, "  "...)
		e.transcript = append(e.transcript, st.Name...)
		e.logf(" u=%d sh=%s d=%s fit=%t beats=%d win=%s dist=%s goal=%s,%s\n",
			st.Cores.Units, fstr(st.Cores.Share), fstr(st.Cores.Demand), st.GoalMet,
			st.Observation.Beats, fstr(st.Observation.WindowRate),
			fstr(st.Observation.Distortion), fstr(st.Goal.MinRate), fstr(st.Goal.MaxRate))
	}
}

// score charges this tick to every live app's tally (post-warmup).
func (e *engine) score(t int) {
	if t < e.spec.WarmupTicks {
		return
	}
	dt := e.spec.TickSeconds
	n := len(e.apps)
	if cap(e.demScratch) < n {
		e.demScratch = make([]float64, n)
		e.okScratch = make([]bool, n)
	}
	dem, oks := e.demScratch[:n], e.okScratch[:n]
	fleetDemand := 0.0
	for i, a := range e.apps {
		if e.chipMode {
			// The oracle's core-count model does not price shared-resource
			// contention, so it cannot say what a chip fleet could have
			// delivered; regret is charged over all live time instead —
			// chip-mode scenarios must declare bands the hardware model
			// meets, and a saturated die shows up as regret until the
			// fleet migrates its way out.
			dem[i], oks[i] = 0, true
			continue
		}
		c := &e.spec.Classes[a.class]
		scaled := a.minRate * a.lastWork / c.BaseRate
		d, ok := oracleDemand(e.points[a.class], scaled)
		dem[i], oks[i] = d, ok
		if ok {
			fleetDemand += d
		} else {
			fleetDemand += float64(e.spec.Cores)
		}
	}
	feasible := e.chipMode || fleetDemand <= float64(e.spec.Cores)+1e-9
	for i, a := range e.apps {
		achieved := float64(a.emitted) / dt
		target := a.minRate
		tl := a.tally
		tl.liveSec += dt
		tl.rateInt += achieved * dt
		tl.targetInt += target * dt
		tl.distortion += math.Abs(a.lastDist) * dt
		hi := math.Inf(1)
		if a.maxRate > 0 {
			hi = a.maxRate * (1 + inBandTolerance)
		}
		if achieved >= target*(1-inBandTolerance) && achieved <= hi {
			tl.inBandSec += dt
		}
		if oks[i] && feasible {
			tl.meetSec += dt
			if achieved < target {
				tl.regretSec += (target - achieved) / target * dt
			}
		}
	}
}

// fstr formats a float with exact round-trip precision: transcript
// bytes must distinguish every distinct float64.
func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// logf appends one formatted line to the transcript.
func (e *engine) logf(format string, args ...any) {
	e.transcript = fmt.Appendf(e.transcript, format, args...)
}
