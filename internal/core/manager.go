package core

import (
	"fmt"
	"math"
	"sort"

	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
)

// Manager coordinates SEEC across multiple applications competing for a
// shared, partitionable global resource (cores, in both of the paper's
// platforms). This is the scenario §2 contrasts with Bitirgen et al.'s
// closed resource manager: here every application brings its *own* goal
// through the heartbeat interface, and the decision engine allocates the
// shared resource to meet all goals at minimum total cost rather than
// optimizing one fixed system-wide objective.
//
// The mechanism reuses the single-application layers: each application
// gets a Kalman base-speed estimate and an error integrator; each
// period the manager computes every application's resource demand (the
// share that meets its goal under its measured scaling) and resolves
// over-subscription by proportional scaling — the water-filling solution
// for concave per-application utility.
//
// Step is incremental so the pass stays cheap at fleet scale (10k+
// applications): per-application demands are cached and re-priced only
// when their inputs (base-speed estimate, goal target, interference
// factor) move, the demand inversion binary-searches the scaling curve's
// verified monotone prefix instead of walking every unit, and the
// water-fill ordering is patched in place when few demands changed —
// falling back to a full deterministic sort past a threshold or after
// any membership change. Every shortcut is byte-identical to the full
// recompute (SetIncremental(false) forces the reference path; the
// property tests drive both in lockstep).
type Manager struct {
	clock sim.Nower
	total int // shared resource units (e.g. cores)
	// budget caps the units the water-fill may hand out this period
	// (0 = the full total). A federation broker moves it tick to tick;
	// total stays fixed as the scaling-curve domain and admission bound,
	// so cached demands survive budget changes.
	budget int
	// oversub permits more applications than units; the surplus is
	// resolved by time-sharing (fractional Allocation.Share).
	oversub bool
	// lastPool / lastOversub detect walk-input changes that do not move
	// any per-app sort key (a broker budget change, a mode flip).
	lastPool     int
	lastOversub  bool
	haveLastPool bool
	// incremental enables demand caching, binary-search inversion, and
	// in-place order patching; false forces the reference full recompute.
	incremental bool

	apps   []*managedApp
	byName map[string]*managedApp
	// byID indexes the managed applications by their stable handle (nil
	// at a free ID): what a per-tick caller holding AppID's result pays
	// instead of a name hash.
	byID []*managedApp
	// freeIDs recycles the stable integer handles of removed apps so
	// ID-indexed caller tables stay bounded by the peak fleet size.
	freeIDs []int
	nextID  int
	// out is the Allocation buffer Step returns, reused across calls.
	out []Allocation

	// Running water-fill structure: apps indices sorted by
	// (sortKey, index). orderValid goes false whenever membership changes
	// (indices shift and the space-shared/oversubscribed mode may flip).
	order      []int
	orderValid bool
	changed    []int  // scratch: indices whose sort key moved this Step
	scratch    []int  // scratch: surviving order entries during a patch
	inChanged  []bool // scratch: membership bitmap for the patch filter
}

// managedApp is the per-application control state.
type managedApp struct {
	name string
	id   int // stable handle, recycled after removal
	mon  *heartbeat.Monitor
	// scaling maps resource units to relative speed (1 unit = 1.0);
	// measured or declared by the platform (e.g. Amdahl curve).
	scaling func(units int) float64

	kfBase    float64 // smoothed base rate: rate at 1 unit
	haveBase  bool
	allocated int
	share     float64 // time share of the allocated units (1 = dedicated)
	// interf is the platform-reported contention factor in (0, 1]: the
	// fraction of the scaling curve's throughput the application
	// actually achieves under current co-location (1 = uncontended).
	interf float64
	// weight is the water-fill priority weight (default 1): under
	// scarcity an application's progressive fair share is proportional
	// to its weight, so a weight-4 SLO class outbids a weight-1
	// best-effort class 4:1 for the contended remainder while demands
	// that fit are still served exactly.
	weight float64

	prevBeats uint64
	prevTime  sim.Time

	// Cached demand, valid while (kfBase, target, interf) are unchanged.
	demand      float64
	demandValid bool
	lastBase    float64
	lastTarget  float64
	lastInterf  float64
	// sortKey is the water-fill ordering key: the raw demand when the
	// pool is space-shared, the clamped time-share want when
	// oversubscribed (the walk consumes exactly this key, so an
	// unchanged key means an unchanged partition for this app).
	sortKey float64

	// Scaling-curve shape, verified once at AddApp: peak is the last
	// unit of the longest non-decreasing prefix; unimodal records that
	// no later unit exceeds the prefix maximum, which makes a binary
	// search over [2, peak] exactly equivalent to the linear scan.
	peak     int
	unimodal bool
}

// NewManager builds a coordinator over `total` resource units.
func NewManager(clock sim.Nower, total int) (*Manager, error) {
	if clock == nil {
		return nil, fmt.Errorf("core: nil clock")
	}
	if total < 1 {
		return nil, fmt.Errorf("core: no resource units to manage")
	}
	return &Manager{clock: clock, total: total, incremental: true, byName: make(map[string]*managedApp)}, nil
}

// SetOversubscription switches the manager between refusing enrollment
// beyond one application per unit (the default, matching the paper's
// space-shared platforms) and time-sharing: with oversubscription on, a
// fleet larger than the unit pool is admitted and the surplus resolved
// by fractional time shares (Allocation.Share < 1) instead of refusal.
func (m *Manager) SetOversubscription(on bool) { m.oversub = on }

// Oversubscribed reports whether time-sharing admission is enabled.
func (m *Manager) Oversubscribed() bool { return m.oversub }

// SetBudget caps the units the next Step's water-fill may distribute.
// A federation broker calls it each tick to move the global pool
// between per-chip managers; the scaling-curve domain (total) and the
// admission bound are unaffected, so cached demands stay valid. 0
// restores the full pool. The budget is journaled tick state: inside
// the daemon only the tick writer calls it.
//
//angstrom:journaled mutator
func (m *Manager) SetBudget(units int) error {
	if units < 0 || units > m.total {
		return fmt.Errorf("core: budget %d outside [0, %d]", units, m.total)
	}
	m.budget = units
	return nil
}

// Budget reports the current water-fill pool: the broker-set budget, or
// the full total when none is set.
func (m *Manager) Budget() int {
	if m.budget > 0 {
		return m.budget
	}
	return m.total
}

// AggregateDemand sums the fleet's cached unit demands as of the last
// Step — the RLS/EWMA-corrected need a federation broker splits the
// global budget by. Before the first Step it is zero (the broker's
// floors then drive an even split).
func (m *Manager) AggregateDemand() float64 {
	var d float64
	for _, a := range m.apps {
		d += a.demand
	}
	return d
}

// SetIncremental toggles the incremental Step machinery (on by
// default). With it off every Step re-prices every demand with the
// linear scaling-curve scan, fully re-sorts, and re-walks the
// water-fill — the reference algorithm the incremental path must match
// byte for byte. Tests drive both modes in lockstep to enforce that.
//
//lint:allow unusedexport the reference algorithm the incremental water-fill is tested against
func (m *Manager) SetIncremental(on bool) { m.incremental = on }

// VerifyCurve inspects a scaling curve once: the longest non-decreasing
// prefix [1, peak], and whether the tail beyond it ever exceeds the
// prefix maximum. For unimodal curves (Amdahl plus a synchronization
// penalty: rising to a peak, then declining) the answer is no, and the
// demand inversion can binary-search the prefix; any other shape keeps
// the exact linear scan. AddApp runs it per enrollment; callers
// enrolling fleets over a handful of shared curves memoize the result
// and enroll through AddAppWithShape instead.
func VerifyCurve(scaling func(int) float64, total int) (peak int, unimodal bool) {
	peak = 1
	prev := scaling(1)
	u := 2
	for ; u <= total; u++ {
		s := scaling(u)
		if !(s >= prev) { // NaN or a decrease ends the prefix
			break
		}
		prev = s
		peak = u
	}
	for ; u <= total; u++ {
		if !(scaling(u) <= prev) {
			return peak, false
		}
	}
	return peak, true
}

// AddApp enrolls an application: its monitor (with a declared
// performance goal) and its resource-scaling curve. Every application
// starts with one unit. Without oversubscription, enrollment beyond one
// application per resource unit is refused. Fleet membership is
// journaled daemon state: inside internal/server only persist.go
// writers may call it.
//
//angstrom:journaled mutator
func (m *Manager) AddApp(name string, mon *heartbeat.Monitor, scaling func(int) float64) error {
	if scaling == nil {
		return fmt.Errorf("core: nil scaling for %q", name)
	}
	peak, unimodal := VerifyCurve(scaling, m.total)
	return m.AddAppWithShape(name, mon, scaling, peak, unimodal)
}

// AddAppWithShape is AddApp for callers that already know the curve's
// verified shape (peak of the non-decreasing prefix, unimodality) —
// typically because many applications share one memoized curve and the
// O(total) VerifyCurve scan only needs to run once per curve, not once
// per enrollment. The shape must come from VerifyCurve over the same
// curve and total; a wrong shape silently degrades demand inversion.
//
//angstrom:journaled mutator
func (m *Manager) AddAppWithShape(name string, mon *heartbeat.Monitor, scaling func(int) float64, peak int, unimodal bool) error {
	if mon == nil || scaling == nil {
		return fmt.Errorf("core: nil monitor or scaling for %q", name)
	}
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("core: %q already managed", name)
	}
	if !m.oversub && len(m.apps)+1 > m.total {
		return fmt.Errorf("core: %d applications exceed %d resource units", len(m.apps)+1, m.total)
	}
	a := &managedApp{
		name: name, mon: mon, scaling: scaling,
		allocated: 1,
		share:     1,
		interf:    1,
		weight:    1,
		prevTime:  m.clock.Now(),
		peak:      peak,
		unimodal:  unimodal,
	}
	if k := len(m.freeIDs); k > 0 {
		a.id = m.freeIDs[k-1]
		m.freeIDs = m.freeIDs[:k-1]
	} else {
		a.id = m.nextID
		m.nextID++
		m.byID = append(m.byID, nil)
	}
	m.byID[a.id] = a
	m.apps = append(m.apps, a)
	m.byName[name] = a
	m.orderValid = false
	return nil
}

// AppID reports an application's stable integer handle: assigned at
// AddApp, recycled after RemoveApp, and always below the peak
// concurrent fleet size. Callers index per-app state by it to keep
// their per-tick paths free of string hashing.
func (m *Manager) AppID(name string) (int, bool) {
	if a, ok := m.byName[name]; ok {
		return a.id, true
	}
	return 0, false
}

// SetInterference reports the platform's measured contention factor for
// one application, named by its AppID handle (the platform reports it
// for every application every period): the multiplier (0, 1] by which
// shared-resource contention (memory bandwidth, NoC) degrades its
// throughput below the declared scaling curve. The manager divides it
// out of the observed rate when estimating the base speed, and inflates
// the application's unit demand so the water-filling pass provisions
// for *contended* throughput rather than the per-app projection. IDs no
// application holds and out-of-range factors are ignored. Interference
// feeds the journaled tick's water-fill, so inside the daemon only tick
// writers call it.
//
//angstrom:journaled mutator
func (m *Manager) SetInterference(id int, factor float64) {
	if factor <= 0 || factor > 1 || id < 0 || id >= len(m.byID) {
		return
	}
	if a := m.byID[id]; a != nil {
		a.interf = factor
	}
}

// SetPriority sets an application's water-fill weight: under scarcity
// the progressive fair share each application may claim is proportional
// to its weight (all weights default to 1, which reproduces the
// unweighted walk bit for bit). Demands that fit inside the weighted
// fair share are still served exactly — priority buys a larger slice of
// a contended pool, not idle cores. Weights are journaled fleet state:
// inside internal/server only persist.go writers may call it.
//
//angstrom:journaled mutator
func (m *Manager) SetPriority(name string, weight float64) error {
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight <= 0 {
		return fmt.Errorf("core: priority weight %g for %q outside (0, +Inf)", weight, name)
	}
	a, ok := m.byName[name]
	if !ok {
		return fmt.Errorf("core: %q not managed", name)
	}
	if a.weight == weight {
		return nil
	}
	a.weight = weight
	// A weight reshapes every application's progressive fair share, not
	// just this one's: force the next Step through the full sort + walk.
	m.orderValid = false
	return nil
}

// Priority reports an application's water-fill weight.
//
//lint:allow unusedexport the recovery identity tests compare live and replayed water-fill weights through it
func (m *Manager) Priority(name string) (float64, bool) {
	if a, ok := m.byName[name]; ok {
		return a.weight, true
	}
	return 0, false
}

// RemoveApp withdraws an application (e.g. at exit), freeing its share
// for the next Step. It reports whether the application was managed.
//
//angstrom:journaled mutator
func (m *Manager) RemoveApp(name string) bool {
	if _, ok := m.byName[name]; !ok {
		return false
	}
	delete(m.byName, name)
	for i, a := range m.apps {
		if a.name == name {
			m.byID[a.id] = nil
			m.freeIDs = append(m.freeIDs, a.id)
			m.apps = append(m.apps[:i], m.apps[i+1:]...)
			break
		}
	}
	m.orderValid = false
	return true
}

// Apps reports how many applications are currently managed.
func (m *Manager) Apps() int { return len(m.apps) }

// Allocation is one application's share after a decision.
type Allocation struct {
	App string
	// ID is the app's stable integer handle (see AppID): hot paths
	// index by it instead of hashing App.
	ID     int
	Units  int
	Demand float64 // un-rounded units the goal asks for
	// Share is the time share of the allocated units in (0, 1]: 1 means
	// the units are dedicated; below 1 the application time-shares them
	// with others (oversubscribed fleets). Effective core-equivalents
	// are Units × Share.
	Share   float64
	GoalMet bool // demand fit within the partition
}

// Step observes every application, computes demands, and returns the new
// partition (allocations always sum to at most the total; every app
// keeps at least one unit). Only applications whose demand inputs moved
// since the previous Step are re-priced; when no water-fill key changed
// the previous partition stands and the walk is skipped entirely. The
// returned slice is valid until the next Step (the buffer is reused).
// Step advances journaled fleet state (allocations, demand caches), so
// inside the daemon only the tick writer calls it.
//
//angstrom:journaled mutator
func (m *Manager) Step() ([]Allocation, error) {
	if len(m.apps) == 0 {
		return nil, fmt.Errorf("core: no applications enrolled")
	}
	now := m.clock.Now()
	n := len(m.apps)
	pool := m.Budget()
	oversub := n > pool
	// A budget move or an oversubscription flip changes the walk's
	// inputs (and the sort key's meaning) without touching any per-app
	// key: force the walk, and on a mode flip the full sort too.
	poolMoved := !m.haveLastPool || pool != m.lastPool
	if m.haveLastPool && oversub != m.lastOversub {
		m.orderValid = false
	}
	m.lastPool, m.lastOversub, m.haveLastPool = pool, oversub, true
	m.changed = m.changed[:0]
	anyKeyChanged := false
	for i, a := range m.apps {
		minRate, maxRate, ok := a.mon.PerformanceBand()
		if !ok {
			return nil, fmt.Errorf("core: %q has no performance goal", a.name)
		}
		count := a.mon.Count()
		// Interval-average rate since the last decision.
		var rate float64
		if now > a.prevTime {
			rate = float64(count-a.prevBeats) / (now - a.prevTime)
		} else {
			rate = a.mon.Observe().WindowRate
		}
		a.prevBeats = count
		a.prevTime = now

		if rate > 0 {
			base := rate / (a.scaling(a.allocated) * a.share * a.interf)
			if !a.haveBase {
				a.kfBase = base
				a.haveBase = true
			} else {
				// EWMA: cheap, stable smoothing of the base estimate.
				a.kfBase += 0.3 * (base - a.kfBase)
			}
		}
		target := heartbeat.PerformanceGoal{MinRate: minRate, MaxRate: maxRate}.Target()
		if !m.incremental || !a.demandValid ||
			a.kfBase != a.lastBase || target != a.lastTarget || a.interf != a.lastInterf {
			a.demand = m.demandUnits(a, target)
			a.lastBase, a.lastTarget, a.lastInterf = a.kfBase, target, a.interf
			a.demandValid = true
		}
		key := a.demand
		if oversub {
			// partitionShared consumes the clamped time-share want; using
			// it as the ordering key means an unchanged key is exactly an
			// unchanged walk input for this app.
			key = clampShareWant(a.demand)
		}
		if key != a.sortKey || !m.orderValid {
			a.sortKey = key
			if m.orderValid {
				m.changed = append(m.changed, i)
			}
			anyKeyChanged = true
		}
	}

	runWalk := true
	switch {
	case !m.incremental || !m.orderValid:
		m.fullSort()
	case !anyKeyChanged:
		// Same membership, same keys, same pool: the previous partition
		// is byte-identical to what a full recompute would produce.
		runWalk = poolMoved
	case len(m.changed)*8 > n:
		m.fullSort()
	default:
		m.patchOrder()
	}
	if runWalk {
		if oversub {
			m.partitionShared(pool)
		} else {
			m.partition(pool)
		}
	}

	// The returned slice is reused by the next Step: callers that keep
	// allocations across decisions copy what they need.
	if cap(m.out) < n {
		m.out = make([]Allocation, n)
	}
	out := m.out[:n]
	for i, a := range m.apps {
		out[i] = Allocation{
			App:     a.name,
			ID:      a.id,
			Units:   a.allocated,
			Demand:  a.demand,
			Share:   a.share,
			GoalMet: float64(a.allocated)*a.share >= a.demand,
		}
	}
	return out, nil
}

// demandUnits inverts the application's scaling curve: the smallest unit
// count whose predicted rate meets the target (fractional via linear
// interpolation between unit counts). The contention factor divides the
// target speed: under interference every granted unit delivers only
// interf of its curve throughput, so meeting the same goal takes more
// units. Curves verified unimodal at AddApp are binary-searched over
// their monotone prefix — identical output to the linear scan, O(log
// total) instead of O(total); any other shape takes the scan.
func (m *Manager) demandUnits(a *managedApp, target float64) float64 {
	if !a.haveBase || a.kfBase <= 0 {
		return 1
	}
	needSpeed := target / (a.kfBase * a.interf)
	prev := a.scaling(1)
	if needSpeed <= prev {
		return needSpeed / prev
	}
	if m.incremental && a.unimodal {
		if a.peak < 2 || a.scaling(a.peak) < needSpeed {
			// Nothing in the prefix reaches needSpeed, and the tail never
			// exceeds the prefix maximum: the scan would come up empty.
			return float64(m.total)
		}
		lo, hi := 2, a.peak
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if a.scaling(mid) >= needSpeed {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		s, p := a.scaling(lo), a.scaling(lo-1)
		if s == p {
			return float64(lo)
		}
		return float64(lo-1) + (needSpeed-p)/(s-p)
	}
	for u := 2; u <= m.total; u++ {
		s := a.scaling(u)
		if s >= needSpeed {
			// Interpolate between u-1 and u.
			if s == prev {
				return float64(u)
			}
			return float64(u-1) + (needSpeed-prev)/(s-prev)
		}
		prev = s
	}
	return float64(m.total)
}

// keyLess is the water-fill ordering: ascending sort key, ties broken
// by enrollment index — a strict total order, so every maintenance
// strategy (full sort, patch-and-merge) yields the same sequence.
func (m *Manager) keyLess(a, b int) bool {
	if m.apps[a].sortKey != m.apps[b].sortKey {
		return m.apps[a].sortKey < m.apps[b].sortKey
	}
	return a < b
}

// fullSort rebuilds the water-fill order from scratch.
func (m *Manager) fullSort() {
	n := len(m.apps)
	if cap(m.order) < n {
		m.order = make([]int, n)
	}
	m.order = m.order[:n]
	for i := range m.order {
		m.order[i] = i
	}
	sort.Slice(m.order, func(i, j int) bool { return m.keyLess(m.order[i], m.order[j]) })
	m.orderValid = true
}

// patchOrder re-sorts in place after a small changed set: the surviving
// entries keep their relative order (their keys did not move), the
// changed entries are sorted among themselves and merged back in.
// Because keyLess is a strict total order the result is the unique
// sorted sequence — byte-identical to a full sort.
func (m *Manager) patchOrder() {
	n := len(m.apps)
	if cap(m.inChanged) < n {
		m.inChanged = make([]bool, n)
	}
	mark := m.inChanged[:n]
	for _, idx := range m.changed {
		mark[idx] = true
	}
	kept := m.scratch[:0]
	for _, idx := range m.order {
		if !mark[idx] {
			kept = append(kept, idx)
		}
	}
	m.scratch = kept
	for _, idx := range m.changed {
		mark[idx] = false
	}
	sort.Slice(m.changed, func(i, j int) bool { return m.keyLess(m.changed[i], m.changed[j]) })
	m.order = m.order[:0]
	i, j := 0, 0
	for i < len(kept) && j < len(m.changed) {
		if m.keyLess(kept[i], m.changed[j]) {
			m.order = append(m.order, kept[i])
			i++
		} else {
			m.order = append(m.order, m.changed[j])
			j++
		}
	}
	m.order = append(m.order, kept[i:]...)
	m.order = append(m.order, m.changed[j:]...)
}

// partition assigns integral units by water-filling: applications are
// served in ascending order of demand; each receives its full (rounded
// up) demand when that fits its progressive fair share, otherwise the
// fair share. The fair share is weight-proportional (weightedFair): with
// the default weight 1 everywhere it is exactly remaining/left. Units
// nobody demands stay unallocated — powering cores an application
// cannot use is exactly the waste SEEC exists to avoid. Every
// application keeps at least one unit.
func (m *Manager) partition(pool int) {
	remaining := pool
	left := len(m.order)
	weightLeft := m.weightLeft()
	for _, idx := range m.order {
		a := m.apps[idx]
		fair := weightedFair(float64(remaining), a.weight, weightLeft, left)
		want := int(math.Ceil(a.demand - 1e-9))
		units := want
		if float64(want) > fair {
			units = int(math.Round(fair))
		}
		if units < 1 {
			units = 1
		}
		if max := remaining - (left - 1); units > max {
			units = max
		}
		a.allocated = units
		a.share = 1
		remaining -= units
		left--
		weightLeft -= a.weight
	}
}

// weightLeft sums the water-fill weights over the current order — the
// denominator of the first weighted fair share. Summing small integral
// weights is exact, so the all-ones fleet reproduces float64(left).
func (m *Manager) weightLeft() float64 {
	total := 0.0
	for _, idx := range m.order {
		total += m.apps[idx].weight
	}
	return total
}

// weightedFair is one application's progressive fair share of the
// remaining pool: remaining × weight / weightLeft, falling back to the
// unweighted remaining/left if accumulated subtraction ever drove the
// weight denominator to zero ahead of the count.
func weightedFair(remaining, weight, weightLeft float64, left int) float64 {
	if weightLeft > 0 {
		return remaining * weight / weightLeft
	}
	return remaining / float64(left)
}

// minTimeShare floors an oversubscribed application's time share so a
// starved app still makes observable progress (and its rate measurement
// stays meaningful for the next demand estimate).
const minTimeShare = 0.01

// clampShareWant turns a unit demand into the time-share want of the
// oversubscribed walk: demand above one core-equivalent is
// unsatisfiable at Units=1 and is clamped, and every app floors at
// minTimeShare.
func clampShareWant(demand float64) float64 {
	if demand < minTimeShare {
		return minTimeShare
	}
	if demand > 1 {
		return 1
	}
	return demand
}

// partitionShared is the oversubscribed counterpart of partition: with
// more applications than units, nobody can hold a dedicated core, so
// every application is pinned to one time-shared unit and the pool is
// water-filled over *fractional* shares. The sort key already carries
// the clamped want; the same progressive fair-share walk as the
// integral case then yields sum(shares) <= pool.
func (m *Manager) partitionShared(pool int) {
	remaining := float64(pool)
	left := len(m.order)
	weightLeft := m.weightLeft()
	for _, idx := range m.order {
		a := m.apps[idx]
		fair := weightedFair(remaining, a.weight, weightLeft, left)
		s := a.sortKey
		if s > fair {
			s = fair
		}
		a.allocated = 1
		a.share = s
		remaining -= s
		left--
		weightLeft -= a.weight
	}
}
