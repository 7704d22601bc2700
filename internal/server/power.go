package server

import "math"

// rebalancePowerCaps apportions the chip power budget beyond uncore
// across the chip-backed fleet in proportion to each application's
// goal-implied power requirement — the RLS-corrected multiplier its
// goal needs, priced at its nominal active power. An even split would
// starve power-hungry workloads while light ones sit on slack; and a
// requirement frozen at enrollment would go stale as the correction
// layer learns, so the split is re-derived every tick. SetPowerCap (a
// translator rebuild) only runs when an app's cap actually moves.
//
// Every cap is floored at the app's cheapest configuration (a cap below
// it would leave the decision engine with an empty feasible set). A
// floored app consumes more than its proportional slice, so the pass
// iterates: floored apps are charged at their floor, and the remaining
// budget is re-split across the rest until no new app floors. Only when
// even the floors alone exceed the budget do the summed caps overrun
// it; that overdraft is surfaced in /v1/stats as PowerOvercommitW
// rather than silently exceeding the budget. Called from the tick
// goroutine, which owns every Runtime; the opTick record journals the
// epoch, so the caps it applies replay deterministically.
//
//angstrom:journaled writer
func (d *Daemon) rebalancePowerCaps(chipApps []*app) {
	if d.cfg.Chip == nil || len(chipApps) == 0 || d.cfg.Chip.PowerBudgetW <= 0 {
		// No caps to sum: clear any overcommit left by a previous fleet
		// so stats never report an overdraft that no longer exists.
		d.powerOvercommit.Store(0)
		return
	}
	perDie := d.cfg.Chip.PowerBudgetW - d.cfg.Chip.Params.UncoreW
	needX := make([]float64, len(chipApps))
	for i, a := range chipApps {
		needX[i] = 1
		goals := a.mon.Goals()
		if g := goals.Performance; g != nil {
			base := a.rt.BaseEstimate() // observed rate at speedup 1
			if base <= 0 {
				base = a.partition().Metrics().HeartRate
			}
			if base > 0 {
				needX[i] = a.rt.RequiredPowerX(g.Target() / base)
			}
		}
	}
	// Federated budget: the fleet shares N× the per-die envelope, and
	// the broker water-fills it across dies by aggregate goal-implied
	// need (floored at each die's minimum operating points) before the
	// per-die pass splits each grant across its tenants. A lightly
	// loaded die's slack flows to a hot one instead of idling; a single
	// die is granted its whole envelope, bit for bit.
	nChips := len(d.mgrs)
	apps := make([][]*app, nChips)
	nx := make([][]float64, nChips)
	for i, a := range chipApps {
		apps[a.chip] = append(apps[a.chip], a)
		nx[a.chip] = append(nx[a.chip], needX[i])
	}
	need := make([]float64, nChips)
	floorW := make([]float64, nChips)
	for c := range apps {
		for i, a := range apps[c] {
			need[c] += nx[c][i] * a.nomActiveW
			floorW[c] += a.minPowerX * a.nomActiveW
		}
	}
	grants := d.broker.SplitWatts(perDie*float64(nChips), need, floorW)
	var over float64
	for c := range apps {
		if len(apps[c]) == 0 {
			continue
		}
		if o := d.rebalanceChipPower(apps[c], nx[c], grants[c]); o > 0 {
			over += o
		}
	}
	if over < 1e-6 {
		over = 0 // float residue of an exactly-filled budget
	}
	d.powerOvercommit.Store(math.Float64bits(over))
}

// rebalanceChipPower splits one die's power grant across its tenants
// (see rebalancePowerCaps) and returns the overdraft: the watts by
// which the floored caps exceed the grant (negative when slack is
// left). Water-fill with floors: each round splits the budget left
// after charging floored apps across the unfloored, flooring any app
// whose slice falls below its cheapest configuration. Each round floors
// at least one more app, so len(apps) rounds suffice.
//
//angstrom:journaled writer
func (d *Daemon) rebalanceChipPower(apps []*app, needX []float64, avail float64) float64 {
	floored := make([]bool, len(apps))
	scale := 0.0
	for round := 0; round <= len(apps); round++ {
		rem, sum := avail, 0.0
		for i, a := range apps {
			if floored[i] {
				rem -= a.minPowerX * a.nomActiveW
			} else {
				sum += needX[i] * a.nomActiveW
			}
		}
		if sum <= 0 {
			break // everyone floored
		}
		scale = math.Max(rem/sum, 0)
		changed := false
		for i, a := range apps {
			if !floored[i] && needX[i]*scale < a.minPowerX {
				floored[i] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	capped := 0.0
	for i, a := range apps {
		capX := needX[i] * scale
		if floored[i] || capX < a.minPowerX {
			capX = a.minPowerX
		}
		capped += capX * a.nomActiveW
		if a.lastCapX > 0 && math.Abs(capX-a.lastCapX) < 0.01*a.lastCapX {
			continue
		}
		if err := a.rt.SetPowerCap(capX); err == nil {
			a.lastCapX = capX
		}
	}
	return capped - avail
}
