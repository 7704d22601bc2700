// Command scenario runs the deterministic torture scenarios from
// internal/scenario against a real daemon and prints the oracle-regret
// scorecard.
//
// Usage:
//
//	go run ./cmd/scenario                    # run every builtin
//	go run ./cmd/scenario -name flash-crowd  # one builtin
//	go run ./cmd/scenario -spec my.json      # a spec file
//	go run ./cmd/scenario -seed 42 -v        # reseed, per-app detail
//
// The exit status is the gate: nonzero when any run violates its
// spec's regret budgets. -workers selects the daemon layout; the
// scorecard's transcript hash is layout-independent by contract, so two
// invocations with different worker counts must print the same hash.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"angstrom/internal/scenario"
)

func main() {
	var (
		name    = flag.String("name", "", "run a single builtin scenario (default: all)")
		specs   = flag.String("spec", "", "run a JSON spec file instead of builtins")
		seed    = flag.Uint64("seed", 0, "override the spec seed (0 = keep)")
		workers = flag.Int("workers", 0, "daemon tick workers (0 = default)")
		verbose = flag.Bool("v", false, "print per-application scores")
		list    = flag.Bool("list", false, "list builtin scenarios and exit")
	)
	flag.Parse()

	if *list {
		for _, s := range scenario.Builtins() {
			fmt.Printf("%-14s %4d ticks  %3d cores  %d classes  %d events\n",
				s.Name, s.Ticks, s.Cores, len(s.Classes), len(s.Events))
		}
		return
	}

	var runs []scenario.Spec
	switch {
	case *specs != "":
		data, err := os.ReadFile(*specs)
		if err != nil {
			fatal(err)
		}
		s, err := scenario.DecodeSpec(data)
		if err != nil {
			fatal(err)
		}
		runs = []scenario.Spec{s}
	case *name != "":
		s, err := scenario.ByName(*name)
		if err != nil {
			fatal(err)
		}
		runs = []scenario.Spec{s}
	default:
		runs = scenario.Builtins()
	}

	opts := scenario.Options{TickWorkers: *workers}
	failed := 0
	for _, s := range runs {
		if *seed != 0 {
			s.Seed = *seed
		}
		res, err := scenario.Run(s, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario %s: %v\n", s.Name, err)
			failed++
			continue
		}
		printCard(&res.Scorecard, *verbose)
		if err := res.Scorecard.CheckBudgets(s.Budgets); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL %v\n", err)
			failed++
		} else {
			fmt.Printf("PASS %s\n", s.Name)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func printCard(sc *scenario.Scorecard, verbose bool) {
	fmt.Printf("=== %s (seed %d, %d ticks)\n", sc.Scenario, sc.Seed, sc.Ticks)
	fmt.Printf("    apps=%d peak=%d crashes=%d beats=%d decisions=%d\n",
		len(sc.Apps), sc.PeakApps, sc.Crashes, sc.Beats, sc.Decisions)
	fmt.Printf("    fleet regret=%.4f in-band=%.4f worst=%s (%.4f)\n",
		sc.FleetRegretFrac, sc.FleetInBandFrac, sc.WorstApp, sc.WorstRegretFrac)
	fmt.Printf("    transcript=%s\n", sc.TranscriptSHA256[:16])
	if !verbose {
		return
	}
	byClass := map[string][]int{}
	for i := range sc.Apps {
		byClass[sc.Apps[i].Class] = append(byClass[sc.Apps[i].Class], i)
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		var regret, meet, inBand, live float64
		for _, i := range byClass[c] {
			a := &sc.Apps[i]
			regret += a.RegretSeconds
			meet += a.OracleMeetSeconds
			inBand += a.InBandFrac * a.LiveSeconds
			live += a.LiveSeconds
		}
		rf := 0.0
		if meet > 0 {
			rf = regret / meet
		}
		ib := 0.0
		if live > 0 {
			ib = inBand / live
		}
		fmt.Printf("    class %-10s n=%3d regret=%.4f in-band=%.4f\n", c, len(byClass[c]), rf, ib)
	}
	for i := range sc.Apps {
		a := &sc.Apps[i]
		fmt.Printf("      %-16s live=%6.1fs in-band=%.3f regret=%.4f rate=%6.2f/%6.2f\n",
			a.Name, a.LiveSeconds, a.InBandFrac, a.RegretFrac, a.MeanRate, a.MeanTarget)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
