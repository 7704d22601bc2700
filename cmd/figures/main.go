// Command figures regenerates the paper's evaluation artifacts: Figure 2
// (closed adaptive systems), Figure 3 (SEEC on Linux/x86), Figure 4
// (anticipated SEEC on Angstrom), and the §5.3 in-text numbers.
//
// Usage:
//
//	figures            # all figures (fig3's measured multiplier feeds fig4;
//	                   # -fig 4 alone uses the paper's 1.15)
//	figures -fig 2     # one figure
//	figures -duration 240 -seed 7
//	figures -workers 1 # serial reference (same results, slower)
//
// Sweeps run on the parallel engine (one worker per GOMAXPROCS by
// default); per-configuration seeding makes the output identical for
// any -workers value.
package main

import (
	"flag"
	"fmt"
	"log"

	"angstrom/internal/experiment"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	fig := flag.Int("fig", 0, "figure to regenerate (2, 3 or 4; 0 = all)")
	duration := flag.Float64("duration", 120, "measured seconds per Figure-3 run")
	seed := flag.Uint64("seed", 2012, "workload noise seed")
	accesses := flag.Int("accesses", 60000, "trace length per Figure-2 configuration")
	workers := flag.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS, 1 = serial)")
	flag.Parse()

	if *fig == 0 || *fig == 2 {
		f2, err := experiment.RunFig2(experiment.Fig2Options{Accesses: *accesses, Seed: *seed, Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(f2)
	}
	// Figure 4 scales the static oracle by Figure 3's measured
	// SEEC/static ratio; run alone it takes the paper's 1.15.
	var mult float64
	if *fig == 0 || *fig == 3 {
		f3, err := experiment.RunFig3(experiment.Fig3Options{DurationS: *duration, Seed: *seed, Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(f3)
		mult = f3.SEECOverStatic
		fmt.Printf("(Figure 4 will use the measured SEEC/static multiplier %.3f)\n\n", mult)
	}
	if *fig == 0 || *fig == 4 {
		f4, err := experiment.RunFig4(experiment.Fig4Options{Multiplier: mult, Workers: *workers})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(f4)
	}
}
