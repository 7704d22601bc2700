// Chipserve demonstrates chip-backed serving: an accelerated angstromd
// daemon binds a fleet of applications to partitions of ONE shared
// Angstrom chip model and drives every app toward its heart-rate goal
// band by actuating real hardware knobs — core allocation, per-core L2
// capacity, and DVFS — under a shared power budget. No client beats:
// each partition emits its application's heartbeats as its modeled
// execution progresses, closing the paper's observe–decide–act loop
// entirely over hardware state.
//
// With -apps larger than -tiles the fleet oversubscribes the chip and
// the manager time-shares tiles (fractional allocations) instead of
// refusing enrollment.
//
// With -colocate the example instead demonstrates cross-partition
// contention: a bandwidth-heavy workload is run alone and then
// co-located with a twin on a scarce-memory chip — at identical
// configurations each tenant senses lower IPS than it did alone, and
// through the serving loop the manager provisions extra cores so both
// still converge into their goal bands.
//
// Run: go run ./examples/chipserve -apps 120 -tiles 256 -ticks 150
//
//	go run ./examples/chipserve -colocate
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"angstrom/internal/angstrom"
	"angstrom/internal/heartbeat"
	"angstrom/internal/server"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

var workloads = []string{"barnes", "ocean", "raytrace", "water", "volrend"}

func main() {
	log.SetFlags(0)
	apps := flag.Int("apps", 120, "applications to enroll on the shared chip")
	tiles := flag.Int("tiles", 256, "physical tiles of the shared chip")
	ticks := flag.Int("ticks", 150, "decision periods to run")
	accel := flag.Float64("accel", 0.5, "simulated seconds per decision period")
	budget := flag.Float64("power", 0, "chip power budget in watts (0 = unlimited)")
	frac := flag.Float64("goal-frac", 0.5, "goal as a fraction of each app's rate at its fair share")
	memBW := flag.Float64("mem-bw", -1, "off-chip bandwidth in GB/s (-1 = scenario default: 200 for the fleet, 24 for -colocate; 0 = chip model default)")
	colocate := flag.Bool("colocate", false, "run the bandwidth co-location scenario instead of the fleet")
	flag.Parse()

	if *colocate {
		if *memBW < 0 {
			*memBW = 24 // scarce: two 16-core oceans collide hard
		}
		runColocate(*tiles, *accel, *memBW)
		return
	}
	if *memBW < 0 {
		// A fleet of 120 apps outgrows the model's 2012-era 51.2 GB/s
		// bus; provision HBM-class bandwidth so the default scenario is
		// feasible while co-location still shows up in mem-rho.
		*memBW = 200
	}
	params := angstrom.DefaultParams()
	if *memBW > 0 {
		params.MemBandwidthBps = *memBW * 1e9
	}

	d, err := server.NewDaemon(server.Config{
		Cores:         *tiles,
		Period:        time.Hour, // ticked manually
		Accel:         *accel,
		Oversubscribe: true,
		Chip:          &server.ChipConfig{Tiles: *tiles, PowerBudgetW: *budget, Params: &params},
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pose each app a goal it can reach at roughly its fair share of the
	// chip: frac x the model's rate at a fair-share-sized allocation.
	p := angstrom.DefaultParams()
	fairCores := *tiles / *apps
	cores := 1
	for cores*2 <= fairCores && cores < 8 {
		cores *= 2
	}
	// Oversubscribed fleets run time-shared: an app's reachable rate is
	// scaled by its fair time share of a single tile.
	shareFactor := 1.0
	if *apps > *tiles {
		shareFactor = float64(*tiles) / float64(*apps)
	}
	goals := make(map[string]float64, len(workloads))
	for _, wl := range workloads {
		spec, err := workload.ByName(wl)
		if err != nil {
			log.Fatal(err)
		}
		m, err := angstrom.Evaluate(p, spec, angstrom.Config{Cores: cores, CacheKB: 64, VF: 1})
		if err != nil {
			log.Fatal(err)
		}
		goals[wl] = m.HeartRate * *frac * shareFactor
	}

	log.Printf("enrolling %d apps on a %d-tile chip (fair share ~%d cores, goals at %.0f%%)...",
		*apps, *tiles, fairCores, *frac*100)
	for i := 0; i < *apps; i++ {
		wl := workloads[i%len(workloads)]
		target := goals[wl]
		err := d.Enroll(server.EnrollRequest{
			Name:     fmt.Sprintf("app-%04d", i),
			Workload: wl,
			// Span several decision periods so the windowed rate
			// averages over time-multiplexed slices.
			Window:  2048,
			MinRate: target * 0.9,
			MaxRate: target * 1.1,
		})
		if err != nil {
			log.Fatalf("enroll %d: %v", i, err)
		}
	}

	fmt.Println(" tick   decided   in-band   core-eq     chipW   mem-rho   noc-rho")
	every := *ticks / 10
	if every < 1 {
		every = 1
	}
	for i := 0; i < *ticks; i++ {
		d.Tick()
		if (i+1)%every == 0 {
			decided, met := fleet(d)
			chip, _ := d.ChipStatus()
			fmt.Printf("%5d  %7d/%d  %7d/%d  %8.1f  %8.2f  %8.3f  %8.3f\n",
				i+1, decided, *apps, met, *apps, chip.CoreEquivalents, chip.PowerW, chip.MemRho, chip.NoCRho)
		}
	}

	decided, met := fleet(d)
	chip, _ := d.ChipStatus()
	stats := d.Stats()
	fmt.Printf("\n=== chipserve: %d apps on one %d-tile chip ===\n", *apps, chip.Tiles)
	fmt.Printf("oda loop   %d ticks, %d decisions, %d beats (all chip-emitted)\n",
		stats.Ticks, stats.Decisions, stats.Beats)
	fmt.Printf("fleet      %d decided, %d in their goal band\n", decided, met)
	fmt.Printf("chip       %.1f/%d core-equivalents, %.2f W (budget %s)\n",
		chip.CoreEquivalents, chip.Tiles, chip.PowerW, budgetStr(chip.PowerBudgetW))
	fmt.Printf("contention %.2f/%.1f GB/s off-chip (rho %.3f), noc rho %.3f\n",
		chip.MemDemandBps/1e9, chip.MemBandwidthBps/1e9, chip.MemRho, chip.NoCRho)
	if chip.CoreEquivalents > float64(chip.Tiles)+1e-6 {
		log.Fatalf("FAIL: core ledger %.2f exceeds the %d-tile pool", chip.CoreEquivalents, chip.Tiles)
	}
	if met < *apps {
		for _, st := range d.List() {
			if !st.GoalMet {
				fmt.Printf("  out of band: %s rate %.1f vs [%.1f, %.1f] chip %+v\n",
					st.Name, st.Observation.WindowRate, st.Goal.MinRate, st.Goal.MaxRate, st.Chip)
			}
		}
		log.Printf("WARNING: %d/%d apps outside their goal band", *apps-met, *apps)
		os.Exit(1)
	}
	fmt.Println("all apps converged onto their goal bands through real knobs")
}

// runColocate demonstrates cross-partition contention end to end on a
// chip whose off-chip bandwidth is scarce enough that two copies of a
// bandwidth-heavy workload (ocean) genuinely collide.
//
// Part 1 pins the hardware: identical fixed partitions, alone and then
// co-located, so the degradation is visible at equal configurations —
// each tenant must sense lower IPS than it did alone.
//
// Part 2 closes the serving loop: the same pair served by an adaptive
// daemon, where the manager provisions extra cores for the contended
// throughput and both apps must converge into their goal bands anyway.
func runColocate(tiles int, accel, memBWGBps float64) {
	p := angstrom.DefaultParams()
	if memBWGBps > 0 {
		p.MemBandwidthBps = memBWGBps * 1e9
	}
	cfg := angstrom.Config{Cores: 16, CacheKB: 64, VF: 1}
	spec, err := workload.ByName("ocean")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== co-location on a %d-tile chip, %.0f GB/s off-chip ===\n\n", tiles, p.MemBandwidthBps/1e9)
	fmt.Printf("part 1: fixed partitions (%d cores, %dKB L2, VF%d each)\n", cfg.Cores, cfg.CacheKB, cfg.VF)

	solo := senseIPS(p, tiles, spec, cfg, 1)
	duo := senseIPS(p, tiles, spec, cfg, 2)
	fmt.Printf("  alone:      %.3g IPS\n", solo[0])
	for i, ips := range duo {
		drop := (1 - ips/solo[0]) * 100
		fmt.Printf("  co-located: %.3g IPS (tenant %d, -%.1f%%)\n", ips, i, drop)
		if ips >= solo[0] {
			log.Fatalf("FAIL: tenant %d senses %.3g IPS co-located, not below %.3g alone", i, ips, solo[0])
		}
	}

	fmt.Printf("\npart 2: adaptive serving (two apps, same goal band)\n")
	d, err := server.NewDaemon(server.Config{
		Cores: tiles, Period: time.Hour, Accel: accel,
		// The same bandwidth part 1 used, so both parts run one chip.
		Chip: &server.ChipConfig{Tiles: tiles, Params: &p},
	})
	if err != nil {
		log.Fatal(err)
	}
	m, err := angstrom.Evaluate(p, spec, cfg)
	if err != nil {
		log.Fatal(err)
	}
	target := m.HeartRate * 0.6
	for _, name := range []string{"hog-a", "hog-b"} {
		err := d.Enroll(server.EnrollRequest{
			Name: name, Workload: "ocean", Window: 2048,
			MinRate: target * 0.9, MaxRate: target * 1.1,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		d.Tick()
	}
	inBand, ticksChecked := 0, 100
	var slowSum float64
	for i := 0; i < ticksChecked; i++ {
		d.Tick()
		met := 0
		for _, st := range d.List() {
			if st.GoalMet {
				met++
			}
			slowSum += st.Chip.Slowdown / float64(2*ticksChecked)
		}
		if met == 2 {
			inBand++
		}
	}
	chip, _ := d.ChipStatus()
	for _, st := range d.List() {
		fmt.Printf("  %s: rate %.1f in [%.1f, %.1f], %d cores granted %d units, slowdown %.3f\n",
			st.Name, st.Observation.WindowRate, st.Goal.MinRate, st.Goal.MaxRate,
			st.Chip.Cores, st.Cores.Units, st.Chip.Slowdown)
	}
	fmt.Printf("  chip: %.2f/%.1f GB/s off-chip (rho %.3f), both in band %d/%d of the last ticks\n",
		chip.MemDemandBps/1e9, chip.MemBandwidthBps/1e9, chip.MemRho, inBand, ticksChecked)
	if inBand < ticksChecked*6/10 {
		log.Fatalf("FAIL: contended pair jointly in band only %d/%d ticks", inBand, ticksChecked)
	}
	if slowSum > 0.95 {
		log.Fatalf("FAIL: mean slowdown %.3f shows no real contention", slowSum)
	}
	fmt.Println("\nco-location costs are visible, and the fleet converges anyway")
}

// senseIPS builds a fresh scarce chip with n identical fixed tenants,
// runs one contention pass, and returns each tenant's sensed IPS.
func senseIPS(p angstrom.Params, tiles int, spec workload.Spec, cfg angstrom.Config, n int) []float64 {
	sc, err := angstrom.NewSharedChip(p, tiles)
	if err != nil {
		log.Fatal(err)
	}
	parts := make([]*angstrom.Partition, n)
	for i := range parts {
		mon := heartbeat.New(sim.NewClock(0))
		pt, err := sc.Acquire(fmt.Sprintf("hog-%d", i), workload.NewInstance(spec, uint64(i+1)), mon, cfg, 1, 0)
		if err != nil {
			log.Fatal(err)
		}
		parts[i] = pt
	}
	sc.UpdateContention()
	out := make([]float64, n)
	for i, pt := range parts {
		out[i] = pt.Sense().IPS
	}
	return out
}

func fleet(d *server.Daemon) (decided, met int) {
	for _, st := range d.List() {
		if st.Decision != nil {
			decided++
		}
		if st.GoalMet {
			met++
		}
	}
	return decided, met
}

func budgetStr(w float64) string {
	if w <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%.1f W", w)
}
