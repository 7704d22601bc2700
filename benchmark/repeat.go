package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json the repeatability modes need.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runSet is the file -repeat writes and -compare reads: the result of
// every run, by workload.
type runSet struct {
	Runs map[string][]*result `json:"runs"`
}

func (s *runSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.Runs[workload] {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// repeatRuns runs one workload n times, each in a fresh process and on
// the next seed, the way the acceptance driver measures spreads, and
// prints each metric's median, quartiles and spread beside its bound.
func repeatRuns(ctx context.Context, root, specPath, outPath, workload string, seed uint64, n int, args []string) int {
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	set := runSet{Runs: map[string][]*result{}}
	if outPath != "" {
		if b, err := os.ReadFile(outPath); err == nil {
			if err := json.Unmarshal(b, &set); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", outPath, err)
				return 1
			}
		}
		delete(set.Runs, workload) // other workloads' runs in the file are kept
	}
	code := 0
	for i := 0; i < n; i++ {
		res, err := child(ctx, root, workload, seed+uint64(i), args, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s run %d: %v\n", workload, i, err)
			return 1
		}
		fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d\n", workload, seed+uint64(i), res.Correct, res.Attempted, res.Failed)
		if !res.Correct {
			code = 1
		}
		set.Runs[workload] = append(set.Runs[workload], res)
	}
	fmt.Printf("%-36s %12s %12s %12s %8s %8s\n", workload, "median", "q1", "q3", "spread", "bound")
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		v := set.values(workload, m.Name)
		if len(v) == 0 {
			continue
		}
		q1, q3 := quartiles(v)
		line := fmt.Sprintf("%-36s %12.4f %12.4f %12.4f %8.4f", m.Name, median(v), q1, q3, spread(v))
		if m.Bound > 0 {
			line += fmt.Sprintf(" %8.4f", m.Bound)
			if spread(v) > m.Bound {
				line += "  SPREAD EXCEEDS BOUND"
			}
		}
		fmt.Println(line)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: write %s: %v\n", outPath, err)
			return 1
		}
	}
	return code
}

// compareFiles holds the new runs' medians to the old ones' under each
// end-to-end metric's bound, workload by workload. A metric whose own
// run-to-run spread, on either side, is wider than its bound is
// reported as unresolved, not as unchanged — unless every new run reads
// better than every old one, or worse, which settles it regardless.
func compareFiles(specPath, oldPath, newPath string) int {
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	var sets [2]runSet
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p, err)
			return 1
		}
	}
	workloads := make([]string, 0, len(sets[0].Runs))
	for w := range sets[0].Runs {
		if len(sets[1].Runs[w]) > 0 {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	code := 0
	fmt.Printf("%-14s %-22s %12s %12s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range sp.EndToEnd {
			a, b := sets[0].values(w, m.Name), sets[1].values(w, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			worse := (median(b) - median(a)) / median(a) // share of the old median by which the new one is worse
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case separated(b, a, m.Better):
				verdict = "better in every run"
			case separated(a, b, m.Better):
				verdict, code = "REGRESSION (worse in every run)", 1
			case math.Max(spread(a), spread(b)) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f exceeds the bound)", spread(a), spread(b))
			case worse > m.Bound:
				verdict, code = "REGRESSION", 1
			}
			fmt.Printf("%-14s %-22s %12.4f %12.4f %+8.1f%% %6.0f%%  %s\n", w, m.Name, median(a), median(b), 100*worse, 100*m.Bound, verdict)
		}
		for i, s := range sets {
			for _, r := range s.Runs[w] {
				if !r.Correct || r.Failed != 0 {
					fmt.Printf("%-14s a run in %s failed its checks (correct=%v failed=%d)\n", w, []string{oldPath, newPath}[i], r.Correct, r.Failed)
					code = 1
				}
			}
		}
	}
	return code
}

// separated reports whether every value of x is better than every value
// of y (needs at least two runs a side to mean anything).
func separated(x, y []float64, better string) bool {
	if len(x) < 2 || len(y) < 2 {
		return false
	}
	if better == "higher" {
		return slices.Min(x) > slices.Max(y)
	}
	return slices.Max(x) < slices.Min(y)
}
