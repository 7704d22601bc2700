// Command benchmark is this repository's benchmark of record: four
// serving workloads run against an in-process server.Daemon configured
// the way production runs it (durable journal on the real filesystem,
// real loopback TCP for both transports), every metric printed by name
// with its unit, every output checked.
//
//	go run ./benchmark -workload http_fleet          one workload, untraced
//	go run ./benchmark -workload http_fleet -trace 1 its traced pass
//	go run ./benchmark                               all four, both passes
//	go run ./benchmark -workload wire_durable -repeat 10 -out a.json
//	go run ./benchmark -compare a.json b.json
//
// A single-workload run prints a human-readable report and, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics; it exits non-zero when a check failed.
// BENCHMARK.json at the repository root declares the command, the
// workloads and the metrics; README.md in this directory explains them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name     = flag.String("workload", "", "workload to run: wire_durable, http_fleet, chip_fleet or recover_10k (empty: all four, untraced then traced)")
		seed     = flag.Uint64("seed", 1, "seed of the workload's inputs (2 is the held-out seed)")
		seconds  = flag.Float64("seconds", 10, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs the traced pass: seams on, spans recorded, per-layer metrics reported")
		scaleArg = flag.String("scale", "full", "full is the benchmark of record; tiny is the smoke test's size")
		repeat   = flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, …) and print each metric's median, quartiles and spread against its bound")
		out      = flag.String("out", "", "with -repeat: also write the runs to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files (old new) under the bounds of BENCHMARK.json")
		specPath = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration (bounds for -repeat and -compare)")
		traceOut = flag.String("trace-out", "", "where the traced pass writes its spans (default: trace-<workload>.json in the temp directory)")
	)
	flag.Parse()
	sc, ok := scales[*scaleArg]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown scale %q\n", *scaleArg)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two files: old new")
			return 2
		}
		return compareFiles(*specPath, flag.Arg(0), flag.Arg(1))
	}

	// Everything a run writes — data directories, crash images, boot
	// copies — lives under one root that every exit path removes.
	root, err := os.MkdirTemp("", "angstrom-benchmark-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	finished := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			// An in-process run cannot be unwound; its daemons die with the
			// process. Child runs are interrupted through ctx and waited for.
			if *name != "" && *repeat == 0 {
				_ = os.RemoveAll(root)
				os.Exit(130)
			}
		case <-finished:
		}
	}()
	code := 1
	switch {
	case *name != "" && *repeat == 0:
		if *traceOut == "" {
			*traceOut = filepath.Join(os.TempDir(), "trace-"+*name+".json")
		}
		code = runOne(options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0, scale: sc, tmpRoot: root, traceOut: *traceOut, report: os.Stdout})
	case *name != "":
		code = repeatRuns(ctx, root, *specPath, *out, *name, *seed, *repeat, childArgs(*seconds, *trace, *scaleArg))
	default:
		code = runAll(ctx, root, *seed, *seconds, *scaleArg)
	}
	close(finished)
	if err := os.RemoveAll(root); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return code
}

// runOne runs a workload in this process and prints its result line.
func runOne(opts options) int {
	res, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", opts.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func childArgs(seconds float64, trace int, scale string) []string {
	return []string{"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-scale", scale}
}

// child runs one workload in a fresh process — no heap carries over
// from one run to the next — and returns its parsed result line. An
// interrupt is passed on and the child is waited for, so that it removes
// its own files; they live under root in any case.
func child(ctx context.Context, root, workload string, seed uint64, args []string, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// The child's temp directory is this process's root, which goes away;
	// its trace is written beside it instead.
	args = append([]string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10), "-trace-out", filepath.Join(os.TempDir(), "trace-"+workload+".json")}, args...)
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+root)
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 10 * time.Second
	outBytes, runErr := cmd.Output()
	if echo {
		os.Stdout.Write(outBytes)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	res, err := lastLine(outBytes)
	if err != nil {
		return nil, errors.Join(runErr, err)
	}
	return res, nil // a run whose checks failed exits 1 but still reports
}

// lastLine parses the result object a run prints last.
func lastLine(out []byte) (*result, error) {
	end := len(out)
	for end > 0 && out[end-1] == '\n' {
		end--
	}
	begin := end
	for begin > 0 && out[begin-1] != '\n' {
		begin--
	}
	var res result
	if err := json.Unmarshal(out[begin:end], &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// runAll runs every workload untraced, then traced, each in a process of
// its own, and reports what tracing cost each workload's headline
// metric.
func runAll(ctx context.Context, root string, seed uint64, seconds float64, scale string) int {
	headline := map[string]string{"wire_durable": "beats_per_s", "http_fleet": "req_p50_us", "chip_fleet": "tick_p50_ms", "recover_10k": "recover_p50_s"}
	began, code := time.Now(), 0
	for _, w := range workloadNames {
		var plain, traced *result
		var err error
		if plain, err = child(ctx, root, w, seed, childArgs(seconds, 0, scale), true); err == nil {
			traced, err = child(ctx, root, w, seed, childArgs(seconds, 1, scale), true)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w, err)
			return 1
		}
		if !plain.Correct || !traced.Correct {
			code = 1
		}
		h := headline[w]
		a, b := plain.Metrics[h].Value, traced.Metrics["trace."+h].Value
		over := (b - a) / a
		if h == "beats_per_s" {
			over = (a - b) / a
		}
		fmt.Printf("%-36s %14.4f frac   (%s: %.4f untraced, %.4f traced)\n", "trace.overhead_frac@"+w, over, h, a, b)
	}
	fmt.Printf("total wall time %.1fs\n", time.Since(began).Seconds())
	return code
}
