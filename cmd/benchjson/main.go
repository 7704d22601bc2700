// Command benchjson turns `go test -bench` output into the repository's
// benchmark-trajectory snapshot: a BENCH_<date>.json file recording
// ns/op, B/op and allocs/op per benchmark, so successive PRs can be
// compared without re-running old commits.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | go run ./cmd/benchjson
//	go run ./cmd/benchjson -o BENCH_2026-07-28.json bench.out
//	go run ./cmd/benchjson -compare BENCH_2026-07-28.json bench.out
//
// With no -o flag the output lands in BENCH_<today>.json.
//
// With -compare the new results are checked against an old snapshot
// instead of being written: every gated benchmark (-gates regexp)
// present in both runs must stay within -threshold (default 20%) of its
// old ns/op, and a gate that was allocation-free must stay so. Any
// regression prints a report and exits nonzero — `make bench-compare`
// wires this as the performance gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Snapshot is the emitted file.
type Snapshot struct {
	Date       string   `json:"date"`
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Package    string   `json:"pkg,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkFigure2-8   3   322103949 ns/op   70841608 B/op   144481 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so trajectories compare across
// machines; B/op and allocs/op are optional (absent without -benchmem)
// and come last, after any MB/s or b.ReportMetric columns ("35913917
// beats/s", "128.6 ns/insert"), which are skipped.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+[\d.e+-]+ \S+)*?(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?\s*$`)

func parse(r io.Reader) (Snapshot, error) {
	snap := Snapshot{Date: time.Now().Format("2006-01-02")}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			snap.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			snap.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			snap.Package = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := Result{Name: strings.TrimPrefix(m[1], "Benchmark")}
		res.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		res.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		if m[5] != "" {
			res.BytesPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		if m[6] != "" {
			res.AllocsPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		snap.Benchmarks = append(snap.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return snap, err
	}
	if len(snap.Benchmarks) == 0 {
		return snap, fmt.Errorf("no benchmark lines found (pipe `go test -bench` output in)")
	}
	return snap, nil
}

// defaultGates names the performance-gated benchmarks: the serving and
// simulator hot paths whose trajectories PRs must not regress (see
// BENCHMARKS.md). Subbenchmark names include the parent, e.g.
// DetailedAccess/directory.
const defaultGates = `^(PartitionSense$|DetailedAccess/|DaemonBeat$|DaemonChipTick|DaemonTick10k$|DaemonTick10kJournaled$|DaemonTickFederated$|Placement$|JournalAppend$|Recovery10k$|MonitorBeatWindow4096$|MonitorObserveWindow256/|ChipEvaluate$|ScenarioFlashCrowd$|BeatIngestWire$|BeatIngestWireParallel$|BeatIngestDurable$|Recovery10kTail$|DirectoryInsert/|AdmitChip$|AdmitAdvisory$|EnrollChipOversub5k$)`

// regression is one gated benchmark that got worse.
type regression struct {
	name   string
	reason string
}

// compareSnapshots checks the new results against the old snapshot:
// gated benchmarks present in both must stay within threshold of their
// old ns/op, and gates that were allocation-free must stay so. Gates
// only present on one side are reported but not failed (benchmarks come
// and go across PRs).
func compareSnapshots(old, new Snapshot, gates *regexp.Regexp, threshold float64) []regression {
	oldBy := make(map[string]Result, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Name] = r
	}
	newBy := make(map[string]bool, len(new.Benchmarks))
	for _, r := range new.Benchmarks {
		newBy[r.Name] = true
	}
	for _, r := range old.Benchmarks {
		if gates.MatchString(r.Name) && !newBy[r.Name] {
			fmt.Printf("  gate %-36s MISSING from the new run (was %.1f ns/op)\n", r.Name, r.NsPerOp)
		}
	}
	// The allocation gate only means something when the baseline was
	// recorded with -benchmem: a snapshot without it reports 0 allocs
	// for everything, which is indistinguishable per-entry from a
	// genuinely allocation-free benchmark.
	oldHasMem := false
	for _, r := range old.Benchmarks {
		if r.BytesPerOp > 0 || r.AllocsPerOp > 0 {
			oldHasMem = true
			break
		}
	}
	var regs []regression
	for _, r := range new.Benchmarks {
		if !gates.MatchString(r.Name) {
			continue
		}
		prev, ok := oldBy[r.Name]
		if !ok {
			fmt.Printf("  new gate %-32s %12.1f ns/op (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		delta := (r.NsPerOp - prev.NsPerOp) / prev.NsPerOp
		status := "ok"
		if delta > threshold {
			status = "REGRESSION"
			regs = append(regs, regression{r.Name, fmt.Sprintf("ns/op %+.1f%% (%.1f -> %.1f, threshold %+.0f%%)",
				delta*100, prev.NsPerOp, r.NsPerOp, threshold*100)})
		}
		if oldHasMem && prev.AllocsPerOp == 0 && r.AllocsPerOp > 0 {
			status = "REGRESSION"
			regs = append(regs, regression{r.Name, fmt.Sprintf("allocs/op 0 -> %d (allocation-free gate)", r.AllocsPerOp)})
		}
		fmt.Printf("  %-36s %12.1f -> %10.1f ns/op  %+6.1f%%  %s\n", r.Name, prev.NsPerOp, r.NsPerOp, delta*100, status)
	}
	return regs
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "output path (default BENCH_<date>.json)")
	compare := flag.String("compare", "", "old snapshot to compare against instead of writing; exit nonzero on gated regression")
	gates := flag.String("gates", defaultGates, "regexp of benchmark names gated by -compare")
	threshold := flag.Float64("threshold", 0.20, "relative ns/op regression tolerated by -compare")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	snap, err := parse(in)
	if err != nil {
		log.Fatal(err)
	}

	if *compare != "" {
		gatesRe, gerr := regexp.Compile(*gates)
		if gerr != nil {
			log.Fatalf("bad -gates: %v", gerr)
		}
		data, rerr := os.ReadFile(*compare)
		if rerr != nil {
			log.Fatal(rerr)
		}
		var old Snapshot
		if uerr := json.Unmarshal(data, &old); uerr != nil {
			log.Fatalf("parse %s: %v", *compare, uerr)
		}
		fmt.Printf("comparing against %s (%s):\n", *compare, old.Date)
		regs := compareSnapshots(old, snap, gatesRe, *threshold)
		if len(regs) > 0 {
			for _, r := range regs {
				log.Printf("REGRESSION %s: %s", r.name, r.reason)
			}
			os.Exit(1)
		}
		fmt.Println("all gated benchmarks within threshold")
		return
	}

	path := *out
	if path == "" {
		path = "BENCH_" + snap.Date + ".json"
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", path, len(snap.Benchmarks))
}
