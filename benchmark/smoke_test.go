package main

import (
	"bytes"
	"encoding/json"
	"io"
	"regexp"
	"testing"
)

func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	dir := t.TempDir()
	return options{
		workload: workload, seed: 1, seconds: 0.6, trace: trace, scale: scales["tiny"],
		tmpRoot: dir, traceOut: dir + "/trace.json", report: io.Discard,
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads, both passes, at the tiny scale: the
// checks pass, the result line parses, and it carries exactly the
// metrics BENCHMARK.json names for that pass — none missing, none
// unnamed — with the declared units.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w + "/untraced"
			declared := sp.EndToEnd
			if trace {
				name, declared = w+"/traced", sp.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var report bytes.Buffer
				opts := tinyOptions(t, w, trace)
				opts.report = &report
				res, err := runWorkload(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
				}
				line, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				parsed, err := lastLine(append([]byte("report line\n"), append(line, '\n')...))
				if err != nil {
					t.Fatal(err)
				}
				if len(parsed.Metrics) != len(declared) {
					t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(parsed.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := parsed.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s: declared but not reported", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: unit %q, declared %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("%s: end-to-end value %v", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestSpecMatchesCatalogue holds BENCHMARK.json to the lists in
// metrics.go, and its names to the characters the contract allows.
func TestSpecMatchesCatalogue(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(sp.Workloads), len(workloadNames))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, implemented %q", i, w.Name, workloadNames[i])
		}
	}
	seen := map[string]bool{}
	check := func(kind string, declared []specMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d in metrics.go", kind, len(declared), len(defs))
			return
		}
		for i, m := range declared {
			if d := defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, metrics.go has %+v", kind, i, m, d)
			}
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, m.Name)
			}
			seen[m.Name] = true
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd, true)
	check("per_layer", sp.PerLayer, perLayer, false)
}

// TestViolatedCheckFailsTheRun drops one flush acknowledgement on the
// client side: the run must report itself incorrect.
func TestViolatedCheckFailsTheRun(t *testing.T) {
	t.Parallel()
	opts := tinyOptions(t, "wire_durable", false)
	opts.dropAck = true
	res, err := runWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a dropped acknowledgement went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestChipFleetIsDeterministic: two runs of one seed end in the same
// fleet state, whatever the wall clock did; another seed does not.
func TestChipFleetIsDeterministic(t *testing.T) {
	t.Parallel()
	hash := func(seed uint64, trace bool) string {
		opts := tinyOptions(t, "chip_fleet", trace)
		opts.seed = seed
		res, err := runWorkload(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.stateHash
	}
	a, b, traced, other := hash(1, false), hash(1, false), hash(1, true), hash(2, false)
	if a == "" || a != b {
		t.Errorf("same seed, different state: %q and %q", a, b)
	}
	if traced != a {
		t.Errorf("the traced pass ended in state %q, the untraced pass in %q", traced, a)
	}
	if other == a {
		t.Errorf("seeds 1 and 2 ended in the same state %q", a)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(v)
	if q1 != 2.75 || q3 != 8.25 || median(v) != 5.5 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, median(v), q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three values %v %v, want 1 4", q1, q3)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "tick", ID: 1, Start: 0, End: 100},
		{Name: "sync", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "write", ID: 3, Parent: 1, Start: 30, End: 50}, // overlaps the sync
		{Name: "sync", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)["tick"]
	if got.TotalNS != 100 || got.SelfNS != 50 {
		t.Errorf("tick total %d self %d, want 100 and 50", got.TotalNS, got.SelfNS)
	}
}
