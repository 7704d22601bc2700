package experiment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestSweepPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{0, 1, 3, 7, 128} {
		out, err := Sweep(items, workers, func(idx, item int) (int, error) {
			return item * item, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepPropagatesError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Sweep(items, workers, func(idx, item int) (int, error) {
			if item == 5 {
				return 0, boom
			}
			return item, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

func TestSweepEmptyAndIndexArg(t *testing.T) {
	out, err := Sweep(nil, 4, func(idx int, item string) (string, error) { return item, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty sweep: out=%v err=%v", out, err)
	}
	var calls atomic.Int64
	_, err = Sweep([]string{"a", "b"}, 2, func(idx int, item string) (string, error) {
		calls.Add(1)
		want := string(rune('a' + idx))
		if item != want {
			return "", fmt.Errorf("idx %d got item %q", idx, item)
		}
		return item, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2", calls.Load())
	}
}

func TestSafeRatio(t *testing.T) {
	if got := safeRatio(10, 2); got != 5 {
		t.Fatalf("safeRatio(10,2) = %g", got)
	}
	if got := safeRatio(10, 0); got != 0 {
		t.Fatalf("safeRatio(10,0) = %g, want 0", got)
	}
}

// encodeFig2Points serializes every field of every point with exact
// float bit patterns, so equality below means byte-identical results.
func encodeFig2Points(t *testing.T, pts []Fig2Point) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, pt := range pts {
		if err := binary.Write(&buf, binary.LittleEndian, struct {
			Cores, CacheKB                  int64
			IPS, EnergyJ                    float64
			Pareto, CacheChoice, CoreChoice bool
		}{
			int64(pt.Cores), int64(pt.CacheKB),
			pt.IPS, pt.EnergyJ,
			pt.Pareto, pt.CacheChoice, pt.CoreChoice,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFig2ParallelMatchesSerial is the sweep engine's determinism
// gate: the same seed must produce byte-identical Figure-2 points
// whether configurations are evaluated serially or on a worker pool.
func TestFig2ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("trace-driven experiment")
	}
	opts := Fig2Options{Accesses: 20000, Seed: 77}

	opts.Workers = 1
	serial, err := RunFig2(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 8
	parallel, err := RunFig2(opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Points) != len(parallel.Points) {
		t.Fatalf("point counts differ: serial %d, parallel %d", len(serial.Points), len(parallel.Points))
	}
	sb := encodeFig2Points(t, serial.Points)
	pb := encodeFig2Points(t, parallel.Points)
	if !bytes.Equal(sb, pb) {
		for i := range serial.Points {
			if serial.Points[i] != parallel.Points[i] {
				t.Errorf("point %d diverged:\n  serial   %+v\n  parallel %+v",
					i, serial.Points[i], parallel.Points[i])
			}
		}
		t.Fatal("parallel sweep is not byte-identical to the serial run")
	}
}

// TestFig4ParallelMatchesSerial covers the analytic sweep the same way
// (cheap enough to run unconditionally).
func TestFig4ParallelMatchesSerial(t *testing.T) {
	serial, err := RunFig4(Fig4Options{Multiplier: 1.15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunFig4(Fig4Options{Multiplier: 1.15, Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i] != parallel.Rows[i] {
			t.Fatalf("row %d diverged:\n  serial   %+v\n  parallel %+v",
				i, serial.Rows[i], parallel.Rows[i])
		}
	}
}
