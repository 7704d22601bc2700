package heartbeat

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"angstrom/internal/sim"
)

// TestDeltaFlushSemantics: Add publishes only at threshold crossings,
// Flush publishes the remainder, and the shared total reconciles
// exactly with ground truth.
func TestDeltaFlushSemantics(t *testing.T) {
	var c Counter
	d := Delta{C: &c, FlushEvery: 10}
	for i := 0; i < 9; i++ {
		d.Add(1)
	}
	if c.Load() != 0 {
		t.Fatalf("published %d below threshold, want 0", c.Load())
	}
	if d.pending != 9 {
		t.Fatalf("pending = %d, want 9", d.pending)
	}
	d.Add(1) // crosses the threshold
	if c.Load() != 10 || d.pending != 0 {
		t.Fatalf("after crossing: published=%d pending=%d, want 10/0", c.Load(), d.pending)
	}
	d.Add(25) // one large add publishes whole
	if c.Load() != 35 {
		t.Fatalf("large add: published=%d, want 35", c.Load())
	}
	d.Add(3)
	d.Flush()
	d.Flush() // idempotent
	if c.Load() != 38 || d.pending != 0 {
		t.Fatalf("after flush: published=%d pending=%d, want 38/0", c.Load(), d.pending)
	}
}

// TestDeltaDefaultThreshold: zero FlushEvery uses DefaultDeltaFlush.
func TestDeltaDefaultThreshold(t *testing.T) {
	var c Counter
	d := Delta{C: &c}
	d.Add(DefaultDeltaFlush - 1)
	if c.Load() != 0 {
		t.Fatalf("published %d below default threshold", c.Load())
	}
	d.Add(1)
	if c.Load() != DefaultDeltaFlush {
		t.Fatalf("published %d, want %d", c.Load(), DefaultDeltaFlush)
	}
}

// TestCounterConcurrentDeltas: N goroutines each owning a Delta
// reconcile exactly after their flush barriers (run under -race).
func TestCounterConcurrentDeltas(t *testing.T) {
	var c Counter
	const writers, perWriter = 8, 10000
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			d := Delta{C: &c, FlushEvery: 64}
			for i := 0; i < perWriter; i++ {
				d.Add(uint64(1 + rng.Intn(3)))
			}
			d.Flush()
		}(int64(w))
	}
	wg.Wait()
	// Recompute ground truth with the same seeds.
	var want uint64
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWriter; i++ {
			want += uint64(1 + rng.Intn(3))
		}
	}
	if c.Load() != want {
		t.Fatalf("counter = %d, ground truth = %d", c.Load(), want)
	}
}

// TestBeatBatchSpreadAtMatchesLoop: the batched single-lock spread is
// byte-identical to the sequential BeatAt loop the daemon used to run,
// across first-batch, paused-clock, and spread regimes, for batches
// inside the window, of exactly one window, and far past it.
func TestBeatBatchSpreadAtMatchesLoop(t *testing.T) {
	// The control reimplements the historical per-beat sequence.
	loop := func(m *Monitor, now sim.Time, count int, distortion float64) {
		last := m.LastTime()
		if count == 1 || last <= 0 || now <= last {
			for i := 0; i < count-1; i++ {
				m.BeatAt(now)
			}
		} else {
			step := (now - last) / float64(count)
			for i := 1; i < count; i++ {
				m.BeatAt(last + step*float64(i))
			}
		}
		if distortion != 0 {
			m.BeatWithAccuracyAt(now, distortion)
		} else {
			m.BeatAt(now)
		}
	}

	for _, window := range []int{2, 3, 20, 64, 256} {
		counts := []int{1, window - 1, window, window + 1, 10 * window, maxBeatBatch}
		clock := sim.NewClock(0)
		batched := New(clock, WithWindow(window))
		control := New(clock, WithWindow(window))
		rng := rand.New(rand.NewSource(11))
		now := sim.Time(0)
		for i := 0; i < 200; i++ {
			// Mix regimes: sometimes the clock pauses (accelerated daemons
			// between ticks), sometimes it jumps.
			if rng.Intn(3) > 0 {
				now += sim.Time(rng.Float64())
			}
			count := 1 + rng.Intn(30)
			if i%2 == 1 {
				count = counts[rng.Intn(len(counts))]
			}
			var distortion float64
			if rng.Intn(2) == 0 {
				distortion = rng.Float64()
			}
			batched.BeatBatchSpreadAt(now, count, distortion)
			loop(control, now, count, distortion)
			sameMonitors(t, fmt.Sprintf("window %d, batch %d of %d beats", window, i, count), batched, control)
		}
	}
}

// sameMonitors fails t unless the two monitors' windows, counts and
// observations are equal.
func sameMonitors(t *testing.T, where string, batched, control *Monitor) {
	t.Helper()
	gotW, wantW := batched.Window(), control.Window()
	if len(gotW) != len(wantW) {
		t.Fatalf("%s: window sizes differ: %d vs %d", where, len(gotW), len(wantW))
	}
	for i := range gotW {
		if gotW[i] != wantW[i] {
			t.Fatalf("%s: window[%d]: batched %+v != loop %+v", where, i, gotW[i], wantW[i])
		}
	}
	if batched.Count() != control.Count() {
		t.Fatalf("%s: counts differ: %d vs %d", where, batched.Count(), control.Count())
	}
	if batched.Observe() != control.Observe() {
		t.Fatalf("%s: observations differ:\n  batched: %+v\n  loop:    %+v", where, batched.Observe(), control.Observe())
	}
}

// TestBeatBatchShiftedAtMatchesLoop: same property for the
// client-timestamped form, including the exact-now final beat.
func TestBeatBatchShiftedAtMatchesLoop(t *testing.T) {
	for _, window := range []int{2, 3, 20, 64, 256} {
		counts := []int{1, window - 1, window, window + 1, 10 * window, maxBeatBatch}
		clock := sim.NewClock(0)
		batched := New(clock, WithWindow(window))
		control := New(clock, WithWindow(window))

		rng := rand.New(rand.NewSource(13))
		now := sim.Time(100)
		for i := 0; i < 100; i++ {
			now += sim.Time(rng.Float64())
			n := 1 + rng.Intn(12)
			if i%2 == 1 {
				n = counts[rng.Intn(len(counts))]
			}
			ts := make([]sim.Time, n)
			cur := rng.Float64() * 50
			for j := range ts {
				ts[j] = sim.Time(cur)
				cur += rng.Float64()
			}
			shift := now - ts[n-1]
			distortion := rng.Float64()

			batched.BeatBatchShiftedAt(ts[:n-1], shift, now, distortion)
			for _, tt := range ts[:n-1] {
				control.BeatAt(tt + shift)
			}
			control.BeatWithAccuracyAt(now, distortion)
			sameMonitors(t, fmt.Sprintf("window %d, batch %d of %d beats", window, i, n), batched, control)
		}
	}
}
