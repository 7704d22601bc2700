package server

import (
	"fmt"
	"math"
	"net"
	"testing"
	"time"
)

// Zero-allocation contracts of the serving hot paths. Each test uses the
// setup of the benchmark of the same name in the root package's
// bench_test.go and fails on a single allocation.

// allocsOf returns every allocation one call of f makes — f makes its n
// calls of the measured path itself, because testing.AllocsPerRun
// truncates its mean to an integer. It reports the fewest seen over
// three calls: AllocsPerRun counts every goroutine's allocations, and
// one an earlier test left winding down (a closing connection) may
// allocate during any one call, while an allocation on the measured
// path shows in all three. AllocsPerRun also makes an unmeasured
// warm-up call first, so f runs six times.
func allocsOf(f func()) float64 {
	least := math.Inf(1)
	for range 3 {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// allocDaemon is the benchmarks' newBenchDaemon: an accelerated
// advisory daemon with n apps enrolled over the five workloads.
func allocDaemon(t *testing.T, cfg Config, n int) *Daemon {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"barnes", "ocean", "raytrace", "water", "volrend"}
	for i := 0; i < n; i++ {
		err := d.Enroll(EnrollRequest{
			Name:     fmt.Sprintf("app-%05d", i),
			Workload: names[i%len(names)],
			MinRate:  50,
			MaxRate:  70,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// Daemon.Beat — directory lookup plus the O(1) monitor ring insert —
// allocates nothing (BenchmarkDaemonBeat).
func TestDaemonBeatAllocatesNothing(t *testing.T) {
	const apps, n = 64, 4096
	d := allocDaemon(t, Config{Cores: 4096, Accel: 0.1, Period: time.Hour}, apps)
	names := make([]string, apps)
	for i := range names {
		names[i] = fmt.Sprintf("app-%05d", i)
	}
	var err error
	allocs := allocsOf(func() {
		for i := 0; i < n && err == nil; i++ {
			err = d.Beat(names[i%apps], 1, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%d beats allocated %g objects, want 0", n, allocs)
	}
}

// The binary wire path allocates nothing per frame on either end once
// its buffers are warm (BenchmarkBeatIngestWire): n 100-beat frames
// streamed unacknowledged, then the flush barrier that waits until the
// server has decoded them all, allocate exactly what the barrier alone
// does — its reply frame, one object per end.
// BenchmarkBeatIngestWireParallel runs this same per-frame path on one
// connection per worker, so this single-connection test covers it.
func TestBeatIngestWireAllocatesNothing(t *testing.T) {
	const batch, n = 100, 1024
	d := allocDaemon(t, Config{Cores: 4096, Accel: 0.1, Period: time.Hour}, 8)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(d, ln)
	go ws.Serve()
	defer ws.Close()
	wc, err := DialWire(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	h, err := wc.Hello("app-00000")
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	flush := func() {
		if err == nil {
			total, err = wc.Flush()
		}
	}
	barrier := allocsOf(flush)
	stream := allocsOf(func() {
		for i := 0; i < n && err == nil; i++ {
			err = wc.Beats(h, batch, 0)
		}
		flush()
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(6 * n * batch); total != want {
		t.Fatalf("flush ack %d, want %d", total, want)
	}
	if stream != barrier {
		t.Fatalf("%d frames and a flush allocated %g objects, the flush alone %g: want no more", n, stream, barrier)
	}
}

// A quiescent advisory fleet's tick allocates a small constant that
// does not grow with the fleet: 1,000 and 10,000 apps pay the same
// (BenchmarkDaemonTick1000, BenchmarkDaemonTick10k).
func TestQuietTickAllocsIndependentOfFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("enrolls 11,000 apps")
	}
	const maxAllocs = 8
	perTick := func(apps int) float64 {
		d := allocDaemon(t, Config{Cores: 4096, Accel: 0.1, Period: time.Hour, Oversubscribe: true}, apps)
		for i := 0; i < apps; i++ {
			if err := d.Beat(fmt.Sprintf("app-%05d", i), 8, 0); err != nil {
				t.Fatal(err)
			}
		}
		d.Tick() // first decisions for the whole fleet
		return testing.AllocsPerRun(20, d.Tick)
	}
	small, large := perTick(1000), perTick(10000)
	if small != large {
		t.Fatalf("a quiet tick allocates %g objects at 1,000 apps and %g at 10,000", small, large)
	}
	if small > maxAllocs {
		t.Fatalf("a quiet tick allocates %g objects, want ≤ %d", small, maxAllocs)
	}
}
