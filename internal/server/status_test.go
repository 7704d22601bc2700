package server

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A status response's goal_met agrees with the band and the observation
// the same response reports, while beats at rates on both sides of the
// band and goal changes land between reads.
func TestStatusGoalMetMatchesItsObservation(t *testing.T) {
	d, err := NewDaemon(Config{Cores: 4, Period: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "svc", Workload: "water", Window: 8, MinRate: 2000, MaxRate: 20000}); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // beats: bursts well above the band, then a trickle below it
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if i%64 < 32 {
				_ = d.Beat("svc", 1, 0)
			} else {
				time.Sleep(time.Millisecond)
				_ = d.Beat("svc", 1, 0)
			}
		}
	}()
	go func() { // goal changes: a band with no upper bound, and back
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			maxRate := 20000.0
			if i%2 == 1 {
				maxRate = 0
			}
			_ = d.SetGoal("svc", 200*float64(1+i%20), maxRate)
		}
	}()
	// Read for 300ms, and on past it (up to 10s) until both answers have
	// been seen.
	met, missed := 0, 0
	start := time.Now()
	for since := time.Duration(0); since < 300*time.Millisecond || (since < 10*time.Second && (met == 0 || missed == 0)); since = time.Since(start) {
		st, err := d.Status("svc")
		if err != nil {
			t.Fatal(err)
		}
		g, rate := st.Goal, st.Observation.WindowRate
		want := rate >= g.MinRate && (g.MaxRate <= 0 || rate <= g.MaxRate)
		if st.GoalMet != want {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("goal_met %v, but the response reports window_rate %g and band [%g, %g]", st.GoalMet, rate, g.MinRate, g.MaxRate)
		}
		if want {
			met++
		} else {
			missed++
		}
	}
	stop.Store(true)
	wg.Wait()
}
