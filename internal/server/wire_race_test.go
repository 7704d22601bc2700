package server

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The churn race test: concurrent binary writers against a live fleet —
// enroll/withdraw churn, goal storms, and ticks on a sharded directory,
// with chip-backed apps in the mix so the tile ledger is under load too
// (meaningful under -race, which make test always applies). At the end
// every counter must reconcile exactly with per-beat ground truth: the
// delta-batched fleet total and the per-connection flush acks agree
// once the writers hit their barriers.
func TestWireChurnRace(t *testing.T) {
	cfg := Config{
		Cores: 256, Accel: 0.05, Period: time.Hour, Oversubscribe: true, TickWorkers: 4,
		Chip: &ChipConfig{Tiles: 256},
	}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const stable = 16
	for i := 0; i < stable; i++ {
		err := d.Enroll(EnrollRequest{
			Name: fmt.Sprintf("st-%02d", i), Mode: ModeAdvisory,
			MinRate: 20, MaxRate: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(d, ln)
	go ws.Serve()
	defer ws.Close()

	const writers, framesPerWriter = 4, 1200
	var (
		wireGround  atomic.Uint64 // per-beat ground truth, wire transport
		jsonGround  atomic.Uint64 // ground truth for the direct/JSON path
		churnGround atomic.Uint64 // beats to churned apps (direct path)
		churnedChip []*app        // churned chip-backed apps, for their emitted beats
		wg          sync.WaitGroup
		stopTick    = make(chan struct{})
		stopChurn   = make(chan struct{})
	)

	// Tick loop: decide/actuate/advance racing every writer.
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		for {
			select {
			case <-stopTick:
				return
			default:
				d.Tick()
			}
		}
	}()

	// Churn loop: chip-backed enroll/beat-refusal/withdraw cycles plus
	// advisory churn apps beaten through the direct path, plus goal
	// storms on the stable fleet.
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for j := 0; ; j++ {
			select {
			case <-stopChurn:
				return
			default:
			}
			chipName := fmt.Sprintf("hw-%04d", j)
			if err := d.Enroll(EnrollRequest{Name: chipName, MinRate: 10, MaxRate: 30}); err == nil {
				if a, ok := d.lookup(chipName); ok {
					churnedChip = append(churnedChip, a)
				}
				_ = d.Withdraw(chipName)
			}
			advName := fmt.Sprintf("adv-%04d", j)
			if err := d.Enroll(EnrollRequest{Name: advName, Mode: ModeAdvisory, MinRate: 10, MaxRate: 30}); err == nil {
				n := 1 + j%17
				if err := d.Beat(advName, n, 0); err == nil {
					churnGround.Add(uint64(n))
				}
				_ = d.Withdraw(advName)
			}
			_ = d.SetGoal(fmt.Sprintf("st-%02d", j%stable), 15+float64(j%40), 0)
		}
	}()

	// Wire writers: one persistent connection each, multiplexing four
	// stable apps, mixed count/timestamp batches, flush barrier every
	// 100 frames. A fifth of the stable fleet is also beaten over the
	// direct (JSON-path) entry point concurrently, so both transports
	// land on the same monitors at once.
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer wg.Done()
			wc, err := DialWire(ln.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer wc.Close()
			handles := make([]uint32, 4)
			names := make([]string, 4)
			for k := range handles {
				names[k] = fmt.Sprintf("st-%02d", (w*4+k)%stable)
				h, err := wc.Hello(names[k])
				if err != nil {
					t.Error(err)
					return
				}
				handles[k] = h
			}
			var local uint64
			ns := uint64(1 + w*1e9)
			for f := 0; f < framesPerWriter; f++ {
				k := f % 4
				n := 1 + (f*7+w)%50
				if f%3 == 0 {
					buf := make([]uint64, n)
					for j := range buf {
						ns += uint64(1_000_000 + (f+j)%5_000_000)
						buf[j] = ns
					}
					if err := wc.BeatsAt(handles[k], buf, 0); err != nil {
						t.Error(err)
						return
					}
				} else {
					if err := wc.Beats(handles[k], n, 0.25); err != nil {
						t.Error(err)
						return
					}
				}
				local += uint64(n)
				if f%10 == 5 {
					// The direct entry point is the JSON path's core:
					// both transports interleave on one app's monitor.
					if err := d.Beat(names[k], 2, 0); err != nil {
						t.Error(err)
						return
					}
					jsonGround.Add(2)
				}
				if f%100 == 99 {
					if _, err := wc.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			total, err := wc.Flush()
			if err != nil {
				t.Error(err)
				return
			}
			if total != local {
				t.Errorf("writer %d: flush ack %d != per-beat ground truth %d", w, total, local)
			}
			wireGround.Add(local)
		}(w)
	}
	wg.Wait()
	close(stopChurn)
	churnWG.Wait()
	close(stopTick)
	tickWG.Wait()
	if t.Failed() {
		return
	}

	want := wireGround.Load() + jsonGround.Load() + churnGround.Load()
	// A tick that runs a churned chip-backed app before its withdrawal
	// lands emits beats into the fleet total too; with the ticks
	// stopped, each app's monitor holds exactly what it emitted.
	var chipEmitted uint64
	for _, a := range churnedChip {
		chipEmitted += a.mon.Count()
	}
	if got := d.Stats().Beats; got != want+chipEmitted {
		t.Fatalf("fleet beat total %d != ground truth %d (wire %d + json %d + churn %d + chip-emitted %d)",
			got, want+chipEmitted, wireGround.Load(), jsonGround.Load(), churnGround.Load(), chipEmitted)
	}
	for i, st := range d.ChipStatuses() {
		if st.LedgerFaults != 0 {
			t.Fatalf("chip %d: %d ledger faults under churn", i, st.LedgerFaults)
		}
	}
}
