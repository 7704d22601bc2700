// Loadgen drives the angstromd serving daemon with thousands of
// concurrent synthetic heartbeat streams — the serving-side counterpart
// of the paper's multi-application scenario (§3.3): every stream
// enrolls with its own performance goal, beats over HTTP in batches,
// and reads back the decisions the ODA loop makes for it while the
// manager water-fills the shared core pool.
//
// By default it spawns a daemon in-process on a loopback port: a 4,096
// core pool, oversubscribed, every other setting the daemon's default.
// To load a daemon configured otherwise (core pool, period, tick
// workers, -data-dir, ...), start angstromd with those flags and point
// -addr at it (plus -wire-addr at its -beat-listen address with -wire):
//
//	angstromd -addr :8090 -beat-listen :8091 -cores 1024 -data-dir /var/lib/angstromd &
//	go run ./examples/loadgen -addr http://127.0.0.1:8090 -wire -wire-addr 127.0.0.1:8091
//
// At fleet scale the daemon resolves apps through a lock-free name
// table and re-prices only what changed each tick, so one process
// sustains 10,000 concurrent streams:
//
//	go run ./examples/loadgen -apps 10000 -rate 5 -batch 25 -duration 30s
//
// With -wire, beats travel over the binary beat wire protocol instead
// of HTTP/JSON: streams share a pool of GOMAXPROCS persistent
// connections, each app handshakes a conn-local handle, and batches go
// out as unacknowledged CRC-framed wire frames with periodic flush
// barriers. Enrollment and decision reads stay on the JSON API. This is
// the path for beat rates that outrun JSON:
//
//	go run ./examples/loadgen -apps 1000 -rate 1000 -batch 100 -wire
//
// Requests retry up to five times with capped exponential backoff +
// jitter, so the fleet rides through a daemon restart instead of
// counting errors.
// Loadgen drives load and reports throughput and convergence; request
// latency is measured with spread and bounds by the benchmark/ harness.
//
// Run: go run ./examples/loadgen -apps 1000 -duration 10s
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"angstrom/internal/heartbeat"
	"angstrom/internal/server"
)

var workloads = []string{"barnes", "ocean", "raytrace", "water", "volrend"}

// maxRetries bounds the retries of one request on transient errors.
const maxRetries = 5

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "", "daemon base URL (empty: spawn one in-process)")
	apps := flag.Int("apps", 1000, "concurrent synthetic applications")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	rate := flag.Float64("rate", 20, "beats/s each application targets")
	batch := flag.Int("batch", 10, "beats per POST")
	wire := flag.Bool("wire", false, "stream beats over the binary wire protocol (enrollment stays JSON)")
	wireAddr := flag.String("wire-addr", "", "wire listener address (spawned daemon: auto; required with -addr and -wire)")
	flag.Parse()

	if *wire && *addr != "" && *wireAddr == "" {
		log.Fatal("-wire against an external -addr needs -wire-addr")
	}

	base := *addr
	wireTarget := *wireAddr
	if base == "" {
		d, err := server.NewDaemon(server.Config{Cores: 4096, Oversubscribe: true})
		if err != nil {
			log.Fatal(err)
		}
		d.Start()
		defer func() { _ = d.Close() }()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := &http.Server{Handler: d.Handler()}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				log.Print(err)
			}
		}()
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		log.Printf("spawned angstromd on %s (cores=4096, oversubscribed)", base)

		if *wire {
			wln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			ws := server.NewWireServer(d, wln)
			go func() {
				if err := ws.Serve(); err != nil {
					log.Print(err)
				}
			}()
			defer ws.Close()
			wireTarget = wln.Addr().String()
			log.Printf("binary beat wire protocol on %s", wireTarget)
		}
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *apps * 2,
			MaxIdleConnsPerHost: *apps * 2,
		},
		Timeout: 10 * time.Second,
	}

	// One pool of persistent wire connections shared by the whole fleet;
	// each app handshakes its own handle on its assigned connection.
	var wcs []*server.WireClient
	if *wire {
		wcs = make([]*server.WireClient, runtime.GOMAXPROCS(0))
		for i := range wcs {
			wc, err := server.DialWire(wireTarget)
			if err != nil {
				log.Fatal(err)
			}
			defer wc.Close()
			wcs[i] = wc
		}
		log.Printf("dialed %d wire connections", len(wcs))
	}

	// ingested mirrors the daemon's own counter discipline: workers
	// accumulate into goroutine-local deltas and publish to this shared
	// counter at a threshold, instead of bouncing one hot atomic (or a
	// per-request accumulation race) across every stream on every batch.
	var (
		ingested heartbeat.Counter
		requests atomic.Uint64
		frames   atomic.Uint64
		errs     atomic.Uint64
		retried  atomic.Uint64
	)
	// post retries transport errors and 5xx responses (a restarting or
	// journal-degraded daemon) with capped exponential backoff plus full
	// jitter; 4xx client errors fail immediately.
	post := func(path string, body any) error {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		backoff := 50 * time.Millisecond
		const maxBackoff = 2 * time.Second
		for attempt := 0; ; attempt++ {
			resp, err := client.Post(base+path, "application/json", bytes.NewReader(buf))
			if err == nil {
				resp.Body.Close()
				requests.Add(1)
				if resp.StatusCode < 300 {
					return nil
				}
				err = fmt.Errorf("%s: status %d", path, resp.StatusCode)
				if resp.StatusCode < 500 {
					return err
				}
			}
			if attempt >= maxRetries {
				return err
			}
			retried.Add(1)
			time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff))))
			if backoff < maxBackoff {
				backoff *= 2
			}
		}
	}

	// In wire mode a background flusher per connection publishes pending
	// counter deltas and keeps the server's totals fresh between the
	// unacknowledged beat frames. A failed flush means a dead connection:
	// count it now rather than at the final barrier.
	stopFlush := make(chan struct{})
	var flushWG sync.WaitGroup
	for _, wc := range wcs {
		flushWG.Add(1)
		go func(c *server.WireClient) {
			defer flushWG.Done()
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopFlush:
					return
				case <-t.C:
					if _, err := c.Flush(); err != nil {
						errs.Add(1)
						return
					}
				}
			}
		}(wc)
	}

	log.Printf("enrolling %d applications...", *apps)
	deadline := time.Now().Add(*duration)
	var wg sync.WaitGroup
	for i := 0; i < *apps; i++ {
		wg.Add(1)
		// Go 1.22 loop variables are per-iteration: capture i directly
		// instead of shadowing it with a parameter.
		go func() {
			defer wg.Done()
			del := heartbeat.Delta{C: &ingested}
			defer del.Flush()
			name := fmt.Sprintf("app-%04d", i)
			goal := *rate
			// No window inflation: the daemon spreads each batch's
			// timestamps across the interval since the previous beat
			// (or honors client-supplied per-beat timestamps), so the
			// default window measures the true stream rate even when
			// it is smaller than a batch.
			req := server.EnrollRequest{
				Name:     name,
				Workload: workloads[i%len(workloads)],
				MinRate:  goal * 0.9,
				MaxRate:  goal * 1.1,
			}
			if err := post("/v1/apps", req); err != nil {
				errs.Add(1)
				return
			}
			var wc *server.WireClient
			var handle uint32
			if *wire {
				wc = wcs[i%len(wcs)]
				h, err := wc.Hello(name)
				if err != nil {
					errs.Add(1)
					return
				}
				handle = h
			}
			// Desynchronize the fleet, then beat in batches until the
			// deadline.
			interval := time.Duration(float64(*batch) / *rate * float64(time.Second))
			time.Sleep(time.Duration(rand.Int63n(int64(interval) + 1)))
			for time.Now().Before(deadline) {
				if wc != nil {
					if err := wc.Beats(handle, *batch, 0); err != nil {
						// Wire errors are fail-fast: the connection is
						// poisoned for every stream sharing it, so stop
						// rather than hammer a dead conn.
						errs.Add(1)
						return
					}
					frames.Add(1)
					del.Add(uint64(*batch))
				} else if err := post("/v1/apps/"+name+"/beats", server.BeatRequest{Count: *batch}); err != nil {
					errs.Add(1)
				} else {
					del.Add(uint64(*batch))
				}
				time.Sleep(interval)
			}
		}()
	}
	wg.Wait()

	// Final flush barriers: every unacknowledged wire frame is decoded
	// and counted by the server before we read the fleet state back.
	close(stopFlush)
	flushWG.Wait()
	var serverAcked uint64
	for _, wc := range wcs {
		total, err := wc.Flush()
		if err != nil {
			log.Printf("WARNING: final wire flush: %v", err)
			continue
		}
		serverAcked += total
	}

	// Read the fleet's end state back through the API. A failed read is
	// fatal: zeroes would print as if they were a measurement.
	var stats server.StatsResponse
	if err := getJSON(client, base+"/v1/stats", &stats); err != nil {
		log.Fatalf("read back /v1/stats: %v", err)
	}
	var list []server.AppStatus
	if err := getJSON(client, base+"/v1/apps", &list); err != nil {
		log.Fatalf("read back /v1/apps: %v", err)
	}
	decided, met := 0, 0
	for _, st := range list {
		if st.Decision != nil {
			decided++
		}
		if st.GoalMet {
			met++
		}
	}

	elapsed := duration.Seconds()
	beats := ingested.Load()
	fmt.Printf("\n=== loadgen: %d apps for %s against %s ===\n", *apps, duration, base)
	fmt.Printf("ingested   %d beats (%.0f beats/s), %d requests (%.0f req/s), %d errors, %d retries\n",
		beats, float64(beats)/elapsed,
		requests.Load(), float64(requests.Load())/elapsed, errs.Load(), retried.Load())
	if *wire {
		fmt.Printf("wire       %d frames over %d conns, %d beats server-acked\n",
			frames.Load(), len(wcs), serverAcked)
	}
	fmt.Printf("oda loop   %d ticks, %d decisions (%.0f decisions/s)\n",
		stats.Ticks, stats.Decisions, float64(stats.Decisions)/elapsed)
	inBand := 0.0
	if stats.Apps > 0 {
		inBand = 100 * float64(met) / float64(stats.Apps)
	}
	fmt.Printf("fleet      %d enrolled, %d with decisions, %d meeting their goal band (%.1f%%)\n",
		stats.Apps, decided, met, inBand)
	if *wire && serverAcked != beats {
		log.Printf("WARNING: server acked %d beats, client sent %d", serverAcked, beats)
	}
	if errs.Load() > 0 {
		log.Printf("WARNING: %d request errors", errs.Load())
	}
	if inBand < 90 {
		log.Printf("WARNING: only %.1f%% of the fleet converged in-band", inBand)
	}
}

// getJSON decodes a 200 response from url into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
