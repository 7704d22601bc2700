// Angstromd is the SEEC serving daemon: a long-running
// observe–decide–act loop multiplexing many applications over an
// HTTP/JSON API. Applications enroll with a performance goal, POST
// heartbeats (batched) as they make progress, and read back the
// runtime's latest decision and water-filled core allocation.
//
//	angstromd -addr :8090 -cores 4096 -period 100ms
//
// With -chips 1, every enrolled application is instead bound to a
// partition of one shared Angstrom chip model: the decision engine
// actuates real hardware knobs (core allocation, L2 capacity, DVFS) and
// the partition emits the application's heartbeats as its modeled
// execution progresses. Partitions contend for the chip's off-chip
// bandwidth (-chip-mem-bw) and its mesh (the model's link bandwidth);
// the contention model degrades every partition's effective throughput
// when the fleet saturates either resource.
//
//	angstromd -chips 1 -chip-tiles 256 -oversubscribe -chip-power 40 -chip-mem-bw 200
//
// With -chips N (N > 1), the chip model becomes a federation of N
// identical dies: enrollments are placed on the die where their
// predicted memory/NoC pressure fits best, and applications whose
// contention slowdown falls past -migrate-slowdown are migrated live to
// a less-loaded die. Per-die ledgers are served at /v1/chips.
//
//	angstromd -chips 4 -chip-tiles 256 -oversubscribe -chip-mem-bw 200
//
// With -data-dir, the control plane is durable: every mutation is
// written ahead to a checksummed journal, periodic snapshots compact
// it, and a restart (or crash) restores the enrolled fleet — directory,
// tile ledger, goals — and resumes the recovered timeline. If the disk
// fails mid-run the daemon degrades to read-only serving (mutations
// 503) instead of silently losing durability; SIGTERM drains the HTTP
// server, finishes the in-flight tick, and flushes a final snapshot.
//
//	angstromd -data-dir /var/lib/angstromd -beat-timeout 30s
//
// With -beat-listen, the daemon additionally serves the binary beat
// wire protocol on a second TCP listener: length-prefixed CRC-framed
// batch frames (the journal's frame shape) multiplexed over persistent
// connections, for clients whose beat rate outruns HTTP/JSON. Control
// plane (enroll, goals, withdraw) stays on the JSON API; the wire path
// carries only beats. See docs/API.md "Binary beat wire protocol".
//
//	angstromd -addr :8090 -beat-listen :8091
//
// Endpoints (see docs/API.md and internal/server):
//
//	GET    /healthz
//	GET    /readyz
//	GET    /v1/stats
//	GET    /v1/chips              (404 unless -chips N)
//	GET    /v1/apps
//	POST   /v1/apps               {"name","workload","window","mode","min_rate","max_rate"}
//	GET    /v1/apps/{name}
//	DELETE /v1/apps/{name}
//	POST   /v1/apps/{name}/beats  {"count","distortion","timestamps"}
//	PUT    /v1/apps/{name}/goal   {"min_rate","max_rate"}
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"angstrom/internal/angstrom"
	"angstrom/internal/server"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	addr := flag.String("addr", ":8090", "listen address")
	cores := flag.Int("cores", 4096, "shared core pool arbitrated across applications")
	period := flag.Duration("period", 100*time.Millisecond, "decision period of the ODA loop")
	accel := flag.Float64("accel", 0, "simulated seconds per tick (0 = serve in real time)")
	oversub := flag.Bool("oversubscribe", false, "admit fleets larger than the core pool (time-sharing)")
	shards := flag.Int("shards", 0, "app-directory name-index shard count, rounded to a power of two (0 = scaled from GOMAXPROCS)")
	tickWorkers := flag.Int("tick-workers", 0, "tick worker-pool size for the decide phase (0 = GOMAXPROCS)")
	chips := flag.Int("chips", 0, "bind enrolled apps to a fleet of N identical Angstrom dies driving real knobs (0 = advisory serving)")
	chipTiles := flag.Int("chip-tiles", 0, "physical tiles of each die (0 = core pool size)")
	chipPower := flag.Float64("chip-power", 0, "chip-wide power budget in watts (0 = unlimited)")
	chipMemBW := flag.Float64("chip-mem-bw", 0, "off-chip memory bandwidth in GB/s shared by all partitions (0 = model default)")
	migrateSlowdown := flag.Float64("migrate-slowdown", 0, "contention slowdown below which an app migrates between dies (0 = 0.8 default, negative = never)")
	dataDir := flag.String("data-dir", "", "journal + snapshot directory for a durable control plane (empty = volatile)")
	snapEvery := flag.Duration("snapshot-interval", 0, "snapshot compaction interval (0 = 30s default, negative = journal-only)")
	beatTimeout := flag.Duration("beat-timeout", 0, "evict advisory apps silent for this many daemon-clock seconds (0 = never)")
	beatListen := flag.String("beat-listen", "", "listen address for the binary beat wire protocol (empty = JSON only)")
	flag.Parse()

	cfg := server.Config{
		Cores:         *cores,
		Period:        *period,
		Accel:         *accel,
		Oversubscribe: *oversub,
		Shards:        *shards,
		TickWorkers:   *tickWorkers,
		DataDir:       *dataDir,
		SnapshotEvery: *snapEvery,
		BeatTimeout:   *beatTimeout,
	}
	if *chips != 0 {
		params := angstrom.DefaultParams()
		if *chipMemBW > 0 {
			params.MemBandwidthBps = *chipMemBW * 1e9
		}
		cc := &server.ChipConfig{
			Chips:           *chips,
			Tiles:           *chipTiles,
			PowerBudgetW:    *chipPower,
			MigrateSlowdown: *migrateSlowdown,
			Params:          &params,
		}
		cfg.Chip = cc
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		ri := d.RecoveryInfo()
		log.Printf("angstromd: restored %d apps from %s (snapshot %d + %d journal records, %d bytes torn tail repaired)",
			ri.Apps, *dataDir, ri.SnapshotSeq, ri.ReplayedRecords, ri.TruncatedBytes)
		if len(ri.DroppedSegments) > 0 || ri.BadRecords > 0 {
			log.Printf("angstromd: WARNING: recovery dropped %d segments, skipped %d undecodable records",
				len(ri.DroppedSegments), ri.BadRecords)
		}
	}
	d.Start()

	var ws *server.WireServer
	if *beatListen != "" {
		ln, err := net.Listen("tcp", *beatListen)
		if err != nil {
			log.Fatal(err)
		}
		ws = server.NewWireServer(d, ln)
		go func() {
			if err := ws.Serve(); err != nil {
				log.Printf("angstromd: wire: %v", err)
			}
		}()
		log.Printf("angstromd: binary beat wire protocol on %s", ln.Addr())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	if sts := d.ChipStatuses(); len(sts) == 1 {
		log.Printf("angstromd: chip-backed (%d tiles, budget %gW)", sts[0].Tiles, sts[0].PowerBudgetW)
	} else if len(sts) > 1 {
		log.Printf("angstromd: chip fleet (%d dies × %d tiles, budget %gW/die)",
			len(sts), sts[0].Tiles, sts[0].PowerBudgetW)
	}
	log.Printf("angstromd: serving on %s (cores=%d period=%s accel=%g oversubscribe=%v shards=%d)",
		*addr, *cores, *period, *accel, *oversub, d.Stats().Shards)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// Drain: the HTTP server has stopped accepting. Close the wire
	// listener first so every connection's pending counter deltas land in
	// the daemon before the final tick and snapshot, then finish the
	// in-flight tick, flush a final snapshot, and close the journal.
	if ws != nil {
		if err := ws.Close(); err != nil {
			log.Printf("angstromd: wire close: %v", err)
		}
	}
	if err := d.Close(); err != nil {
		log.Printf("angstromd: drain: %v", err)
	}
	stats := d.Stats()
	log.Printf("angstromd: stopped after %d ticks, %d beats, %d decisions",
		stats.Ticks, stats.Beats, stats.Decisions)
}
