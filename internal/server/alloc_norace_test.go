//go:build !race

// The race detector makes sync.Pool.Put drop items at random, so the
// journal's pooled record buffers allocate under -race by design.

package server

import (
	"fmt"
	"runtime/debug"
	"testing"
	"time"

	"angstrom/internal/journal"
)

// discardFS is a journal filesystem whose files keep nothing, so the
// durable-ingest contract measures the append path, not a file growing
// in memory.
type discardFS struct{ journal.FS }

func (discardFS) Create(string) (journal.File, error) { return discardFile{}, nil }

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

// Daemon.Beat with the journal on encodes one binary record into a
// recycled buffer and appends it to the group-commit buffer: no
// allocation per beat (BenchmarkBeatIngestDurable). The benchmark's
// 5 ms background flusher is replaced by explicit drains — a committed
// control record carries the buffered tail to disk — because when the
// flusher runs decides how large the two group-commit buffers grow.
// A collection empties every sync.Pool and the next Put re-allocates
// the pool's per-P slots, so the measured run holds the collector off.
func TestBeatIngestDurableAllocatesNothing(t *testing.T) {
	const n = 4096
	d, err := NewDaemon(Config{
		Cores: 4096, Accel: 0.1, Period: time.Hour,
		DataDir: "j", FS: discardFS{journal.NewMemFS()}, SnapshotEvery: -1, JournalFlush: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("app-%04d", i)
		if err := d.Enroll(EnrollRequest{Name: names[i], Mode: ModeAdvisory, MinRate: 50, MaxRate: 70}); err != nil {
			t.Fatal(err)
		}
	}
	beats := func(k int) {
		for i := 0; i < k && err == nil; i++ {
			err = d.Beat(names[i%len(names)], 10, 0)
		}
	}
	// Grow both group-commit buffers (each drain swaps them) to hold
	// allocsOf's six calls of n beats with no drain in between.
	for range 2 {
		beats(8 * n)
		if err == nil {
			err = d.SetGoal(names[0], 50, 70)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := allocsOf(func() { beats(n) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%d durable beats allocated %g objects, want 0", n, allocs)
	}
	if dropped := d.Stats().Journal.DroppedRecords; dropped != 0 {
		t.Fatalf("journal dropped %d records", dropped)
	}
}
