package server

import (
	"bytes"
	"io"
	"testing"

	"angstrom/internal/journal"
)

// FuzzWireFrame throws arbitrary byte streams at the binary beat
// decoder: torn frames, corrupt CRCs, hostile length prefixes and
// counts, timestamp overflow, interleaved valid traffic. The decoder
// must never panic, must fail the stream fast on the first bad frame,
// and must leave the daemon healthy with its fleet beat total equal to
// what the connections acknowledged ingesting. The
// committed seed corpus lives in testdata/fuzz/FuzzWireFrame
// (regenerable with `go run internal/server/testdata/gen_wire_corpus.go`);
// CI replays it on every `go test` pass, `go test -fuzz=FuzzWireFrame`
// explores from it.
func FuzzWireFrame(f *testing.F) {
	d, _ := fuzzDaemon(f)
	// Inline structural seeds; the committed corpus carries the richer
	// protocol streams (valid hello+beats+flush sessions and their
	// corruptions).
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x00, 0x00})                        // torn header
	f.Add(journal.AppendFrame(nil, []byte{wireOpFlush}))   // lone flush
	f.Add(journal.AppendFrame(nil, []byte{wireOpHello}))   // short hello
	f.Add(journal.AppendFrame(nil, nil))                   // empty payload
	f.Add(journal.AppendFrame(nil, []byte{0x7f, 1, 2, 3})) // unknown opcode

	var iters int
	var ingested uint64 // sum of every connection's ingested total
	f.Fuzz(func(t *testing.T, stream []byte) {
		wc := newWireConn(d, bytes.NewReader(stream), io.Discard)
		err := wc.run()
		if err == nil {
			t.Fatal("run() returned nil; a finite stream must end in io.EOF or a rejection")
		}
		wc.flushCounters()
		// With every delta flushed and no concurrent writers, the fleet
		// total is exactly what the connections ingested (the daemon's
		// only app is advisory, so no tick emits beats).
		ingested += wc.total
		if st := d.Stats(); st.Beats != ingested {
			t.Fatalf("counters diverged: Stats.Beats=%d, connections ingested %d", st.Beats, ingested)
		}
		if iters++; iters%64 == 0 {
			d.Tick()
		}
		checkDaemonHealthy(t, d, 200)
	})
}
