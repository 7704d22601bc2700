package server

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"angstrom/internal/journal"
)

// Unit tests for the binary beat wire protocol: handshake, batch
// placement, the fail-fast error contract, and counter accounting.
// The JSON-equivalence property harness lives in wire_equiv_test.go.

// wireFixture is a daemon plus a served wire listener and one client.
type wireFixture struct {
	d  *Daemon
	ws *WireServer
	wc *WireClient
}

func newWireFixture(t *testing.T, cfg Config, apps ...string) *wireFixture {
	t.Helper()
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range apps {
		if err := d.Enroll(EnrollRequest{Name: name, Mode: ModeAdvisory, MinRate: 10, MaxRate: 20}); err != nil {
			t.Fatal(err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(d, ln)
	go ws.Serve()
	wc, err := DialWire(ln.Addr().String())
	if err != nil {
		ws.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		wc.Close()
		ws.Close()
	})
	return &wireFixture{d: d, ws: ws, wc: wc}
}

func advisoryCfg() Config {
	return Config{Cores: 64, Accel: 0.5, Period: time.Hour, Oversubscribe: true, Shards: 4, TickWorkers: 2}
}

func TestWireHelloBeatsFlush(t *testing.T) {
	fx := newWireFixture(t, advisoryCfg(), "alpha", "beta")
	h1, err := fx.wc.Hello("alpha")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := fx.wc.Hello("beta")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != 0 || h2 != 1 {
		t.Fatalf("handles = %d, %d; want sequential 0, 1", h1, h2)
	}
	for i := 0; i < 10; i++ {
		if err := fx.wc.Beats(h1, 7, 0); err != nil {
			t.Fatal(err)
		}
		if err := fx.wc.Beats(h2, 3, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	total, err := fx.wc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Fatalf("flush total = %d, want 100", total)
	}
	st := fx.d.Stats()
	if st.Beats != 100 {
		t.Fatalf("Stats.Beats = %d after flush barrier, want 100", st.Beats)
	}
	if st.WireFrames != 20 {
		t.Fatalf("Stats.WireFrames = %d, want 20", st.WireFrames)
	}
	if st.WireConns != 1 {
		t.Fatalf("Stats.WireConns = %d, want 1", st.WireConns)
	}
	if got, _ := fx.d.Status("alpha"); got.Observation.Beats != 70 {
		t.Fatalf("alpha beats = %d, want 70", got.Observation.Beats)
	}
	if got, _ := fx.d.Status("beta"); got.Observation.Beats != 30 {
		t.Fatalf("beta beats = %d, want 30", got.Observation.Beats)
	}
}

// TestWireBeatsTSMatchesBeatTimestamps drives the same nanosecond
// schedule through the wire decoder and through the JSON-path
// BeatTimestamps entry point on a twin daemon: the monitors must end
// byte-identical (the window includes exact float timestamps).
func TestWireBeatsTSMatchesBeatTimestamps(t *testing.T) {
	fx := newWireFixture(t, advisoryCfg(), "a")
	ctl, err := NewDaemon(advisoryCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Enroll(EnrollRequest{Name: "a", Mode: ModeAdvisory, MinRate: 10, MaxRate: 20}); err != nil {
		t.Fatal(err)
	}
	h, err := fx.wc.Hello("a")
	if err != nil {
		t.Fatal(err)
	}
	ns := []uint64{0, 0, 1, 1_000_000, 999_999_999, 1_000_000_000, 5_500_000_000, 5_500_000_000}
	ts := make([]float64, len(ns))
	for i, v := range ns {
		ts[i] = float64(v) / 1e9
	}
	if err := fx.wc.BeatsAt(h, ns, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.wc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.BeatTimestamps("a", ts, 0.5); err != nil {
		t.Fatal(err)
	}
	aw, _ := fx.d.lookup("a")
	ac, _ := ctl.lookup("a")
	got, want := aw.mon.Window(), ac.mon.Window()
	if len(got) != len(want) {
		t.Fatalf("window sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("window[%d] differs:\n  wire: %+v\n  json: %+v", i, got[i], want[i])
		}
	}
}

// TestWireFailFast exercises the error contract: each bad stream gets
// an error frame whose message matches, and the connection is closed.
func TestWireFailFast(t *testing.T) {
	rawFrame := func(payload []byte) []byte { return journal.AppendFrame(nil, payload) }
	beatsPayload := func(handle, count uint32) []byte {
		p := []byte{wireOpBeats}
		p = binary.LittleEndian.AppendUint32(p, handle)
		p = binary.LittleEndian.AppendUint32(p, count)
		p = binary.LittleEndian.AppendUint64(p, 0)
		return p
	}
	cases := []struct {
		name string
		raw  func(t *testing.T, fx *wireFixture) []byte // bytes to write verbatim
		want string
	}{
		{"unknown opcode", func(t *testing.T, fx *wireFixture) []byte {
			return rawFrame([]byte{0x7e})
		}, "unknown wire opcode"},
		{"empty payload", func(t *testing.T, fx *wireFixture) []byte {
			return rawFrame(nil)
		}, "malformed wire frame"},
		{"bad crc", func(t *testing.T, fx *wireFixture) []byte {
			f := rawFrame([]byte{wireOpFlush})
			f[len(f)-1] ^= 0xff
			return f
		}, "checksum mismatch"},
		{"oversized length prefix", func(t *testing.T, fx *wireFixture) []byte {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:4], MaxWireFrame+1)
			return hdr[:]
		}, "exceeds MaxWireFrame"},
		{"hello for unknown app", func(t *testing.T, fx *wireFixture) []byte {
			p := []byte{wireOpHello, WireVersion}
			p = binary.LittleEndian.AppendUint16(p, 5)
			return rawFrame(append(p, "ghost"...))
		}, "not enrolled"},
		{"hello bad version", func(t *testing.T, fx *wireFixture) []byte {
			p := []byte{wireOpHello, 99}
			p = binary.LittleEndian.AppendUint16(p, 1)
			return rawFrame(append(p, 'a'))
		}, "unsupported wire protocol version"},
		{"beats unknown handle", func(t *testing.T, fx *wireFixture) []byte {
			return rawFrame(beatsPayload(42, 1))
		}, "unknown wire handle"},
		{"beats zero count", func(t *testing.T, fx *wireFixture) []byte {
			helloWire(t, fx.wc, "a")
			return rawFrame(beatsPayload(0, 0))
		}, "outside [1, 10000]"},
		{"beats count over batch cap", func(t *testing.T, fx *wireFixture) []byte {
			helloWire(t, fx.wc, "a")
			return rawFrame(beatsPayload(0, MaxBeatBatch+1))
		}, "outside [1, 10000]"},
		{"beatsTS trailing bytes", func(t *testing.T, fx *wireFixture) []byte {
			helloWire(t, fx.wc, "a")
			p := []byte{wireOpBeatsTS}
			p = binary.LittleEndian.AppendUint32(p, 0)
			p = binary.LittleEndian.AppendUint32(p, 1)
			p = binary.LittleEndian.AppendUint64(p, 0)
			p = binary.AppendUvarint(p, 1e9)
			p = append(p, 0xAB) // junk after the last timestamp
			return rawFrame(p)
		}, "trailing bytes"},
		{"beatsTS overflow", func(t *testing.T, fx *wireFixture) []byte {
			helloWire(t, fx.wc, "a")
			p := []byte{wireOpBeatsTS}
			p = binary.LittleEndian.AppendUint32(p, 0)
			p = binary.LittleEndian.AppendUint32(p, 2)
			p = binary.LittleEndian.AppendUint64(p, 0)
			p = binary.AppendUvarint(p, 1<<63)
			p = binary.AppendUvarint(p, 1<<63)
			return rawFrame(p)
		}, "overflows uint64"},
		{"beats NaN distortion", func(t *testing.T, fx *wireFixture) []byte {
			helloWire(t, fx.wc, "a")
			p := []byte{wireOpBeats}
			p = binary.LittleEndian.AppendUint32(p, 0)
			p = binary.LittleEndian.AppendUint32(p, 1)
			p = binary.LittleEndian.AppendUint64(p, 0x7ff8000000000001) // NaN bits
			return rawFrame(p)
		}, "distortion"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newWireFixture(t, advisoryCfg(), "a")
			raw := tc.raw(t, fx)
			fx.wc.mu.Lock()
			_, werr := fx.wc.bw.Write(raw)
			if werr == nil {
				werr = fx.wc.bw.Flush()
			}
			fx.wc.mu.Unlock()
			if werr != nil {
				t.Fatal(werr)
			}
			_, err := fx.wc.Flush()
			if err == nil {
				t.Fatal("flush after poisoned stream succeeded; want error frame")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			// Fail-fast: the server closed the conn; a fresh write fails.
			if _, err := fx.wc.Flush(); err == nil {
				t.Fatal("connection still usable after error frame")
			}
		})
	}
}

// helloWire registers name and fails the test on error.
func helloWire(t *testing.T, wc *WireClient, name string) uint32 {
	t.Helper()
	h, err := wc.Hello(name)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestWireChipBackedRefused(t *testing.T) {
	cfg := advisoryCfg()
	cfg.Chip = &ChipConfig{Tiles: 16}
	d, err := NewDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Enroll(EnrollRequest{Name: "hw", MinRate: 10, MaxRate: 20}); err != nil {
		t.Fatal(err)
	}
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
	if _, err := wc.Hello("hw"); err == nil || !strings.Contains(err.Error(), "chip-backed") {
		t.Fatalf("hello to chip-backed app = %v; want chip-backed refusal", err)
	}
}

// TestWireWithdrawnHandleFails: handles resolve through the directory
// per batch, so a withdrawn app's handle poisons the stream instead of
// writing into a dead monitor.
func TestWireWithdrawnHandleFails(t *testing.T) {
	fx := newWireFixture(t, advisoryCfg(), "gone")
	h := helloWire(t, fx.wc, "gone")
	if err := fx.wc.Beats(h, 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.wc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fx.d.Withdraw("gone"); err != nil {
		t.Fatal(err)
	}
	if err := fx.wc.Beats(h, 5, 0); err != nil {
		t.Fatal(err) // buffered, unacknowledged
	}
	if _, err := fx.wc.Flush(); err == nil || !strings.Contains(err.Error(), "not enrolled") {
		t.Fatalf("beat to withdrawn app = %v; want not-enrolled rejection", err)
	}
}

// TestWireConnCloseFlushesDeltas: a connection that dies without a
// flush barrier still publishes its pending deltas on teardown.
func TestWireConnCloseFlushesDeltas(t *testing.T) {
	fx := newWireFixture(t, advisoryCfg(), "a")
	h := helloWire(t, fx.wc, "a")
	// 10 beats: far below wireFlushBeats, so they sit in the conn delta.
	if err := fx.wc.Beats(h, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := fx.wc.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is async from the server's perspective; wait for the handler
	// to drain and publish.
	deadline := time.Now().Add(5 * time.Second)
	for fx.d.Stats().Beats != 10 || fx.d.Stats().WireConns != 0 {
		if time.Now().After(deadline) {
			st := fx.d.Stats()
			t.Fatalf("conn teardown did not reconcile: beats=%d conns=%d", st.Beats, st.WireConns)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireServerClose: Close unblocks Serve, kills live conns, and a
// client's next barrier fails cleanly.
func TestWireServerClose(t *testing.T) {
	fx := newWireFixture(t, advisoryCfg(), "a")
	if err := fx.ws.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.wc.Flush(); err == nil {
		t.Fatal("flush succeeded against a closed wire server")
	}
	fx.wc.mu.Lock()
	latched := fx.wc.err
	fx.wc.mu.Unlock()
	if latched == nil {
		t.Fatal("client error not latched after server close")
	}
}

// TestWireTornHeaderRejected: a stream ending mid-header is a malformed
// stream (covered too by FuzzWireFrame, but pinned here explicitly).
func TestWireTornHeaderRejected(t *testing.T) {
	d, err := NewDaemon(advisoryCfg())
	if err != nil {
		t.Fatal(err)
	}
	wc := newWireConn(d, strings.NewReader("\x03\x00\x00"), io.Discard)
	if err := wc.run(); !errors.Is(err, errWireFrame) {
		t.Fatalf("torn header: run() = %v, want errWireFrame", err)
	}
	// A clean EOF at a frame boundary is a clean close.
	wc2 := newWireConn(d, strings.NewReader(""), io.Discard)
	if err := wc2.run(); err != io.EOF {
		t.Fatalf("empty stream: run() = %v, want io.EOF", err)
	}
}
