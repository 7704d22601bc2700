package server

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"

	"angstrom/internal/heartbeat"
	"angstrom/internal/journal"
)

// The binary beat wire protocol: the daemon's high-rate ingestion path.
//
// HTTP/JSON tops out around 40k beats/s per core — the encode/decode
// tax dominates long before the monitor rings do — so high-rate clients
// speak a compact binary protocol over one persistent TCP connection:
// length-prefixed CRC-framed batch frames, identical in shape to the
// journal's WAL frames ([len u32 LE][crc32 u32 LE][payload], CRC-IEEE
// over the length bytes then the payload), decoded into reusable
// per-connection buffers and written into the per-shard heartbeat rings
// through the same ingestSpread/ingestShifted helpers as the JSON API.
// Control plane stays JSON: apps enroll over HTTP, then handshake a
// conn-local handle here and stream beats against it.
//
// Frame payloads (first byte is the opcode; all integers little endian):
//
//	0x01 hello:   ver u8, nameLen u16, name            → 0x81 handle u32
//	0x02 beats:   handle u32, count u32, distortion f64
//	0x03 beatsTS: handle u32, count u32, distortion f64,
//	              count uvarints (first absolute ns, rest ns deltas)
//	0x04 flush:   (empty)                              → 0x84 total u64
//	0xFF error:   msgLen u16, message — sent by the server before close
//
// Beat frames are deliberately unacknowledged; flush is the only
// barrier (it also publishes the connection's pending counter deltas).
// Any malformed frame or rejected batch is fail-fast: the server sends
// one error frame and closes the connection, so a client can never keep
// streaming into a poisoned session.
//
// See docs/API.md "Binary beat wire protocol" for the full contract.

const (
	// WireVersion is the protocol version carried by hello frames.
	WireVersion = 1
	// MaxWireFrame bounds one wire payload. A full MaxBeatBatch
	// timestamped batch needs at most ~10 bytes per uvarint plus the
	// 17-byte batch header — 256 KiB leaves generous slack without
	// letting a hostile length prefix balloon connection buffers.
	MaxWireFrame = 256 << 10
	// maxWireHandles bounds one connection's handle table.
	maxWireHandles = 1 << 16
	// wireFlushBeats is the per-connection delta threshold for the
	// fleet-wide beat total: one atomic add per ~4096 beats instead of
	// per batch. Flush frames and connection close publish the rest.
	wireFlushBeats = 4096
	// wireHeader mirrors the journal's frame header: u32 len + u32 CRC.
	wireHeader = 8
	// maxWireErrMsg truncates error-frame messages.
	maxWireErrMsg = 512
)

// Wire opcodes. Server→client replies set the high bit of the request
// they acknowledge; 0xFF is the terminal error frame.
const (
	wireOpHello   = 0x01
	wireOpBeats   = 0x02
	wireOpBeatsTS = 0x03
	wireOpFlush   = 0x04
	wireOpHelloOK = 0x81
	wireOpFlushOK = 0x84
	wireOpError   = 0xFF
)

// Wire protocol errors. Sentinels, not fmt.Errorf: the decode path is
// hot and annotated allocation-free, and each of these closes the
// connection anyway — the client sees the message in the error frame.
var (
	errWireFrame    = errors.New("server: malformed wire frame")
	errWireOversize = errors.New("server: wire frame exceeds MaxWireFrame")
	errWireCRC      = errors.New("server: wire frame checksum mismatch")
	errWireOpcode   = errors.New("server: unknown wire opcode")
	errWireVersion  = errors.New("server: unsupported wire protocol version")
	errWireHandle   = errors.New("server: unknown wire handle")
	errWireCount    = errors.New("server: wire beat count outside batch bounds")
	errWireVarint   = errors.New("server: malformed wire timestamp varint")
	errWireOverflow = errors.New("server: wire timestamp overflows uint64 nanoseconds")
	errWireTrailing = errors.New("server: trailing bytes after wire batch")
	errWireHandles  = errors.New("server: wire handle table full")
)

// WireServer accepts binary beat-protocol connections for a Daemon.
// One goroutine per connection; Close stops the accept loop, closes
// every live connection, and waits for the handlers to drain (flushing
// their pending counter deltas).
type WireServer struct {
	d  *Daemon
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewWireServer wraps ln; call Serve to begin accepting.
func NewWireServer(d *Daemon, ln net.Listener) *WireServer {
	return &WireServer{d: d, ln: ln, conns: make(map[net.Conn]struct{})}
}

// Addr reports the listener's address.
func (ws *WireServer) Addr() net.Addr { return ws.ln.Addr() }

// Serve accepts connections until Close (returning nil) or a listener
// error (returned).
func (ws *WireServer) Serve() error {
	for {
		c, err := ws.ln.Accept()
		if err != nil {
			ws.mu.Lock()
			closed := ws.closed
			ws.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			c.Close()
			return nil
		}
		ws.conns[c] = struct{}{}
		ws.wg.Add(1)
		ws.mu.Unlock()
		go func() {
			defer ws.wg.Done()
			ws.serveConn(c)
			ws.mu.Lock()
			delete(ws.conns, c)
			ws.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes live connections, and waits for their
// handlers (and final counter flushes) to finish.
func (ws *WireServer) Close() error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		return nil
	}
	ws.closed = true
	for c := range ws.conns {
		c.Close()
	}
	ws.mu.Unlock()
	err := ws.ln.Close()
	ws.wg.Wait()
	return err
}

func (ws *WireServer) serveConn(c net.Conn) {
	d := ws.d
	d.wireConns.Add(1)
	defer d.wireConns.Add(-1)
	wc := newWireConn(d, c, c)
	defer c.Close()
	// Publish whatever the connection still holds, however it ends:
	// the fleet total must reconcile once the conn is gone.
	defer wc.flushCounters()
	if err := wc.run(); err != nil && err != io.EOF {
		wc.sendError(err)
	}
}

// wireConn is one connection's decoder state. All buffers are owned by
// the connection's single handler goroutine and reused frame to frame —
// the warm decode path performs no allocation (gated by
// TestBeatIngestWireAllocatesNothing). The reader and writer are interface-typed
// fields (not the net.Conn) so the fuzz harness can drive the decoder
// from a byte slice, and so the annotated hot path never converts a
// concrete type at a call site.
type wireConn struct {
	d *Daemon
	r io.Reader
	w io.Writer

	names   []string // handle → app name, conn-local, append-only
	hdr     [wireHeader]byte
	payload []byte    // reused frame payload buffer
	scratch []float64 // reused decoded-timestamp buffer
	reply   []byte    // reused framed-reply build buffer

	total   uint64          // conn-lifetime ingested beats (flush ack value)
	beatsD  heartbeat.Delta // pending beat-total delta → d.beats
	framesD heartbeat.Delta // pending frame-count delta → d.wireFrames
}

func newWireConn(d *Daemon, r io.Reader, w io.Writer) *wireConn {
	return &wireConn{
		d: d, r: r, w: w,
		beatsD:  heartbeat.Delta{C: &d.beats, FlushEvery: wireFlushBeats},
		framesD: heartbeat.Delta{C: &d.wireFrames, FlushEvery: 64},
	}
}

// run decodes and dispatches frames until the stream ends (io.EOF) or
// a frame is rejected.
func (wc *wireConn) run() error {
	for {
		p, err := wc.readFrame()
		if err != nil {
			return err
		}
		if err := wc.dispatch(p); err != nil {
			return err
		}
	}
}

// readFrame reads one journal-shaped frame into the connection's
// reused payload buffer. The returned slice is valid until the next
// call.
func (wc *wireConn) readFrame() ([]byte, error) {
	if _, err := io.ReadFull(wc.r, wc.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			// A torn header is a malformed stream, not a clean close.
			return nil, errWireFrame
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(wc.hdr[:4]))
	want := binary.LittleEndian.Uint32(wc.hdr[4:])
	if n > MaxWireFrame {
		return nil, errWireOversize
	}
	if cap(wc.payload) < n {
		wc.payload = make([]byte, n)
	}
	p := wc.payload[:n]
	if _, err := io.ReadFull(wc.r, p); err != nil {
		return nil, errWireFrame
	}
	crc := crc32.ChecksumIEEE(wc.hdr[:4])
	crc = crc32.Update(crc, crc32.IEEETable, p)
	if crc != want {
		return nil, errWireCRC
	}
	return p, nil
}

// dispatch routes one decoded payload by opcode.
//
//angstrom:hotpath
func (wc *wireConn) dispatch(p []byte) error {
	if len(p) == 0 {
		return errWireFrame
	}
	switch p[0] {
	case wireOpBeats:
		return wc.beats(p)
	case wireOpBeatsTS:
		return wc.beatsTS(p)
	case wireOpHello:
		return wc.hello(p)
	case wireOpFlush:
		return wc.flush()
	default:
		return errWireOpcode
	}
}

// beats handles a server-spread batch frame — the protocol's hottest
// opcode: three fixed-field reads, handle resolution, then the same
// shared ingestion helper the JSON path uses.
//
//angstrom:hotpath
func (wc *wireConn) beats(p []byte) error {
	if len(p) != 17 {
		return errWireFrame
	}
	handle := binary.LittleEndian.Uint32(p[1:5])
	count := int(binary.LittleEndian.Uint32(p[5:9]))
	distortion := math.Float64frombits(binary.LittleEndian.Uint64(p[9:17]))
	if uint64(handle) >= uint64(len(wc.names)) {
		return errWireHandle
	}
	a, err := wc.d.beatTarget(wc.names[handle], count, distortion)
	if err != nil {
		return err
	}
	wc.d.ingestSpread(a, count, distortion)
	wc.account(uint64(count))
	return nil
}

// beatsTS handles a timestamped batch frame: count uvarints on a
// nanosecond grid (first absolute, rest deltas), decoded into the
// connection's reused scratch buffer and shifted onto the daemon clock
// by the shared ingestion helper. Unsigned deltas make the sequence
// non-decreasing and finite by construction — the admission rules the
// JSON path enforces by validation.
//
//angstrom:hotpath
func (wc *wireConn) beatsTS(p []byte) error {
	if len(p) < 18 {
		return errWireFrame
	}
	handle := binary.LittleEndian.Uint32(p[1:5])
	count := int(binary.LittleEndian.Uint32(p[5:9]))
	distortion := math.Float64frombits(binary.LittleEndian.Uint64(p[9:17]))
	if uint64(handle) >= uint64(len(wc.names)) {
		return errWireHandle
	}
	if count < 1 || count > MaxBeatBatch {
		return errWireCount
	}
	if count > len(p)-17 {
		// Each timestamp takes at least one uvarint byte; reject before
		// sizing the scratch buffer off a hostile count.
		return errWireFrame
	}
	if cap(wc.scratch) < count {
		//lint:allow hotpath cold branch: scratch grows once per connection to the largest batch seen
		wc.scratch = make([]float64, 0, count)
	}
	ts := wc.scratch[:0]
	off := 17
	var cum uint64
	for i := 0; i < count; i++ {
		v, n := binary.Uvarint(p[off:])
		if n <= 0 {
			return errWireVarint
		}
		off += n
		next := cum + v
		if next < cum {
			return errWireOverflow
		}
		cum = next
		ts = append(ts, float64(cum)/1e9)
	}
	if off != len(p) {
		return errWireTrailing
	}
	a, err := wc.d.beatTarget(wc.names[handle], count, distortion)
	if err != nil {
		return err
	}
	wc.d.ingestShifted(a, ts, distortion)
	wc.account(uint64(count))
	return nil
}

// account tallies one accepted batch into the connection's delta
// counters — the delta-then-atomic-add half of the scaling story: the
// shared fleet total sees one atomic add per flush threshold, not per
// frame.
//
//angstrom:hotpath
func (wc *wireConn) account(count uint64) {
	wc.total += count
	wc.beatsD.Add(count)
	wc.framesD.Add(1)
}

// hello registers an app name and replies with its conn-local handle.
// The app must already be enrolled (control plane is HTTP/JSON) and not
// chip-backed. Handles are sequential indices into the connection's
// name table; per-batch resolution still goes through the directory, so
// a handle for a withdrawn app fails the next batch instead of writing
// into a dead monitor.
func (wc *wireConn) hello(p []byte) error {
	if len(p) < 4 {
		return errWireFrame
	}
	if p[1] != WireVersion {
		return errWireVersion
	}
	n := int(binary.LittleEndian.Uint16(p[2:4]))
	if n == 0 || len(p) != 4+n {
		return errWireFrame
	}
	name := string(p[4:])
	if _, err := wc.d.beatTarget(name, 1, 0); err != nil {
		return err
	}
	if len(wc.names) >= maxWireHandles {
		return errWireHandles
	}
	wc.names = append(wc.names, name)
	var buf [5]byte
	buf[0] = wireOpHelloOK
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(wc.names)-1))
	return wc.writeFrame(buf[:])
}

// flush is the protocol's barrier: publish the connection's pending
// counter deltas, then ack with the conn-lifetime ingested total. When
// the client reads the ack, every prior batch on this connection is in
// the monitors and the shared counters.
func (wc *wireConn) flush() error {
	wc.flushCounters()
	var buf [9]byte
	buf[0] = wireOpFlushOK
	binary.LittleEndian.PutUint64(buf[1:], wc.total)
	return wc.writeFrame(buf[:])
}

func (wc *wireConn) flushCounters() {
	wc.beatsD.Flush()
	wc.framesD.Flush()
}

func (wc *wireConn) writeFrame(payload []byte) error {
	wc.reply = journal.AppendFrame(wc.reply[:0], payload)
	_, err := wc.w.Write(wc.reply)
	return err
}

// sendError best-effort writes the terminal error frame; the connection
// closes right after, so write failures are ignored.
func (wc *wireConn) sendError(err error) {
	msg := err.Error()
	if len(msg) > maxWireErrMsg {
		msg = msg[:maxWireErrMsg]
	}
	p := make([]byte, 3+len(msg))
	p[0] = wireOpError
	binary.LittleEndian.PutUint16(p[1:3], uint16(len(msg)))
	copy(p[3:], msg)
	_ = wc.writeFrame(p)
}
