package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"

	"angstrom/internal/journal"
)

// WireClient speaks the client side of the binary beat protocol (see
// wire.go and docs/API.md): Hello handshakes resolve enrolled app names
// to conn-local handles, Beats/BeatsAt append unacknowledged batch
// frames to an internal write buffer, and Flush is the only barrier —
// it pushes the buffer, waits for the server's ack, and returns the
// connection-lifetime ingested count. Many app goroutines may share one
// client (the intended shape: one persistent connection multiplexing a
// process's apps); all methods serialize on an internal mutex.
//
// Errors are fail-fast and latched: the server answers a rejected frame
// with one error frame and closes the connection, so the first failure
// poisons the client and every later call returns it.
type WireClient struct {
	mu    sync.Mutex
	c     net.Conn
	bw    *bufio.Writer
	fr    *journal.FrameReader // reply frames
	enc   []byte               // reused payload build buffer
	frame []byte               // reused framed-bytes build buffer
	err   error                // first fatal error, latched
}

// DialWire connects to a daemon's -beat-listen address.
func DialWire(addr string) (*WireClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewWireClient(c), nil
}

// NewWireClient wraps an established connection.
func NewWireClient(c net.Conn) *WireClient {
	return &WireClient{c: c, bw: bufio.NewWriterSize(c, 64<<10), fr: journal.NewFrameReader(bufio.NewReader(c), MaxWireFrame)}
}

// Hello resolves an enrolled app name to a handle for this connection.
// It flushes buffered frames and round-trips.
func (w *WireClient) Hello(name string) (uint32, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if len(name) == 0 || len(name) > math.MaxUint16 {
		return 0, errors.New("wire: app name length unsupported")
	}
	p := append(w.enc[:0], wireOpHello, WireVersion)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(name)))
	p = append(p, name...)
	w.enc = p
	if err := w.writeLocked(p); err != nil {
		return 0, err
	}
	reply, err := w.roundTripLocked(wireOpHelloOK)
	if err != nil {
		return 0, err
	}
	if len(reply) != 5 {
		return 0, w.fatal(errors.New("wire: malformed hello ack"))
	}
	return binary.LittleEndian.Uint32(reply[1:]), nil
}

// Beats appends a server-spread batch frame: count beats for handle,
// the last carrying distortion. The frame is buffered and
// unacknowledged; transport or rejection errors surface on the next
// barrier (Flush/Hello) or, for earlier failures, immediately.
func (w *WireClient) Beats(handle uint32, count int, distortion float64) error {
	if count < 1 || count > MaxBeatBatch {
		return fmt.Errorf("wire: beat count %d outside [1, %d]", count, MaxBeatBatch)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	p := append(w.enc[:0], wireOpBeats)
	p = binary.LittleEndian.AppendUint32(p, handle)
	p = binary.LittleEndian.AppendUint32(p, uint32(count))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(distortion))
	w.enc = p
	return w.writeLocked(p)
}

// BeatsAt appends a timestamped batch frame. ns holds absolute
// non-decreasing nanosecond timestamps in any epoch (a client monotonic
// clock, Unix nanos): like the JSON timestamps field, only their
// spacing matters — the server shifts the batch so its last beat lands
// at the daemon clock's current time. On the wire the batch is
// delta-encoded: the first uvarint is ns[0], each later one the gap to
// its predecessor.
func (w *WireClient) BeatsAt(handle uint32, ns []uint64, distortion float64) error {
	if len(ns) < 1 || len(ns) > MaxBeatBatch {
		return fmt.Errorf("wire: beat count %d outside [1, %d]", len(ns), MaxBeatBatch)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	p := append(w.enc[:0], wireOpBeatsTS)
	p = binary.LittleEndian.AppendUint32(p, handle)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(ns)))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(distortion))
	prev := uint64(0)
	for i, t := range ns {
		if i == 0 {
			p = binary.AppendUvarint(p, t)
		} else {
			if t < prev {
				return fmt.Errorf("wire: timestamps decrease at index %d (%d after %d)", i, t, prev)
			}
			p = binary.AppendUvarint(p, t-prev)
		}
		prev = t
	}
	w.enc = p
	return w.writeLocked(p)
}

// Flush writes buffered frames and waits for the server's ack — the
// protocol's only barrier. When it returns, every prior batch on this
// connection has been ingested and the daemon's shared counters include
// them. The result is the connection-lifetime ingested beat count.
func (w *WireClient) Flush() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	p := append(w.enc[:0], wireOpFlush)
	w.enc = p
	if err := w.writeLocked(p); err != nil {
		return 0, err
	}
	reply, err := w.roundTripLocked(wireOpFlushOK)
	if err != nil {
		return 0, err
	}
	if len(reply) != 9 {
		return 0, w.fatal(errors.New("wire: malformed flush ack"))
	}
	return binary.LittleEndian.Uint64(reply[1:]), nil
}

// Close flushes the write buffer (best effort) and closes the
// connection.
func (w *WireClient) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		_ = w.bw.Flush()
	}
	return w.c.Close()
}

func (w *WireClient) writeLocked(payload []byte) error {
	w.frame = journal.AppendFrame(w.frame[:0], payload)
	if _, err := w.bw.Write(w.frame); err != nil {
		return w.fatal(err)
	}
	return nil
}

func (w *WireClient) roundTripLocked(want byte) ([]byte, error) {
	if err := w.bw.Flush(); err != nil {
		return nil, w.fatal(err)
	}
	reply, err := w.fr.Next()
	if err != nil {
		return nil, w.fatal(wireFrameErr(err))
	}
	if len(reply) == 0 {
		return nil, w.fatal(errors.New("wire: empty reply frame"))
	}
	if reply[0] == wireOpError {
		if len(reply) >= 3 {
			if n := int(binary.LittleEndian.Uint16(reply[1:3])); 3+n <= len(reply) {
				return nil, w.fatal(fmt.Errorf("wire: server rejected: %s", reply[3:3+n]))
			}
		}
		return nil, w.fatal(errors.New("wire: server rejected the stream"))
	}
	if reply[0] != want {
		return nil, w.fatal(fmt.Errorf("wire: unexpected reply opcode %#02x", reply[0]))
	}
	return reply, nil
}

func (w *WireClient) fatal(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}
