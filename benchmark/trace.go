package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"angstrom/internal/actuator"
	"angstrom/internal/journal"
)

// The traced pass. Nothing inside the daemon may change for this
// benchmark, so every per-layer number is taken from outside: spans are
// recorded around the calls the benchmark itself makes into a layer,
// and three seams the daemon already exports are wrapped — the
// journal's filesystem (server.Config.FS), each partition's hardware
// knobs (server.ChipConfig.KnobWrap) and the transports' listeners.
// All of it is off in the untraced pass that yields the end-to-end
// numbers; a nil *tracer turns every method below into a no-op.

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer's epoch; Parent is the span that caused it (0 for a
// root) and Req ties the spans of one client request together.
type span struct {
	Name       string
	ID, Parent uint64
	Req        uint64
	Start, End int64
	// N annotates an aggregate span with the number of operations it
	// stands for (knob moves inside a tick); 0 otherwise.
	N int64
}

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	// inFlight is the tick or control call currently running on the tick
	// goroutine. Seam spans (journal writes and syncs) are parented to it:
	// the seams fire on whatever goroutine the daemon chose, so this is
	// the only causal link visible from outside.
	inFlight atomic.Uint64

	mu     sync.Mutex
	shared []span     // spans recorded from the seams
	bufs   []*spanBuf // one per recording goroutine
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's private span log (no lock on the request
// path). A nil buffer records nothing.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and marks it in flight; end closes it with the
// start time its caller took. Used on the tick goroutine only.
func (b *spanBuf) begin() (id uint64) {
	if b == nil {
		return 0
	}
	id = b.t.nextID.Add(1)
	b.t.inFlight.Store(id)
	return id
}

func (b *spanBuf) end(name string, id uint64, start time.Time, n int64) {
	if b == nil {
		return
	}
	b.t.inFlight.Store(0)
	b.spans = append(b.spans, span{Name: name, ID: id, Start: int64(start.Sub(b.t.epoch)), End: int64(time.Since(b.t.epoch)), N: n})
}

// add records a finished request span measured by the caller.
func (b *spanBuf) add(name string, start time.Time, d time.Duration, req uint64) {
	if b == nil {
		return
	}
	s := int64(start.Sub(b.t.epoch))
	b.spans = append(b.spans, span{Name: name, ID: b.t.nextID.Add(1), Req: req, Start: s, End: s + int64(d)})
}

// seam records a span from a wrapped seam, parented to the call in
// flight on the tick goroutine, if any.
func (t *tracer) seam(name string, start time.Time, d time.Duration) {
	s := int64(start.Sub(t.epoch))
	sp := span{Name: name, ID: t.nextID.Add(1), Parent: t.inFlight.Load(), Start: s, End: s + int64(d)}
	t.mu.Lock()
	t.shared = append(t.shared, sp)
	t.mu.Unlock()
}

// all returns every recorded span ordered by start time. Call after the
// recording goroutines have stopped.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.shared...)
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// layerTime is one span name's total and self time.
type layerTime struct {
	Count      int
	TotalNS    int64
	SelfNS     int64
	Operations int64
}

// selfTimes sums, per span name, the time spent in the span itself: its
// duration minus the part of that interval its child spans cover
// (children may overlap each other — a sync and a write on two
// goroutines — so the covered part is the union, not the sum).
func selfTimes(spans []span) map[string]*layerTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		covered, edge := int64(0), s.Start
		for _, c := range children[s.ID] { // already in start order
			from, to := max(c.Start, edge), min(c.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		lt.Count++
		lt.TotalNS += dur
		lt.SelfNS += dur - covered
		lt.Operations += s.N
	}
	return out
}

// maxRequestSpans bounds how many client-request spans trace.json keeps
// (every n-th is written once there are more); ticks, control calls,
// boots and seam spans are always written in full.
const maxRequestSpans = 20000

// writeTrace writes the spans and their per-name summary as JSON.
func writeTrace(path, workload string, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriter(f)
	requests := 0
	for _, s := range spans {
		if s.Req != 0 {
			requests++
		}
	}
	every := 1 + requests/maxRequestSpans
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns since trace start\",\"request_spans_written_1_in\":%d,\n\"summary\":{", workload, seed, every)
	times := selfTimes(spans)
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		lt := times[n]
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n%q:{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"operations\":%d}", n, lt.Count, lt.TotalNS, lt.SelfNS, lt.Operations)
	}
	w.WriteString("},\n\"spans\":[")
	first, seen := true, 0
	for _, s := range spans {
		if s.Req != 0 {
			seen++
			if seen%every != 0 {
				continue
			}
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%q,\"id\":%d,\"parent\":%d,\"req\":%d,\"start\":%d,\"end\":%d,\"n\":%d}", s.Name, s.ID, s.Parent, s.Req, s.Start, s.End, s.N)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// --- seam: the journal's filesystem ----------------------------------

// fsStats accumulates what the journal did to its filesystem.
type fsStats struct {
	tr *tracer

	mu     sync.Mutex
	bytes  int64
	writes int64
	busy   time.Duration
	syncs  samples
}

// fsMark is a reading of the counters, for window deltas.
type fsMark struct {
	bytes, writes int64
	busy          time.Duration
	syncs         int
}

func (s *fsStats) mark() fsMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fsMark{bytes: s.bytes, writes: s.writes, busy: s.busy, syncs: s.syncs.len()}
}

// syncsBetween copies the sync durations recorded between two marks.
func (s *fsStats) syncsBetween(a, b fsMark) *samples {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &samples{ns: append([]int64(nil), s.syncs.ns[a.syncs:b.syncs]...)}
}

// timedFS wraps the journal's filesystem so every Write and Sync on the
// files it opens is timed and counted.
type timedFS struct {
	journal.FS
	st *fsStats
}

func (t timedFS) OpenAppend(name string) (journal.File, error) {
	f, err := t.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, st: t.st}, nil
}

func (t timedFS) Create(name string) (journal.File, error) {
	f, err := t.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: f, st: t.st}, nil
}

type timedFile struct {
	journal.File
	st *fsStats
}

func (f timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(start)
	f.st.mu.Lock()
	f.st.bytes += int64(n)
	f.st.writes++
	f.st.busy += d
	f.st.mu.Unlock()
	f.st.tr.seam("journal.fs.write", start, d)
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.st.mu.Lock()
	f.st.busy += d
	f.st.syncs.add(d)
	f.st.mu.Unlock()
	f.st.tr.seam("journal.fs.sync", start, d)
	return err
}

// --- seam: the partitions' hardware knobs ----------------------------

// knobCounts counts actuation reaching the chip model: calls are
// SetLevel invocations on a raw knob, moves the ones that changed its
// level, refusals the ones the chip rejected. Counts only — a clock
// read per call would cost more than the call.
type knobCounts struct {
	calls, moves, refusals atomic.Int64
}

type countingKnob struct {
	actuator.Knob
	c *knobCounts
}

func (k countingKnob) SetLevel(level int) error {
	before := k.Knob.Level()
	err := k.Knob.SetLevel(level)
	k.c.calls.Add(1)
	if err != nil {
		k.c.refusals.Add(1)
	} else if k.Knob.Level() != before {
		k.c.moves.Add(1)
	}
	return err
}

// --- seam: the transports' listeners ---------------------------------

// wireBytes counts the bytes clients send into a listener's connections
// (replies are a few acknowledgement frames).
type wireBytes struct {
	in atomic.Int64
}

type countingListener struct {
	net.Listener
	b *wireBytes
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, b: l.b}, nil
}

type countingConn struct {
	net.Conn
	b *wireBytes
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.b.in.Add(int64(n))
	return n, err
}
