// Package journal is the serving daemon's durability layer: a
// write-ahead log of control-plane mutations plus periodic atomic
// snapshots, so an angstromd restart (or crash) restores its enrolled
// fleet instead of forgetting it.
//
// The log is a sequence of frames, each `[len u32][crc32 u32][payload]`
// (little-endian; the IEEE CRC covers the length and the payload), laid
// down in segment files named wal-<start>.log where <start> is the
// sequence number of the segment's first record. Writers batch appends
// in memory and make them durable with one fsync per batch — group
// commit: every record appended while a sync is in flight rides the
// next one, so N concurrent control mutations cost one disk flush, not
// N. Snapshots are single-frame files written to a temp name and
// renamed into place (snap-<seq>.snap), each one a compaction point:
// after a snapshot at sequence K, segments before K are pruned.
//
// Recovery (Recover) walks the newest valid snapshot plus the segment
// chain after it, validating every frame and truncating a torn or
// corrupt tail instead of failing — a crash mid-write loses at most the
// records that were never acknowledged as committed. The FS interface
// abstracts the filesystem so tests inject write/fsync failures and
// take crash-consistent images at every commit boundary.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrFailed marks a journal whose disk has failed: the first write or
// sync error latches the writer into a failed state, and every
// subsequent operation reports it (wrapped) so the daemon can degrade
// instead of silently losing durability.
var ErrFailed = errors.New("journal failed")

const (
	// frameHeader is the per-frame overhead: u32 length + u32 CRC.
	frameHeader = 8
	// MaxFrame bounds one payload; a longer length prefix marks a
	// corrupt frame during recovery.
	MaxFrame = 16 << 20
)

// AppendFrame appends one framed payload to dst and returns it.
//
// This is the journal's 0-alloc gated path (BenchmarkJournalAppend):
// every live mutation and every beat frames a record through it.
//
//angstrom:hotpath
func AppendFrame(dst, payload []byte) []byte {
	// The header is built in place in dst (not a local array) so nothing
	// escapes into a per-call heap allocation: appending a record to a
	// warm buffer is allocation-free.
	off := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[off+4:], frameCRC(dst[off:off+4], payload))
	return append(dst, payload...)
}

// frameCRC is a frame's checksum: the IEEE CRC of its length prefix,
// then its payload.
//
//angstrom:hotpath
func frameCRC(lenPrefix, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(lenPrefix), crc32.IEEETable, payload)
}

// Scan parses a frame sequence, returning the payloads of every valid
// frame and the byte offset where the valid prefix ends (== len(buf)
// when the buffer is clean). Anything after the first short, oversized,
// or checksum-failing frame is a torn tail to truncate. The payloads
// alias buf.
func Scan(buf []byte) (payloads [][]byte, valid int) {
	off := 0
	for {
		rest := len(buf) - off
		if rest < frameHeader {
			return payloads, off
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		want := binary.LittleEndian.Uint32(buf[off+4:])
		if n > MaxFrame || rest-frameHeader < n {
			return payloads, off
		}
		p := buf[off+frameHeader : off+frameHeader+n]
		if frameCRC(buf[off:off+4], p) != want {
			return payloads, off
		}
		payloads = append(payloads, p)
		off += frameHeader + n
	}
}

// The ways a stream of frames can fail FrameReader.Next.
var (
	// ErrTorn: the stream ended or failed inside a frame.
	ErrTorn = errors.New("journal: stream ends inside a frame")
	// ErrOversize: a length prefix above the reader's limit.
	ErrOversize = errors.New("journal: frame exceeds the length limit")
	// ErrChecksum: a payload that does not match its frame's CRC.
	ErrChecksum = errors.New("journal: frame checksum mismatch")
)

// FrameReader reads the frames AppendFrame lays down from a stream (the
// binary beat wire protocol's framing, at both ends of a connection)
// into one payload buffer it reuses, so a warm Next allocates nothing.
type FrameReader struct {
	r   io.Reader
	max int
	hdr [frameHeader]byte
	buf []byte
}

// NewFrameReader reads frames of at most max payload bytes from r.
func NewFrameReader(r io.Reader, max int) *FrameReader {
	return &FrameReader{r: r, max: max}
}

// Next returns the next frame's payload, valid until the following call.
// A stream that ends between frames returns io.EOF, and one that fails
// there the reader's error; one that ends or fails inside a frame
// returns ErrTorn (wrapping the reader's error once the header is
// whole), a length prefix above the limit ErrOversize, and a payload
// that fails its CRC ErrChecksum.
func (fr *FrameReader) Next() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, ErrTorn
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.hdr[:4]))
	if n > fr.max {
		return nil, ErrOversize
	}
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	p := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, p); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTorn, err)
	}
	if frameCRC(fr.hdr[:4], p) != binary.LittleEndian.Uint32(fr.hdr[4:]) {
		return nil, ErrChecksum
	}
	return p, nil
}

func segmentName(start uint64) string { return fmt.Sprintf("wal-%016x.log", start) }
func snapshotName(seq uint64) string  { return fmt.Sprintf("snap-%016x.snap", seq) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	var seq uint64
	_, err := fmt.Sscanf(name[len(prefix):len(name)-len(suffix)], "%016x", &seq)
	return seq, err == nil
}

// Options tunes a Writer.
type Options struct {
	// FlushEvery, when positive, starts a background flusher that makes
	// buffered (asynchronously appended) records durable at least this
	// often. Synchronous commits flush regardless.
	FlushEvery time.Duration
	// OnError, when non-nil, is called once with the error that latched
	// the writer into the failed state (possibly from the background
	// flusher's goroutine).
	OnError func(error)
}

// Writer appends framed records to the current journal segment.
// Append buffers without touching the disk (hot paths); Commit is
// Append plus durability, amortized across concurrent committers by
// group commit. All methods are safe for concurrent use.
type Writer struct {
	fs   FS
	dir  string
	opts Options

	// mu guards the append buffer and the logical sequence number.
	mu       sync.Mutex
	buf      []byte
	appended uint64 // sequence number of the last appended record
	err      error  // latched first failure, wrapped in ErrFailed

	// flushMu serializes the write+fsync path; synced trails appended.
	flushMu sync.Mutex
	f       File
	spare   []byte // recycled batch buffer, guarded by flushMu
	synced  atomic.Uint64

	stopFlusher chan struct{}
	flusherDone chan struct{}
}

// NewWriter opens a fresh segment starting at sequence start (an
// existing file of that name is truncated — by construction it can only
// be an empty leftover of a crash between boots).
func NewWriter(fs FS, dir string, start uint64, opts Options) (*Writer, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	f, err := fs.Create(dir + "/" + segmentName(start))
	if err != nil {
		return nil, err
	}
	w := &Writer{fs: fs, dir: dir, opts: opts, f: f, appended: start}
	w.synced.Store(start)
	if opts.FlushEvery > 0 {
		w.stopFlusher = make(chan struct{})
		w.flusherDone = make(chan struct{})
		go w.flushLoop()
	}
	return w, nil
}

// flushLoop is the interval writer behind asynchronous appends: beats
// and tick records become durable within FlushEvery of landing in the
// buffer even when no synchronous commit comes along to carry them.
func (w *Writer) flushLoop() {
	defer close(w.flusherDone)
	ticker := time.NewTicker(w.opts.FlushEvery)
	defer ticker.Stop()
	for {
		select {
		case <-w.stopFlusher:
			return
		case <-ticker.C:
			_ = w.Flush() // errors latch; the next caller sees them
		}
	}
}

// fail latches err (first one wins) and reports the wrapped form.
func (w *Writer) fail(err error) error {
	w.mu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("%w: %v", ErrFailed, err)
		if w.opts.OnError != nil {
			// Release the lock for the callback: it may call back into
			// Err or Seq.
			latched := w.err
			w.mu.Unlock()
			w.opts.OnError(latched)
			return latched
		}
	}
	latched := w.err
	w.mu.Unlock()
	return latched
}

// Err reports the latched failure, nil while healthy.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Seq reports the sequence number of the last appended record.
func (w *Writer) Seq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Append buffers one record and returns its sequence number without
// touching the disk: the record becomes durable with the next commit or
// interval flush. This is the hot-path entry — no I/O, no fsync.
//
//angstrom:hotpath
func (w *Writer) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxFrame {
		//lint:allow hotpath cold branch: records larger than MaxFrame are refused, never served
		return 0, fmt.Errorf("journal: %d-byte record exceeds %d", len(payload), MaxFrame)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	w.buf = AppendFrame(w.buf, payload)
	w.appended++
	return w.appended, nil
}

// Sync blocks until record seq is durable. Concurrent callers group:
// whoever takes the flush lock writes and fsyncs every record buffered
// so far, and the rest return without issuing their own.
func (w *Writer) Sync(seq uint64) error {
	if w.synced.Load() >= seq {
		return w.Err()
	}
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	if w.synced.Load() >= seq {
		return w.Err()
	}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	batch := w.buf
	w.buf = w.spare[:0]
	upto := w.appended
	w.mu.Unlock()

	if len(batch) > 0 {
		if _, err := w.f.Write(batch); err != nil {
			return w.fail(err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return w.fail(err)
	}
	w.spare = batch[:0]
	w.synced.Store(upto)
	return nil
}

// Commit appends one record and blocks until it is durable.
func (w *Writer) Commit(payload []byte) (uint64, error) {
	seq, err := w.Append(payload)
	if err != nil {
		return 0, err
	}
	return seq, w.Sync(seq)
}

// Flush makes everything appended so far durable.
func (w *Writer) Flush() error {
	w.mu.Lock()
	seq := w.appended
	w.mu.Unlock()
	return w.Sync(seq)
}

// Rotate flushes and closes the current segment and starts a new one at
// the current sequence number, which it returns — the compaction
// boundary a snapshot is taken at. The buffer is drained atomically
// with capturing the boundary, so every record up to the returned
// sequence lands in the old segment and everything after it in the new.
func (w *Writer) Rotate() (uint64, error) {
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	batch := w.buf
	w.buf = w.spare[:0]
	seq := w.appended
	w.mu.Unlock()
	if len(batch) > 0 {
		if _, err := w.f.Write(batch); err != nil {
			return 0, w.fail(err)
		}
	}
	if err := w.f.Sync(); err != nil {
		return 0, w.fail(err)
	}
	w.spare = batch[:0]
	w.synced.Store(seq)
	if err := w.f.Close(); err != nil {
		return 0, w.fail(err)
	}
	f, err := w.fs.Create(w.dir + "/" + segmentName(seq))
	if err != nil {
		return 0, w.fail(err)
	}
	w.f = f
	return seq, nil
}

// Close flushes the tail and closes the segment. The writer is
// unusable afterwards.
func (w *Writer) Close() error {
	if w.stopFlusher != nil {
		close(w.stopFlusher)
		<-w.flusherDone
		w.stopFlusher = nil
	}
	flushErr := w.Flush()
	w.flushMu.Lock()
	defer w.flushMu.Unlock()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// State is what Recover reconstructs from a journal directory.
type State struct {
	// Snapshot is the newest valid snapshot's payload (nil if none) and
	// SnapshotSeq its compaction point: records before it are inside it.
	Snapshot    []byte
	SnapshotSeq uint64
	// Records is the replay tail: every durable record from SnapshotSeq
	// on, in append order.
	Records [][]byte
	// NextSeq is the sequence number the journal continues at — open
	// the next Writer with it.
	NextSeq uint64
	// TruncatedBytes counts torn-tail bytes discarded (and repaired on
	// disk) during recovery; DroppedSegments lists segment files beyond
	// a mid-chain corruption that had to be abandoned to keep the
	// recovered history a consistent prefix.
	TruncatedBytes  int
	DroppedSegments []string
}

// Recover reads a journal directory: newest valid snapshot, then the
// segment chain after it, frame-validating everything and truncating a
// torn or corrupt tail in place. An empty or missing directory is a
// genesis state, not an error.
func Recover(fs FS, dir string) (*State, error) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps, starts []uint64
	for _, name := range names {
		if seq, ok := parseSeq(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
		if seq, ok := parseSeq(name, "wal-", ".log"); ok {
			starts = append(starts, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	st := &State{}
	for _, seq := range snaps {
		buf, err := fs.ReadFile(dir + "/" + snapshotName(seq))
		if err != nil {
			continue
		}
		if payloads, valid := Scan(buf); len(payloads) == 1 && valid == len(buf) {
			st.Snapshot = payloads[0]
			st.SnapshotSeq = seq
			break
		}
	}
	st.NextSeq = st.SnapshotSeq

	for i, start := range starts {
		name := dir + "/" + segmentName(start)
		end := start // exclusive end once scanned
		buf, err := fs.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("journal: read %s: %w", name, err)
		}
		payloads, valid := Scan(buf)
		end = start + uint64(len(payloads))
		if end <= st.NextSeq {
			// Entirely behind the snapshot (or the chain already walked
			// past it): nothing to replay from this segment.
			continue
		}
		if start > st.NextSeq {
			// A gap: records [NextSeq, start) are gone (a pruned or lost
			// segment). The consistent prefix ends here; everything from
			// this segment on is unusable.
			for _, s := range starts[i:] {
				st.DroppedSegments = append(st.DroppedSegments, segmentName(s))
			}
			break
		}
		skip := st.NextSeq - start // records the snapshot already covers
		st.Records = append(st.Records, payloads[skip:]...)
		st.NextSeq = end
		if valid < len(buf) {
			// Torn tail: repair in place. If this was not the last
			// segment, the chain is broken past it — drop the rest.
			st.TruncatedBytes += len(buf) - valid
			if err := fs.Truncate(name, int64(valid)); err != nil {
				return nil, fmt.Errorf("journal: repair %s: %w", name, err)
			}
			for _, s := range starts[i+1:] {
				st.DroppedSegments = append(st.DroppedSegments, segmentName(s))
			}
			break
		}
	}
	return st, nil
}

// WriteSnapshot atomically installs a snapshot at compaction point seq:
// the framed payload goes to a temp file, is fsynced, and renamed into
// its final name, so a crash mid-write can never leave a half snapshot
// under a valid name.
func WriteSnapshot(fs FS, dir string, seq uint64, payload []byte) error {
	if err := fs.MkdirAll(dir); err != nil {
		return err
	}
	tmp := dir + "/" + snapshotName(seq) + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(AppendFrame(nil, payload)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, dir+"/"+snapshotName(seq))
}

// Prune removes snapshots and segments made redundant by a durable
// snapshot at seq: older snapshots, their temp leftovers, and every
// segment whose records all precede seq (segments rotate exactly at
// snapshot points, so a segment starting before seq ends by it).
// Best-effort: an undeletable file costs disk, not correctness.
func Prune(fs FS, dir string, seq uint64) {
	names, err := fs.ReadDir(dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if s, ok := parseSeq(name, "snap-", ".snap"); ok && s < seq {
			_ = fs.Remove(dir + "/" + name)
		}
		if s, ok := parseSeq(name, "snap-", ".snap.tmp"); ok && s <= seq {
			_ = fs.Remove(dir + "/" + name)
		}
		if s, ok := parseSeq(name, "wal-", ".log"); ok && s < seq {
			_ = fs.Remove(dir + "/" + name)
		}
	}
}
