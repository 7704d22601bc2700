package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func commit(t *testing.T, w *Writer, payload string) uint64 {
	t.Helper()
	seq, err := w.Commit([]byte(payload))
	if err != nil {
		t.Fatalf("commit %q: %v", payload, err)
	}
	return seq
}

func recover2(t *testing.T, fs FS) *State {
	t.Helper()
	st, err := Recover(fs, "j")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return st
}

func payloads(st *State) []string {
	out := make([]string, len(st.Records))
	for i, p := range st.Records {
		out[i] = string(p)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	want := []string{"", "a", "hello world", strings.Repeat("x", 4096)}
	for _, p := range want {
		buf = AppendFrame(buf, []byte(p))
	}
	got, valid := Scan(buf)
	if valid != len(buf) {
		t.Fatalf("valid prefix %d, want %d", valid, len(buf))
	}
	if len(got) != len(want) {
		t.Fatalf("%d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("payload %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestScanRejectsCorruption(t *testing.T) {
	clean := AppendFrame(AppendFrame(nil, []byte("first")), []byte("second"))
	firstLen := len(AppendFrame(nil, []byte("first")))

	// Truncations at every boundary: everything before the cut survives
	// iff whole frames fit.
	for cut := 0; cut < len(clean); cut++ {
		got, valid := Scan(clean[:cut])
		wantFrames := 0
		if cut >= firstLen {
			wantFrames = 1
		}
		if len(got) != wantFrames {
			t.Fatalf("cut %d: %d frames, want %d", cut, len(got), wantFrames)
		}
		if valid > cut {
			t.Fatalf("cut %d: valid %d beyond buffer", cut, valid)
		}
	}

	// A bit flip anywhere in the second frame leaves exactly the first.
	for i := firstLen; i < len(clean); i++ {
		buf := append([]byte(nil), clean...)
		buf[i] ^= 0x40
		got, valid := Scan(buf)
		if len(got) != 1 || string(got[0]) != "first" {
			t.Fatalf("flip at %d: got %d frames", i, len(got))
		}
		if valid != firstLen {
			t.Fatalf("flip at %d: valid %d, want %d", i, valid, firstLen)
		}
	}

	// An oversized length prefix is corruption, not an allocation.
	huge := AppendFrame(nil, []byte("x"))
	huge[0], huge[1], huge[2], huge[3] = 0xff, 0xff, 0xff, 0x7f
	if got, valid := Scan(huge); len(got) != 0 || valid != 0 {
		t.Fatalf("oversized frame accepted: %d frames, valid %d", len(got), valid)
	}
}

// A FrameReader reads from a stream what Scan reads from a buffer, and
// names each way the stream can fail: a cut between frames is io.EOF, a
// cut inside one ErrTorn, a bit flip in the payload ErrChecksum, a length
// above the reader's limit ErrOversize.
func TestFrameReaderStream(t *testing.T) {
	want := []string{"", "a", "hello world", strings.Repeat("x", 4096)}
	var clean []byte
	ends := map[int]bool{}
	for _, p := range want {
		clean = AppendFrame(clean, []byte(p))
		ends[len(clean)] = true
	}
	fr := NewFrameReader(bytes.NewReader(clean), 4096)
	for i, w := range want {
		p, err := fr.Next()
		if err != nil || string(p) != w {
			t.Fatalf("frame %d: %q, %v; want %q", i, p, err, w)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	for cut := 1; cut < len(clean); cut++ {
		fr := NewFrameReader(bytes.NewReader(clean[:cut]), 4096)
		var err error
		for err == nil {
			_, err = fr.Next()
		}
		if ends[cut] && err != io.EOF || !ends[cut] && !errors.Is(err, ErrTorn) {
			t.Fatalf("cut %d (frame end %v): %v", cut, ends[cut], err)
		}
	}

	flipped := AppendFrame(nil, []byte("payload"))
	flipped[len(flipped)-1] ^= 0x40
	if _, err := NewFrameReader(bytes.NewReader(flipped), 4096).Next(); err != ErrChecksum {
		t.Fatalf("bit flip: %v, want ErrChecksum", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(clean), 0).Next(); err != nil {
		t.Fatalf("empty frame under a zero limit: %v", err)
	}
	if _, err := NewFrameReader(bytes.NewReader(AppendFrame(nil, []byte("ab"))), 1).Next(); err != ErrOversize {
		t.Fatalf("2-byte frame under a 1-byte limit: %v, want ErrOversize", err)
	}
}

func TestCommitRecoverRoundTrip(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if seq := commit(t, w, fmt.Sprintf("rec-%d", i)); seq != uint64(i) {
			t.Fatalf("commit %d: seq %d", i, seq)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := recover2(t, fs)
	want := []string{"rec-1", "rec-2", "rec-3", "rec-4", "rec-5"}
	if got := payloads(st); !equalStrings(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	if st.NextSeq != 5 || st.SnapshotSeq != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("state %+v", st)
	}
}

func TestGroupCommitBatchesSyncs(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// N committers queued behind one in-flight flush must cost ONE fsync:
	// the flush-lock holder carries everyone buffered behind it. Holding
	// flushMu while they append makes the grouping deterministic.
	const n = 64
	w.flushMu.Lock()
	var done sync.WaitGroup
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			if _, err := w.Commit([]byte(fmt.Sprintf("c-%02d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for w.Seq() < n { // all appended, blocked on durability
		runtime.Gosched()
	}
	before := fs.Syncs()
	w.flushMu.Unlock()
	done.Wait()
	if got := fs.Syncs() - before; got != 1 {
		t.Fatalf("%d syncs for %d queued commits, want 1 (group commit)", got, n)
	}
	if w.Seq() != n {
		t.Fatalf("seq %d, want %d", w.Seq(), n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := recover2(t, fs); len(st.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(st.Records), n)
	}
}

func TestAppendIsPureBuffering(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := fs.Syncs()
	for i := 0; i < 100; i++ {
		if _, err := w.Append([]byte("async")); err != nil {
			t.Fatal(err)
		}
	}
	if got := fs.Syncs(); got != before {
		t.Fatalf("%d syncs issued by Append", got-before)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fs.Syncs(); got != before+1 {
		t.Fatalf("flush cost %d syncs, want 1", got-before)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRotateSplitsSegments(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, w, "a")
	commit(t, w, "b")
	seq, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("rotation boundary %d, want 2", seq)
	}
	commit(t, w, "c")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := fs.ReadFile("j/" + segmentName(0))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := Scan(old); len(got) != 2 {
		t.Fatalf("old segment holds %d records, want 2", len(got))
	}
	st := recover2(t, fs)
	if got := payloads(st); !equalStrings(got, []string{"a", "b", "c"}) {
		t.Fatalf("recovered %v", got)
	}
	if st.NextSeq != 3 {
		t.Fatalf("next seq %d", st.NextSeq)
	}
}

func TestSnapshotCompactsAndPrunes(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, w, "pre-1")
	commit(t, w, "pre-2")
	seq, err := w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(fs, "j", seq, []byte("image@2")); err != nil {
		t.Fatal(err)
	}
	Prune(fs, "j", seq)
	commit(t, w, "post-3")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadFile("j/" + segmentName(0)); err == nil {
		t.Fatal("pre-snapshot segment survived pruning")
	}
	st := recover2(t, fs)
	if string(st.Snapshot) != "image@2" || st.SnapshotSeq != 2 {
		t.Fatalf("snapshot %q@%d", st.Snapshot, st.SnapshotSeq)
	}
	if got := payloads(st); !equalStrings(got, []string{"post-3"}) {
		t.Fatalf("tail %v", got)
	}
	if st.NextSeq != 3 {
		t.Fatalf("next seq %d", st.NextSeq)
	}
}

func TestRecoverPrefersNewestValidSnapshot(t *testing.T) {
	fs := NewMemFS()
	if err := WriteSnapshot(fs, "j", 2, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(fs, "j", 5, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest: recovery must fall back to the older one.
	buf, _ := fs.ReadFile("j/" + snapshotName(5))
	f, _ := fs.Create("j/" + snapshotName(5))
	f.Write(buf[:len(buf)-3])
	f.Sync()
	f.Close()
	// A full segment chain from genesis keeps the fallback consistent.
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		commit(t, w, fmt.Sprintf("r%d", i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := recover2(t, fs)
	if string(st.Snapshot) != "old" || st.SnapshotSeq != 2 {
		t.Fatalf("snapshot %q@%d, want old@2", st.Snapshot, st.SnapshotSeq)
	}
	if got := payloads(st); !equalStrings(got, []string{"r3", "r4", "r5", "r6"}) {
		t.Fatalf("tail %v", got)
	}
}

func TestRecoverTruncatesTornTail(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, w, "whole-1")
	commit(t, w, "whole-2")
	// A torn write: half a frame lands after the durable prefix.
	name := "j/" + segmentName(0)
	torn := AppendFrame(nil, []byte("torn-3"))
	f, _ := fs.OpenAppend(name)
	f.Write(torn[:len(torn)-2])
	f.Close()
	st := recover2(t, fs)
	if got := payloads(st); !equalStrings(got, []string{"whole-1", "whole-2"}) {
		t.Fatalf("recovered %v", got)
	}
	if st.TruncatedBytes != len(torn)-2 {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(torn)-2)
	}
	// The repair is durable: a second recovery sees a clean chain.
	st2 := recover2(t, fs)
	if st2.TruncatedBytes != 0 || len(st2.Records) != 2 {
		t.Fatalf("repair not persisted: %+v", st2)
	}
	// And the journal continues from the repaired frontier.
	w2, err := NewWriter(fs, "j", st.NextSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, w2, "whole-3")
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := payloads(recover2(t, fs)); !equalStrings(got, []string{"whole-1", "whole-2", "whole-3"}) {
		t.Fatalf("after repair+append: %v", got)
	}
}

func TestRecoverDropsSegmentsPastGap(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, w, "a")
	commit(t, w, "b")
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	commit(t, w, "c")
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	commit(t, w, "d")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Lose the middle segment: the history past the hole is unusable.
	if err := fs.Remove("j/" + segmentName(2)); err != nil {
		t.Fatal(err)
	}
	st := recover2(t, fs)
	if got := payloads(st); !equalStrings(got, []string{"a", "b"}) {
		t.Fatalf("recovered %v, want the pre-gap prefix", got)
	}
	if len(st.DroppedSegments) != 1 || st.DroppedSegments[0] != segmentName(3) {
		t.Fatalf("dropped %v", st.DroppedSegments)
	}
	if st.NextSeq != 2 {
		t.Fatalf("next seq %d", st.NextSeq)
	}
}

func TestCrashImageLosesOnlyUnsynced(t *testing.T) {
	fs := NewMemFS()
	w, err := NewWriter(fs, "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, w, "durable")
	if _, err := w.Append([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	// Buffered but never synced: a crash image must not contain it.
	st := recover2(t, fs.Crash(0))
	if got := payloads(st); !equalStrings(got, []string{"durable"}) {
		t.Fatalf("crash image recovered %v", got)
	}
	// Flush, then crash with a torn partial write of the next record.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("torn")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil { // lands on disk...
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	w.flushMu.Lock() // write without sync so the tail is torn
	w.mu.Lock()
	batch := w.buf
	w.buf = nil
	w.mu.Unlock()
	w.f.Write(batch)
	w.flushMu.Unlock()
	for torn := 1; torn < frameHeader; torn++ {
		st := recover2(t, fs.Crash(torn))
		if got := payloads(st); !equalStrings(got, []string{"durable", "buffered", "torn"}) {
			t.Fatalf("torn=%d: recovered %v", torn, got)
		}
	}
}

func TestWriteErrorLatchesAndReports(t *testing.T) {
	fs := NewMemFS()
	var reported error
	w, err := NewWriter(fs, "j", 0, Options{OnError: func(err error) { reported = err }})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, w, "ok")
	fs.SetSyncErr(errors.New("disk on fire"))
	if _, err := w.Commit([]byte("doomed")); !errors.Is(err, ErrFailed) {
		t.Fatalf("commit on failed disk: %v", err)
	}
	if reported == nil || !errors.Is(reported, ErrFailed) {
		t.Fatalf("OnError got %v", reported)
	}
	// Latched: the disk healing does not un-fail the writer.
	fs.SetSyncErr(nil)
	if _, err := w.Append([]byte("later")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after latch: %v", err)
	}
	if err := w.Err(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Err() = %v", err)
	}
	w.Close()
	// Everything durable before the failure still recovers. (The crash
	// image: bytes written but never fsynced don't survive.)
	if got := payloads(recover2(t, fs.Crash(0))); !equalStrings(got, []string{"ok"}) {
		t.Fatalf("recovered %v", got)
	}
}

func TestSnapshotWriteIsAtomic(t *testing.T) {
	fs := NewMemFS()
	if err := WriteSnapshot(fs, "j", 3, bytes.Repeat([]byte("s"), 100)); err != nil {
		t.Fatal(err)
	}
	// A crash right now keeps the installed snapshot (rename is atomic).
	st := recover2(t, fs.Crash(0))
	if st.SnapshotSeq != 3 || len(st.Snapshot) != 100 {
		t.Fatalf("snapshot %d/%d bytes", st.SnapshotSeq, len(st.Snapshot))
	}
	// A failed write leaves no half-installed snapshot behind.
	fs2 := NewMemFS()
	fs2.SetSyncErr(errors.New("enospc"))
	if err := WriteSnapshot(fs2, "j", 4, []byte("doomed")); err == nil {
		t.Fatal("snapshot write on failing disk succeeded")
	}
	if st := recover2(t, fs2); st.Snapshot != nil {
		t.Fatalf("half snapshot visible: %q", st.Snapshot)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Append is pure buffering into the writer's two recycled group-commit
// buffers: once both have grown to a drain interval's worth of frames,
// it allocates nothing (BenchmarkJournalAppend, which drains every
// 4,096 appends). AllocsPerRun truncates its mean to an integer, so it
// makes one run of n appends and the count it returns is every
// allocation they made; its warm-up run appends n more before the
// measured one, so the buffers are warmed to 2n frames.
func TestAppendAllocatesNothing(t *testing.T) {
	const n = 4096
	w, err := NewWriter(NewMemFS(), "j", 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"op":"beat","t":123.456,"name":"app-01234","count":8}`)
	appendN := func(k int) {
		for i := 0; i < k && err == nil; i++ {
			_, err = w.Append(payload)
		}
	}
	for range 2 { // grow both buffers; each drain swaps them
		appendN(2 * n)
		if err == nil {
			err = w.Flush()
		}
	}
	allocs := testing.AllocsPerRun(1, func() { appendN(n) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%d appends allocated %g objects, want 0", n, allocs)
	}
}
