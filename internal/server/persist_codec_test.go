package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"angstrom/internal/journal"
	"angstrom/internal/sim"
)

// sameRecord reports whether two decoded records agree field for field,
// floats compared by bit pattern (so -0 and NaN payloads count).
func sameRecord(a, b record) bool {
	if a.Op != b.Op || a.Name != b.Name || a.Count != b.Count ||
		math.Float64bits(float64(a.T)) != math.Float64bits(float64(b.T)) ||
		math.Float64bits(a.Distortion) != math.Float64bits(b.Distortion) ||
		len(a.Timestamps) != len(b.Timestamps) {
		return false
	}
	for i := range a.Timestamps {
		if math.Float64bits(a.Timestamps[i]) != math.Float64bits(b.Timestamps[i]) {
			return false
		}
	}
	return true
}

// FuzzDataRecord pins the binary data-plane journal codec from both
// ends. Structured half: a beat, beat_ts and tick record built from the
// fuzzed fields must encode and decode back bit for bit, unless its
// time or distortion is non-finite, which the decoder must refuse.
// Raw half: arbitrary bytes must never panic the decoder, a payload
// opening with '{' must decode exactly as encoding/json decodes it, and
// whatever the binary decoder does accept must be finite, within
// MaxBeatBatch, free of trailing bytes, and stable under re-encoding.
// The committed corpus (testdata/fuzz/FuzzDataRecord) carries the named
// edge cases: -0, subnormals, a 10,000-entry timestamp batch, empty and
// 255-byte names, legacy JSON records, and one corruption of each kind.
func FuzzDataRecord(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), "", uint32(0), []byte{})
	f.Add([]byte(`{"op":"tick","t":3}`), math.Float64bits(1.5), math.Float64bits(0.25), "app-00001", uint32(6), []byte("12345678abcdefgh"))
	f.Add([]byte{binTick, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, math.Float64bits(math.Inf(1)), uint64(0), "x", uint32(1), []byte{}) // T = +Inf

	var dec recordDecoder
	f.Fuzz(func(t *testing.T, raw []byte, tBits, dBits uint64, name string, count uint32, tsRaw []byte) {
		tm, dist := math.Float64frombits(tBits), math.Float64frombits(dBits)
		ts := make([]float64, 0, len(tsRaw)/8)
		for p := tsRaw; len(p) >= 8 && len(ts) < MaxBeatBatch; p = p[8:] {
			ts = append(ts, math.Float64frombits(binary.LittleEndian.Uint64(p)))
		}
		for _, want := range []record{
			{Op: opTick, T: sim.Time(tm)},
			{Op: opBeat, T: sim.Time(tm), Name: name, Count: int(count % (MaxBeatBatch + 1)), Distortion: dist},
			{Op: opBeatTS, T: sim.Time(tm), Name: name, Timestamps: ts, Distortion: dist},
		} {
			enc := appendDataRecord(nil, &want)
			var got record
			err := dec.decode(enc, &got)
			if !finite(tm) || (want.Op != opTick && !finite(dist)) {
				if err == nil {
					t.Fatalf("%s with non-finite T %g / distortion %g decoded", want.Op, tm, dist)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s round trip: %v", want.Op, err)
			}
			if !sameRecord(want, got) {
				t.Fatalf("%s round trip:\n want %+v\n  got %+v", want.Op, want, got)
			}
		}

		var rec record
		err := dec.decode(raw, &rec)
		if len(raw) == 0 || raw[0] >= binOpLimit {
			var viaJSON record
			jerr := json.Unmarshal(raw, &viaJSON)
			if (err == nil) != (jerr == nil) || !reflect.DeepEqual(rec, viaJSON) {
				t.Fatalf("payload %q did not take the JSON path: %+v (%v) vs %+v (%v)", raw, rec, err, viaJSON, jerr)
			}
			return
		}
		if err != nil {
			return
		}
		if !finite(float64(rec.T)) || !finite(rec.Distortion) {
			t.Fatalf("decoded a non-finite record: %+v", rec)
		}
		if rec.Count < 0 || rec.Count > MaxBeatBatch || len(rec.Timestamps) > MaxBeatBatch {
			t.Fatalf("decoded a batch beyond MaxBeatBatch: count %d, %d timestamps", rec.Count, len(rec.Timestamps))
		}
		var again record
		var fresh recordDecoder
		if err := fresh.decode(append(bytes.Clone(raw), 0), &again); err == nil {
			t.Fatalf("payload %x decoded with a trailing byte appended", raw)
		}
		re := appendDataRecord(nil, &rec)
		if len(re) > len(raw) {
			t.Fatalf("re-encoding grew: %d > %d bytes, so the decoder skipped input", len(re), len(raw))
		}
		if err := fresh.decode(re, &again); err != nil || !sameRecord(rec, again) {
			t.Fatalf("re-encoded record changed: %+v -> %+v (%v)", rec, again, err)
		}
	})
}

// legacyJSON re-frames a WAL segment the way the daemon wrote it before
// the binary layout: every data-plane record as json.Marshal(record).
func legacyJSON(t *testing.T, segment []byte) []byte {
	t.Helper()
	payloads, valid := journal.Scan(segment)
	if valid != len(segment) {
		t.Fatalf("segment has a torn tail at %d of %d", valid, len(segment))
	}
	var out []byte
	var dec recordDecoder
	binaries := 0
	for _, p := range payloads {
		if p[0] < binOpLimit {
			var rec record
			if err := dec.decodeData(p, &rec); err != nil {
				t.Fatal(err)
			}
			var err error
			if p, err = json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
			binaries++
		}
		out = journal.AppendFrame(out, p)
	}
	if binaries == 0 {
		t.Fatal("segment holds no binary records: the new daemon did not write any")
	}
	return out
}

// A data directory written before the binary layout (JSON beat, beat_ts
// and tick records) must still boot, into the same state as the same
// history journaled by today's daemon: same List(), same monitor
// windows, same next-tick transcript, no bad records on either side.
func TestLegacyJSONJournalBootsIdentically(t *testing.T) {
	// The legacy format, spelled out: what json.Marshal(record) produced
	// for the three data-plane ops is what legacyJSON re-creates.
	for want, rec := range map[string]record{
		`{"op":"beat","t":1.5,"name":"rec-001","count":3}`:                               {Op: opBeat, T: 1.5, Name: "rec-001", Count: 3},
		`{"op":"beat_ts","t":2,"name":"rec-001","distortion":0.1,"timestamps":[0,0.05]}`: {Op: opBeatTS, T: 2, Name: "rec-001", Timestamps: []float64{0, 0.05}, Distortion: 0.1},
		`{"op":"tick","t":2.5}`: {Op: opTick, T: 2.5},
	} {
		if got, err := json.Marshal(rec); err != nil || string(got) != want {
			t.Fatalf("legacy encoding drifted: %s (%v), want %s", got, err, want)
		}
	}

	base := Config{Cores: 24, Accel: 0.5, Period: time.Hour, Oversubscribe: true, TickWorkers: 2}
	fs := journal.NewMemFS()
	d, err := NewDaemon(journalOnly(base, fs))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range recoveryOps(10, 6) {
		applyOp(t, d, op)
	}
	if err := d.jd.w.Flush(); err != nil {
		t.Fatal(err)
	}
	modern := fs.Crash(0)

	legacy := journal.NewMemFS()
	names, err := modern.ReadDir("j")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".log") {
			t.Fatalf("journal-only image holds %s", name)
		}
		seg, err := modern.ReadFile("j/" + name)
		if err != nil {
			t.Fatal(err)
		}
		file, err := legacy.Create("j/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(legacyJSON(t, seg)); err != nil {
			t.Fatal(err)
		}
		if err := file.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	boot := func(img *journal.MemFS) *Daemon {
		t.Helper()
		r, err := NewDaemon(journalOnly(base, img))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fromModern, fromLegacy := boot(modern), boot(legacy)
	mi, li := fromModern.RecoveryInfo(), fromLegacy.RecoveryInfo()
	if mi.BadRecords != 0 || li.BadRecords != 0 {
		t.Fatalf("bad records: binary journal %d, JSON journal %d", mi.BadRecords, li.BadRecords)
	}
	if mi.ReplayedRecords != li.ReplayedRecords || mi.Apps != li.Apps || mi.Apps == 0 {
		t.Fatalf("restores differ: binary %+v, JSON %+v", mi, li)
	}
	diffTranscripts(t, "restored", [][]AppStatus{fromModern.List()}, [][]AppStatus{fromLegacy.List()})
	for _, st := range fromModern.List() {
		a, _ := fromModern.lookup(st.Name)
		b, ok := fromLegacy.lookup(st.Name)
		if !ok || !reflect.DeepEqual(a.mon.Window(), b.mon.Window()) {
			t.Fatalf("%s: monitor windows differ between the binary and the JSON journal", st.Name)
		}
	}
	fromModern.Tick()
	fromLegacy.Tick()
	diffTranscripts(t, "next tick", [][]AppStatus{fromModern.List()}, [][]AppStatus{fromLegacy.List()})
}
