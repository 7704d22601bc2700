package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"

	"angstrom/internal/sim"
)

// Journal record operations.
const (
	opEnroll    = "enroll"
	opWithdraw  = "withdraw"
	opGoal      = "goal"
	opBeat      = "beat"
	opBeatTS    = "beat_ts"
	opTick      = "tick"
	opMigrate   = "migrate"    // move one app's partition between dies
	opChipScale = "chip_scale" // derate one die's memory bandwidth
)

// record is one journaled mutation. T is the daemon-clock time the
// mutation executed at; replay re-executes under a clock set to it.
type record struct {
	Op         string         `json:"op"`
	T          sim.Time       `json:"t"`
	Name       string         `json:"name,omitempty"`
	Enroll     *EnrollRequest `json:"enroll,omitempty"`
	MinRate    float64        `json:"min_rate,omitempty"`
	MaxRate    float64        `json:"max_rate,omitempty"`
	Count      int            `json:"count,omitempty"`
	Distortion float64        `json:"distortion,omitempty"`
	Timestamps []float64      `json:"timestamps,omitempty"`
	Evict      bool           `json:"evict,omitempty"`
	// Chip is the target die of an opMigrate / opChipScale record; Scale
	// is opChipScale's bandwidth factor.
	Chip  int     `json:"chip,omitempty"`
	Scale float64 `json:"scale,omitempty"`
}

// Data-plane records (opBeat, opBeatTS, opTick) outnumber everything
// else in the journal by orders of magnitude, so they are journaled in
// a binary layout instead of JSON (little-endian; f64 is the IEEE-754
// bit pattern, so replay sees the exact floats the live path saw):
//
//	beat     [0x01][T f64][distortion f64][len uvarint][name][count uvarint]
//	beat_ts  [0x02][T f64][distortion f64][len uvarint][name][n uvarint][n × f64]
//	tick     [0x03][T f64]
//
// Control records stay JSON. A payload is told apart by its first byte:
// every binary opcode is below binOpLimit, and a JSON record starts with
// '{' — so journals written before the binary layout existed (JSON
// data-plane records) still replay.
const (
	binBeat    = 0x01
	binBeatTS  = 0x02
	binTick    = 0x03
	binOpLimit = 0x20
)

// appendDataRecord appends the binary encoding of a data-plane record
// (rec.Op must be opBeat, opBeatTS or opTick) to dst.
//
//angstrom:hotpath
func appendDataRecord(dst []byte, rec *record) []byte {
	switch rec.Op {
	case opBeat:
		dst = append(dst, binBeat)
	case opBeatTS:
		dst = append(dst, binBeatTS)
	default:
		dst = append(dst, binTick)
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(rec.T)))
	if rec.Op == opTick {
		return dst
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(rec.Distortion))
	dst = binary.AppendUvarint(dst, uint64(len(rec.Name)))
	dst = append(dst, rec.Name...)
	if rec.Op == opBeat {
		return binary.AppendUvarint(dst, uint64(rec.Count))
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Timestamps)))
	for _, t := range rec.Timestamps {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t))
	}
	return dst
}

// recordDecoder carries decode state across one replay's records: the
// beat_ts timestamp buffer (the monitor copies what it keeps) and the
// application names seen so far, so a quarter-million beat records cost
// one name allocation per application, not one per record.
type recordDecoder struct {
	ts    []float64
	names map[string]string
}

// decode fills the zero record rec from one journal payload, picking
// the codec by the payload's first byte (see the layout above). After a
// binary beat_ts record, rec.Timestamps aliases the decoder's buffer and
// is valid until the next call.
func (rd *recordDecoder) decode(p []byte, rec *record) error {
	if len(p) > 0 && p[0] < binOpLimit {
		return rd.decodeData(p, rec)
	}
	return json.Unmarshal(p, rec)
}

var errBadDataRecord = errors.New("server: malformed binary journal record")

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// decodeData is appendDataRecord's inverse, rejecting anything the
// encoder cannot have written — an unknown opcode, a short or over-long
// payload, a non-finite time or distortion, a batch larger than
// MaxBeatBatch. The recovered journal is outside input: whatever
// decodes here is still replayed through Beat/BeatTimestamps/tickAt and
// their own validation.
func (rd *recordDecoder) decodeData(p []byte, rec *record) error {
	if len(p) < 9 {
		return errBadDataRecord
	}
	op := p[0]
	t := math.Float64frombits(binary.LittleEndian.Uint64(p[1:]))
	if !finite(t) {
		return errBadDataRecord
	}
	p = p[9:]
	if op == binTick {
		if len(p) != 0 {
			return errBadDataRecord
		}
		*rec = record{Op: opTick, T: sim.Time(t)}
		return nil
	}
	if (op != binBeat && op != binBeatTS) || len(p) < 8 {
		return errBadDataRecord
	}
	distortion := math.Float64frombits(binary.LittleEndian.Uint64(p))
	if !finite(distortion) {
		return errBadDataRecord
	}
	p = p[8:]
	nameLen, w := binary.Uvarint(p)
	if w <= 0 || nameLen > uint64(len(p)-w) {
		return errBadDataRecord
	}
	rawName := p[w : w+int(nameLen)]
	p = p[w+int(nameLen):]
	n, w := binary.Uvarint(p)
	if w <= 0 || n > MaxBeatBatch {
		return errBadDataRecord
	}
	p = p[w:]
	if (op == binBeat && len(p) != 0) || (op == binBeatTS && uint64(len(p)) != 8*n) {
		return errBadDataRecord
	}
	name, seen := rd.names[string(rawName)] // the lookup does not allocate
	if !seen {
		if rd.names == nil {
			rd.names = make(map[string]string)
		}
		name = string(rawName)
		rd.names[name] = name
	}
	if op == binBeat {
		*rec = record{Op: opBeat, T: sim.Time(t), Name: name, Count: int(n), Distortion: distortion}
		return nil
	}
	rd.ts = rd.ts[:0]
	for ; len(p) > 0; p = p[8:] {
		rd.ts = append(rd.ts, math.Float64frombits(binary.LittleEndian.Uint64(p)))
	}
	*rec = record{Op: opBeatTS, T: sim.Time(t), Name: name, Timestamps: rd.ts, Distortion: distortion}
	return nil
}

// snapImage is a snapshot's payload: the compacted prefix of the
// journal. Apps are stored in enrollment order — the order the manager
// and the chip's contention pass iterate in — so restoring them
// re-enrolls the fleet exactly as it was built.
type snapImage struct {
	Seq        uint64   `json:"seq"`
	Clock      sim.Time `json:"clock"`
	Ticks      uint64   `json:"ticks"`
	Beats      uint64   `json:"beats"`
	Decisions  uint64   `json:"decisions"`
	Evicted    uint64   `json:"evicted"`
	Migrations uint64   `json:"migrations,omitempty"`
	// LastMigrate is when the most recent inter-die move applied (zero
	// if never): restores must resume the migration scan's settle window
	// exactly where the imaged daemon left it.
	LastMigrate sim.Time `json:"last_migrate,omitempty"`
	OvercommitW float64  `json:"overcommit_w,omitempty"`
	// ChipScales is each die's bandwidth derating (absent when every die
	// is nominal; a shorter slice leaves the remaining dies at 1).
	ChipScales []float64 `json:"chip_scales,omitempty"`
	// LoadAvgMem/LoadAvgNoC are the per-die smoothed offered
	// utilizations the migration scan prices (absent for single-die
	// daemons); a restore resumes the EWMAs in place so post-restore
	// scans see what the imaged daemon saw.
	LoadAvgMem []float64 `json:"load_avg_mem,omitempty"`
	LoadAvgNoC []float64 `json:"load_avg_noc,omitempty"`
	Apps       []snapApp `json:"apps"`
}

type snapApp struct {
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Window   int     `json:"window"`
	MinRate  float64 `json:"min_rate"`
	MaxRate  float64 `json:"max_rate,omitempty"`
	// Priority is the declared water-fill weight (0 = default 1).
	Priority   float64  `json:"priority,omitempty"`
	EnrolledAt sim.Time `json:"enrolled_at"`
	// MigratedAt is when the app last moved between dies (zero if
	// never); restores must resume its migration cooldown in place.
	MigratedAt sim.Time `json:"migrated_at,omitempty"`
	// The manager's last allocation view (status continuity until the
	// first post-restore tick re-prices the fleet).
	Units      int     `json:"units"`
	Demand     float64 `json:"demand,omitempty"`
	AllocShare float64 `json:"alloc_share,omitempty"`
	GoalFit    bool    `json:"goal_fit,omitempty"`
	// Chip partition placement, nil for advisory apps. Restoring each
	// partition at its recorded configuration and time share re-sums
	// the tile ledger to its pre-crash value exactly.
	Chip *snapChip `json:"chip,omitempty"`
}

type snapChip struct {
	// Chip is the die index the partition lives on (omitted for die 0,
	// so single-chip snapshots are unchanged on the wire).
	Chip    int     `json:"chip,omitempty"`
	Cores   int     `json:"cores"`
	CacheKB int     `json:"cache_kb"`
	VF      int     `json:"vf"`
	Share   float64 `json:"share"`
}

// buildImage captures the compacted prefix the snapshot at sequence seq
// stands for. Called with d.mu held, so no control-plane mutation can
// straddle the rotation boundary.
func (d *Daemon) buildImage(seq uint64) snapImage {
	img := snapImage{
		Seq:         seq,
		Clock:       d.clock.Now(),
		Ticks:       d.ticks.Load(),
		Beats:       d.beats.Load(),
		Decisions:   d.decisions.Load(),
		Evicted:     d.evicted.Load(),
		Migrations:  d.migrations.Load(),
		LastMigrate: d.lastMigrate,
		OvercommitW: math.Float64frombits(d.powerOvercommit.Load()),
	}
	if d.fleet != nil {
		derated := false
		scales := make([]float64, d.fleet.Chips())
		for i := range scales {
			scales[i] = d.fleet.Chip(i).MemBandwidthScale()
			if scales[i] != 1 {
				derated = true
			}
		}
		if derated {
			img.ChipScales = scales
		}
		if d.loadAvgMem != nil {
			img.LoadAvgMem = append([]float64(nil), d.loadAvgMem...)
			img.LoadAvgNoC = append([]float64(nil), d.loadAvgNoC...)
		}
	}
	apps := d.dir.apps() // enrollment order: restore re-admits in image order, keeping it
	img.Apps = make([]snapApp, 0, len(apps))
	for _, a := range apps {
		sa := snapApp{Name: a.name, Workload: a.spec.Name, Window: a.window, Priority: a.prio}
		if g := a.mon.Goals().Performance; g != nil {
			sa.MinRate, sa.MaxRate = g.MinRate, g.MaxRate
		}
		a.mu.Lock()
		sa.EnrolledAt = a.enrolledAt
		sa.MigratedAt = a.migratedAt
		sa.Units = a.alloc.Units
		sa.Demand = a.alloc.Demand
		sa.AllocShare = a.alloc.Share
		sa.GoalFit = a.alloc.GoalMet
		a.mu.Unlock()
		if part := a.partition(); part != nil {
			cfg := part.Config()
			sa.Chip = &snapChip{Chip: a.chip, Cores: cfg.Cores, CacheKB: cfg.CacheKB, VF: cfg.VF, Share: part.Share()}
		}
		img.Apps = append(img.Apps, sa)
	}
	return img
}
