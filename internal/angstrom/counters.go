// Package angstrom models the Angstrom processor (§4): a manycore design
// whose defining property is that the hardware's sensors and adaptations
// are *exposed* rather than self-managed, so the SEEC runtime can
// coordinate hardware actions with software ones.
//
// The package provides the observation layer (memory-mapped performance
// counters and event probes — §4.1; the paper's temperature, voltage and
// battery sensors are not modelled), the action layer (per-core DVFS,
// cache capacity, adaptive coherence and the NoC's EVC and BAN — §4.2;
// the trace-driven mode runs the cache and noc packages), the partner
// cores that make decision-making cheap (§4.3), and an interval chip
// simulator that produces performance and power for any configuration
// of a workload — the substitute for the Graphite testbed of §5.3. The one chip that runs applications is
// SharedChip (shared.go), whose partitions emit their heartbeats.
//
// The chip model executes inside journal replay and the tick's
// transcript-equality tests: the whole package is a deterministic
// scope (time flows in through sim.Time arguments, partitions iterate
// in acquisition order, never map order).
//
//angstrom:deterministic
package angstrom

import "fmt"

// CounterID names one per-tile hardware performance counter (§4.1 lists
// the classes: memory operations, cache hits and misses, pipeline stalls,
// network flits sent/received; we add energy, which §4.1 exposes through
// the sensor file).
type CounterID int

// The counter file layout. Every counter is 64-bit and saturating-free
// (wrap is the software's problem, as in real hardware).
//
//lint:allow unusedexport the counters no simulator writes yet wait for ROADMAP B.2's pollers
const (
	CtrInstructions CounterID = iota
	CtrCycles
	CtrMemOps
	CtrL2Hits
	CtrL2Misses
	CtrStallCycles
	CtrFlitsTx
	CtrFlitsRx
	CtrFlitHops
	CtrMemAccesses
	CtrEnergyNJ
	NumCounters
)

// String implements fmt.Stringer for reports.
func (id CounterID) String() string {
	names := [...]string{
		"instructions", "cycles", "mem_ops", "l2_hits", "l2_misses",
		"stall_cycles", "flits_tx", "flits_rx", "flit_hops", "mem_accesses", "energy_nj",
	}
	if int(id) < len(names) {
		return names[id]
	}
	return fmt.Sprintf("counter(%d)", int(id))
}

// CounterFile is one tile's counter block. In hardware these are
// memory-mapped and readable by any layer of the software stack (§4.1:
// no fixed limit on simultaneously-read counters, unlike conventional
// PMUs); here that translates to: any component holding a reference may
// Read any counter at any time, with no "event selection" step.
//
// The simulator is single-goroutine, so CounterFile is unsynchronized by
// design — like the hardware, reads are just loads.
type CounterFile struct {
	v [NumCounters]uint64
}

// Read returns the current value of one counter.
func (c *CounterFile) Read(id CounterID) uint64 { return c.v[id] }

// Add increments a counter.
func (c *CounterFile) Add(id CounterID, n uint64) { c.v[id] += n }

// Snapshot copies the whole file (for delta computation by pollers).
//
//lint:allow unusedexport the §4.1 counter file's pollers wait for ROADMAP B.2 (a daemon that observes itself)
func (c *CounterFile) Snapshot() [NumCounters]uint64 { return c.v }

// Delta returns the per-counter difference against an older snapshot.
//
//lint:allow unusedexport the §4.1 counter file's pollers wait for ROADMAP B.2 (a daemon that observes itself)
func (c *CounterFile) Delta(prev [NumCounters]uint64) [NumCounters]uint64 {
	var d [NumCounters]uint64
	for i := range d {
		d[i] = c.v[i] - prev[i]
	}
	return d
}

// Reset zeroes the file (simulation convenience; hardware counters reset
// through a control register write, same effect).
func (c *CounterFile) Reset() { c.v = [NumCounters]uint64{} }

// paddedCounterFile rounds one core's counter block up to a multiple of
// the cache-line size. A bank is written by a single goroutine (the
// simulator walks cores in one loop), so the padding's job is layout
// isolation between banks: a worker's bank never straddles a line with
// a neighbouring worker's heap allocations, and the layout stays safe
// if a later PR gives each core its own simulation goroutine.
type paddedCounterFile struct {
	CounterFile
	_ [(128 - (NumCounters*8)%128) % 128]byte
}

// PerCore is a bank of per-core counter files, one padded cache-line
// region per core. The trace-driven simulator increments a core's own
// file on every access and aggregates the bank once at the end of a
// sweep — the layout that stays false-sharing-free when configurations
// are evaluated on parallel workers.
type PerCore struct {
	files []paddedCounterFile
}

// NewPerCore builds a bank for n cores.
func NewPerCore(n int) *PerCore {
	return &PerCore{files: make([]paddedCounterFile, n)}
}

// Cores reports the bank width.
//
//lint:allow unusedexport the §4.1 counter file's pollers wait for ROADMAP B.2 (a daemon that observes itself)
func (p *PerCore) Cores() int { return len(p.files) }

// File returns core i's counter file.
func (p *PerCore) File(i int) *CounterFile { return &p.files[i].CounterFile }

// Aggregate sums the bank into one counter vector, walking cores in
// index order (deterministic regardless of how work was scheduled).
func (p *PerCore) Aggregate() [NumCounters]uint64 {
	var total [NumCounters]uint64
	for i := range p.files {
		for c, v := range p.files[i].v {
			total[c] += v
		}
	}
	return total
}

// Reset zeroes every core's file.
//
//lint:allow unusedexport the §4.1 counter file's pollers wait for ROADMAP B.2 (a daemon that observes itself)
func (p *PerCore) Reset() {
	for i := range p.files {
		p.files[i].Reset()
	}
}

// paddedFloat is one cache-line-padded float accumulator.
type paddedFloat struct {
	v float64
	_ [120]byte
}

// PerCoreFloat is the float companion of PerCore, for quantities the
// simulator keeps in floating point (cycle latencies). Same contract:
// per-core accumulation during the run, one in-order aggregation at
// sweep end.
type PerCoreFloat struct {
	vals []paddedFloat
}

// NewPerCoreFloat builds a bank of n padded accumulators.
func NewPerCoreFloat(n int) *PerCoreFloat {
	return &PerCoreFloat{vals: make([]paddedFloat, n)}
}

// Add accumulates into core i's slot.
func (p *PerCoreFloat) Add(i int, v float64) { p.vals[i].v += v }

// Sum aggregates the bank in index order.
func (p *PerCoreFloat) Sum() float64 {
	total := 0.0
	for i := range p.vals {
		total += p.vals[i].v
	}
	return total
}
