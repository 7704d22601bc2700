package angstrom

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"angstrom/internal/heartbeat"
	"angstrom/internal/sim"
	"angstrom/internal/workload"
)

func TestCounterFileReadAddDelta(t *testing.T) {
	var cf CounterFile
	cf.Add(CtrInstructions, 100)
	cf.Add(CtrL2Misses, 7)
	if cf.Read(CtrInstructions) != 100 || cf.Read(CtrL2Misses) != 7 {
		t.Fatal("counter reads wrong")
	}
	snap := cf.Snapshot()
	cf.Add(CtrInstructions, 50)
	d := cf.Delta(snap)
	if d[CtrInstructions] != 50 || d[CtrL2Misses] != 0 {
		t.Fatalf("delta = %v, want 50 instructions only", d)
	}
	cf.Reset()
	if cf.Read(CtrInstructions) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestCounterNames(t *testing.T) {
	if CtrInstructions.String() != "instructions" || CtrEnergyNJ.String() != "energy_nj" {
		t.Fatal("counter names wrong")
	}
	if CounterID(99).String() == "" {
		t.Fatal("unknown counter must still format")
	}
}

func TestEventQueueFIFOAndOverflow(t *testing.T) {
	q, err := NewEventQueue(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q.Push(Event{Value: uint64(i)})
	}
	if q.Len() != 3 || q.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", q.Len(), q.Dropped())
	}
	for i := 0; i < 3; i++ {
		e, ok := q.Pop()
		if !ok || e.Value != uint64(i) {
			t.Fatalf("Pop %d = %+v, want value %d", i, e, i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue succeeded")
	}
	if _, err := NewEventQueue(0); err == nil {
		t.Fatal("zero-capacity queue accepted")
	}
}

func TestProbeEdgeTriggeredInterrupt(t *testing.T) {
	var cf CounterFile
	var ps ProbeSet
	fired := 0
	err := ps.Attach(&Probe{
		Counter:   CtrL2Misses,
		Op:        OpGE,
		Trigger:   100,
		Interrupt: func(Event) { fired++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	cf.Add(CtrL2Misses, 50)
	ps.Evaluate(&cf, 0)
	if fired != 0 {
		t.Fatal("probe fired below trigger")
	}
	cf.Add(CtrL2Misses, 60) // 110 >= 100
	ps.Evaluate(&cf, 1)
	ps.Evaluate(&cf, 2) // still above: edge-triggered, no refire
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly 1 (edge-triggered)", fired)
	}
}

func TestProbeQueueAndMask(t *testing.T) {
	var cf CounterFile
	var ps ProbeSet
	q, _ := NewEventQueue(8)
	// Watch only the low byte: trigger when low byte == 0x2A.
	if err := ps.Attach(&Probe{
		Counter: CtrInstructions, Op: OpEQ, Trigger: 0x2A, Mask: 0xFF, Queue: q,
	}); err != nil {
		t.Fatal(err)
	}
	cf.Add(CtrInstructions, 0x12A) // low byte 0x2A
	ps.Evaluate(&cf, 5)
	e, ok := q.Pop()
	if !ok || e.Value != 0x12A || e.Time != 5 {
		t.Fatalf("queued event = %+v, want value 0x12A at t=5", e)
	}
}

func TestProbeComparatorOps(t *testing.T) {
	cases := []struct {
		op      CompareOp
		trigger uint64
		value   uint64
		want    bool
	}{
		{OpEQ, 5, 5, true}, {OpEQ, 5, 6, false},
		{OpNE, 5, 6, true}, {OpNE, 5, 5, false},
		{OpLT, 5, 4, true}, {OpLT, 5, 5, false},
		{OpGE, 5, 5, true}, {OpGE, 5, 4, false},
		{OpGT, 5, 6, true}, {OpGT, 5, 5, false},
		{OpLE, 5, 5, true}, {OpLE, 5, 6, false},
	}
	for _, tc := range cases {
		p := Probe{Op: tc.op, Trigger: tc.trigger}
		if got := p.matches(tc.value); got != tc.want {
			t.Errorf("%v %v vs %v = %v, want %v", tc.value, tc.op, tc.trigger, got, tc.want)
		}
	}
}

func TestProbeValidation(t *testing.T) {
	var ps ProbeSet
	if err := ps.Attach(&Probe{Counter: CounterID(99), Interrupt: func(Event) {}}); err == nil {
		t.Fatal("bad counter accepted")
	}
	if err := ps.Attach(&Probe{Counter: CtrCycles}); err == nil {
		t.Fatal("probe without action accepted")
	}
}

func TestCoreEnergyModel(t *testing.T) {
	ce := DefaultCoreEnergy()
	if err := ce.Validate(); err != nil {
		t.Fatal(err)
	}
	// The design anchor: ~10 pJ/cycle at the 0.4 V point (paper's [17]
	// demonstrates 10.2 pJ/cycle at 0.54 V for this class of core).
	if got := ce.DynamicPJPerCycle(0.4); math.Abs(got-10) > 0.1 {
		t.Fatalf("E/cycle at 0.4V = %g pJ, want ~10", got)
	}
	if ce.DynamicPJPerCycle(0.8) != 4*ce.DynamicPJPerCycle(0.4) {
		t.Fatal("CV² scaling broken")
	}
	if ce.LeakW(0.4) >= ce.LeakW(0.8) {
		t.Fatal("leakage must drop at low voltage")
	}
}

func TestPartnerCoreCheaperThanMain(t *testing.T) {
	var cf CounterFile
	q, _ := NewEventQueue(4)
	pc, err := NewPartnerCore(VFPoints()[1], DefaultCoreEnergy(), &cf, q)
	if err != nil {
		t.Fatal(err)
	}
	onPartner := pc.RunDecision(1e6)
	onMain := pc.RunDecisionOnMain(1e6)
	if onPartner.Seconds <= onMain.Seconds {
		t.Fatal("partner core should be slower than the main core")
	}
	// §4.3: the partner draws PowerRatio (~10%) of the main core's power
	// for CPIRatio/FreqRatio times as long, so its energy is
	// 0.1 × 7.5 = 0.75 of the main core's.
	want := pc.PowerRatio * (onPartner.Seconds / onMain.Seconds)
	if math.Abs(want/0.75-1) > 1e-12 {
		t.Fatalf("PowerRatio × partner/main time = %g, want 0.75", want)
	}
	if ratio := onPartner.Joules / onMain.Joules; math.Abs(ratio/want-1) > 1e-12 {
		t.Fatalf("partner/main energy ratio = %g, want %g", ratio, want)
	}
}

// The §4.1→§4.3 chain: probes on the L2 miss counter queue records as
// misses accumulate, and the partner core drains them oldest-first.
func TestPartnerCoreDrainsEvents(t *testing.T) {
	var cf CounterFile
	var ps ProbeSet
	q, _ := NewEventQueue(8)
	pc, _ := NewPartnerCore(VFPoints()[0], DefaultCoreEnergy(), &cf, q)
	for i := uint64(1); i <= 5; i++ {
		if err := ps.Attach(&Probe{Counter: CtrL2Misses, Op: OpGE, Trigger: 10 * i, Queue: q}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		cf.Add(CtrL2Misses, 10)
		ps.Evaluate(&cf, sim.Time(i))
	}
	ev := pc.DrainEvents(3)
	if len(ev) != 3 || ev[0].Counter != CtrL2Misses || ev[0].Value != 10 || ev[2].Value != 30 {
		t.Fatalf("DrainEvents = %+v, want the L2-miss events at 10, 20, 30", ev)
	}
	if len(pc.DrainEvents(10)) != 2 {
		t.Fatal("remaining events wrong")
	}
}

func defaultSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	s, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEvaluateValidation(t *testing.T) {
	p := DefaultParams()
	spec := defaultSpec(t, "barnes")
	bad := []Config{
		{Cores: 0, CacheKB: 64, VF: 0},
		{Cores: 3, CacheKB: 64, VF: 0},
		{Cores: 4, CacheKB: 0, VF: 0},
		{Cores: 4, CacheKB: 64, VF: 9},
		{Cores: 2048, CacheKB: 64, VF: 0},
	}
	for _, cfg := range bad {
		if _, err := Evaluate(p, spec, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := Evaluate(p, spec, Config{Cores: 4, CacheKB: 64, VF: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluatePerformanceScalesWithCores(t *testing.T) {
	p := DefaultParams()
	barnes := defaultSpec(t, "barnes")
	prev := 0.0
	for c := 1; c <= 256; c *= 4 {
		m, err := Evaluate(p, barnes, Config{Cores: c, CacheKB: 64, VF: 1})
		if err != nil {
			t.Fatal(err)
		}
		if m.HeartRate <= prev {
			t.Fatalf("barnes heart rate not increasing at %d cores", c)
		}
		prev = m.HeartRate
	}
}

func TestEvaluateVolrendSaturates(t *testing.T) {
	p := DefaultParams()
	volrend := defaultSpec(t, "volrend")
	m64, _ := Evaluate(p, volrend, Config{Cores: 64, CacheKB: 64, VF: 1})
	m256, _ := Evaluate(p, volrend, Config{Cores: 256, CacheKB: 64, VF: 1})
	if m256.HeartRate > m64.HeartRate*1.3 {
		t.Fatalf("volrend gained %gx from 64→256 cores; should saturate",
			m256.HeartRate/m64.HeartRate)
	}
	if m256.PowerW <= m64.PowerW {
		t.Fatal("more cores must cost more power")
	}
}

func TestEvaluateDVFSTradeoff(t *testing.T) {
	p := DefaultParams()
	water := defaultSpec(t, "water")
	lo, _ := Evaluate(p, water, Config{Cores: 16, CacheKB: 64, VF: 0})
	hi, _ := Evaluate(p, water, Config{Cores: 16, CacheKB: 64, VF: 1})
	if hi.HeartRate <= lo.HeartRate {
		t.Fatal("higher frequency must be faster")
	}
	if hi.PowerW <= lo.PowerW {
		t.Fatal("higher V/f must cost more power")
	}
	// Energy per instruction beyond idle must be better at the
	// low-voltage point — that is the whole point of voltage scaling.
	// (Beyond idle, because the fixed uncore power amortizes over
	// whatever throughput exists; the paper's §5.2 metric subtracts idle
	// for the same reason.)
	loEPI := (lo.PowerW - p.UncoreW) / lo.IPS
	hiEPI := (hi.PowerW - p.UncoreW) / hi.IPS
	if loEPI >= hiEPI {
		t.Fatalf("low-voltage energy/instr %g pJ not below high-voltage %g pJ",
			loEPI*1e12, hiEPI*1e12)
	}
}

func TestEvaluateCacheHelpsOcean(t *testing.T) {
	p := DefaultParams()
	ocean := defaultSpec(t, "ocean")
	small, _ := Evaluate(p, ocean, Config{Cores: 64, CacheKB: 32, VF: 1})
	big, _ := Evaluate(p, ocean, Config{Cores: 64, CacheKB: 128, VF: 1})
	if big.HeartRate <= small.HeartRate {
		t.Fatal("ocean must speed up with more cache")
	}
	if big.MissRate >= small.MissRate {
		t.Fatal("bigger cache must lower miss rate")
	}
}

func TestEvaluateNUCAHelpsCapacityBoundWorkload(t *testing.T) {
	p := DefaultParams()
	ocean := defaultSpec(t, "ocean") // 12 MB working set
	cfg := Config{Cores: 256, CacheKB: 64, VF: 1}
	dir, _ := Evaluate(p, ocean, cfg)
	cfg.Coherence = CoherenceNUCA
	nuca, _ := Evaluate(p, ocean, cfg)
	if nuca.MissRate >= dir.MissRate {
		t.Fatalf("NUCA miss rate %g not below directory %g for ocean", nuca.MissRate, dir.MissRate)
	}
	// And the adaptive protocol must not be worse than both.
	cfg.Coherence = CoherenceAdaptive
	ad, _ := Evaluate(p, ocean, cfg)
	if ad.HeartRate < math.Min(dir.HeartRate, nuca.HeartRate)*0.97 {
		t.Fatal("adaptive protocol worse than both fixed protocols")
	}
}

func TestEvaluateEVCReducesNetworkLatency(t *testing.T) {
	p := DefaultParams()
	barnes := defaultSpec(t, "barnes")
	cfg := Config{Cores: 256, CacheKB: 64, VF: 1}
	base, _ := Evaluate(p, barnes, cfg)
	cfg.EVC = true
	evc, _ := Evaluate(p, barnes, cfg)
	if evc.NetCycles >= base.NetCycles {
		t.Fatal("EVC must cut average network latency on a big mesh")
	}
	if evc.HeartRate <= base.HeartRate {
		t.Fatal("lower network latency must help performance")
	}
}

func TestEvaluateDeterministicProperty(t *testing.T) {
	p := DefaultParams()
	specs := workload.Specs()
	f := func(ci, ki, vi, si uint8) bool {
		cores := 1 << (ci % 9)
		kbs := []int{16, 32, 64, 128, 256}
		cfg := Config{Cores: cores, CacheKB: kbs[int(ki)%len(kbs)], VF: int(vi) % 2}
		spec := specs[int(si)%len(specs)]
		a, err1 := Evaluate(p, spec, cfg)
		b, err2 := Evaluate(p, spec, cfg)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		if a != b {
			return false
		}
		return a.HeartRate > 0 && a.PowerW > 0 && a.CPI >= 1 &&
			a.MissRate >= 0 && a.MissRate <= 1 && a.MemRho >= 0 && a.MemRho <= 0.95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateDetailedAgreesWithStatistical(t *testing.T) {
	// The two modes share the assembler; the trace-driven caches should
	// produce miss rates in the same regime as the analytic curve, and
	// headline metrics should agree within a factor of 2 — they are
	// calibrated models of the same machine, not independent guesses.
	p := DefaultParams()
	barnes := defaultSpec(t, "barnes")
	cfg := Config{Cores: 16, CacheKB: 64, VF: 1}
	stat, err := Evaluate(p, barnes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := EvaluateDetailed(p, barnes, cfg, 200000, 42)
	if err != nil {
		t.Fatal(err)
	}
	ratio := det.HeartRate / stat.HeartRate
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("detailed/statistical heart-rate ratio = %g, want within 2x", ratio)
	}
	if det.PowerW <= 0 {
		t.Fatal("detailed power must be positive")
	}
}

func TestEvaluateDetailedCacheSizeEffect(t *testing.T) {
	p := DefaultParams()
	ocean := defaultSpec(t, "ocean")
	small, err := EvaluateDetailed(p, ocean, Config{Cores: 4, CacheKB: 16, VF: 1}, 120000, 7)
	if err != nil {
		t.Fatal(err)
	}
	big, err := EvaluateDetailed(p, ocean, Config{Cores: 4, CacheKB: 256, VF: 1}, 120000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if big.MissRate >= small.MissRate {
		t.Fatalf("detailed: 256KB miss %g not below 16KB miss %g", big.MissRate, small.MissRate)
	}
	if big.HeartRate <= small.HeartRate {
		t.Fatal("detailed: bigger cache must be faster for ocean")
	}
}

func TestEvaluateDetailedRejectsTinyTrace(t *testing.T) {
	p := DefaultParams()
	if _, err := EvaluateDetailed(p, defaultSpec(t, "barnes"),
		Config{Cores: 4, CacheKB: 64, VF: 1}, 10, 1); err == nil {
		t.Fatal("tiny trace accepted")
	}
}

// Regression: an interval at IPS <= 0 (or NaN) divided by zero and moved
// the clock by ±Inf/NaN; it must error without advancing time. The
// guard itself lives in workload.Cursor (table-tested there); this pins
// that a partition surfaces it, driving a model whose clock frequency
// makes the evaluated IPS non-positive.
func TestAdvanceRejectsNonPositiveIPS(t *testing.T) {
	for _, fhz := range []float64{0, -1, math.NaN()} {
		p := DefaultParams()
		p.VF = append([]VFPoint(nil), p.VF...)
		p.VF[0].FHz = fhz
		sc, err := NewSharedChip(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		pt, mon := acquire(t, sc, "a", 1, 1)
		if ips := pt.Metrics().IPS; ips > 0 {
			t.Fatalf("clock frequency %g still evaluates to IPS %g; the test no longer reaches the guard", fhz, ips)
		}
		if err := pt.Advance(1); err == nil {
			t.Fatalf("advance accepted clock frequency %g", fhz)
		}
		if pt.Now() != 0 || mon.Count() != 0 {
			t.Fatalf("rejected clock frequency %g moved the frontier to %g with %d beats", fhz, pt.Now(), mon.Count())
		}
	}
}

// Regression: a non-positive per-beat work target spun the loop forever
// (tBeat <= 0 never reaches the interval end); it must error instead.
// Acquire's model evaluation refuses the spec first, and holds nothing;
// the loop's guard is table-tested on workload.Cursor.
func TestAdvanceRejectsNonPositiveWork(t *testing.T) {
	sc := newSharedChip(t, 4)
	bad := defaultSpec(t, "barnes")
	bad.InstrPerBeat = -5 // NewInstance does not validate
	_, err := sc.Acquire("bad", workload.NewInstance(bad, 1), heartbeat.New(sim.NewClock(0)),
		Config{Cores: 1, CacheKB: 64, VF: 0}, 1, 0)
	if err == nil || !strings.Contains(err.Error(), "non-positive work per beat") {
		t.Fatalf("Acquire error = %v, want non-positive work per beat", err)
	}
	if parts, used := sc.Usage(); parts != 0 || used != 0 {
		t.Fatalf("refused acquire holds %d partitions, %g core-equivalents", parts, used)
	}
}

// Attributed power is active power beyond the uncore floor, clamped at
// zero: a partition whose model power is below the floor is charged
// nothing, and still runs.
func TestAdvanceClampsPowerBelowUncore(t *testing.T) {
	sc := newSharedChip(t, 4)
	pt, mon := acquire(t, sc, "a", 1, 1)
	// The model's PowerW includes UncoreW, so the floor is raised past it
	// after the evaluation.
	sc.p.UncoreW = 2 * pt.Metrics().PowerW
	if err := pt.Advance(1); err != nil {
		t.Fatal(err)
	}
	if s := pt.Sense(); s.PowerW != 0 || s.EnergyJ != 0 {
		t.Fatalf("below the uncore floor: power %g W, energy %g J; want 0, 0", s.PowerW, s.EnergyJ)
	}
	if mon.Count() == 0 {
		t.Fatal("no beats emitted")
	}
}

// The interval chip model — the inner loop of every Figure-4 sweep —
// allocates nothing (BenchmarkChipEvaluate). AllocsPerRun truncates its
// mean to an integer, so it makes one run of n evaluations and the
// count it returns is every allocation they made.
func TestEvaluateAllocatesNothing(t *testing.T) {
	const n = 1024
	p := DefaultParams()
	ocean := defaultSpec(t, "ocean")
	cfg := Config{Cores: 256, CacheKB: 64, VF: 1}
	var err error
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = Evaluate(p, ocean, cfg)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("%d evaluations allocated %g objects, want 0", n, allocs)
	}
}
