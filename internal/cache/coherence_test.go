package cache

import (
	"testing"

	"angstrom/internal/noc"
	"angstrom/internal/sim"
)

// lineNet is a stub interconnect: tiles on a line, 2 cycles per hop.
type lineNet struct{}

func (lineNet) Hops(src, dst int) int {
	if src > dst {
		src, dst = dst, src
	}
	return dst - src
}

func (n lineNet) LatencyCycles(src, dst int) float64 {
	return float64(3 + 2*n.Hops(src, dst))
}

func newTiles(t *testing.T, n, kb int) []*Cache {
	t.Helper()
	out := make([]*Cache, n)
	for i := range out {
		out[i] = mustCache(t, kb, 8)
	}
	return out
}

func newDir(t *testing.T, n, kb int) *Directory {
	t.Helper()
	d, err := NewDirectory(newTiles(t, n, kb), lineNet{}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newNUCA(t *testing.T, n, kb int) *NUCA {
	t.Helper()
	nu, err := NewNUCA(newTiles(t, n, kb), lineNet{}, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	return nu
}

func TestDirectoryColdMissGoesToMemory(t *testing.T) {
	d := newDir(t, 4, 64)
	out := d.Access(0, 1000, false)
	if out.Hit {
		t.Fatal("cold miss reported as on-chip hit")
	}
	if out.MemAccesses != 1 {
		t.Fatalf("MemAccesses = %d, want 1", out.MemAccesses)
	}
	if out.Cycles <= 100 {
		t.Fatalf("cycles = %g, must exceed memory latency", out.Cycles)
	}
}

func TestDirectoryLocalHitIsCheap(t *testing.T) {
	d := newDir(t, 4, 64)
	d.Access(0, 1000, false)
	out := d.Access(0, 1000, false)
	if !out.Hit || out.Cycles != 2 || out.Flits != 0 {
		t.Fatalf("local read hit = %+v, want 2 cycles, no traffic", out)
	}
}

func TestDirectoryCacheToCacheTransfer(t *testing.T) {
	d := newDir(t, 4, 64)
	d.Access(0, 1000, false) // memory fill to core 0
	out := d.Access(1, 1000, false)
	if !out.Hit {
		t.Fatal("second core's read should be serviced on chip")
	}
	if out.MemAccesses != 0 {
		t.Fatalf("MemAccesses = %d, want 0 (cache-to-cache)", out.MemAccesses)
	}
}

func TestDirectoryWriteInvalidatesSharers(t *testing.T) {
	d := newDir(t, 4, 64)
	d.Access(0, 1000, false)
	d.Access(1, 1000, false)
	d.Access(2, 1000, false)
	// Core 3 writes: all other copies must die.
	d.Access(3, 1000, true)
	for core := 0; core < 3; core++ {
		if d.caches[core].Contains(1000) {
			t.Fatalf("core %d still caches line after remote write", core)
		}
	}
	// Core 3's subsequent write is an exclusive local hit.
	out := d.Access(3, 1000, true)
	if !out.Hit || out.Flits != 0 {
		t.Fatalf("exclusive write hit = %+v, want silent local hit", out)
	}
}

func TestDirectoryDirtyForwarding(t *testing.T) {
	d := newDir(t, 4, 64)
	d.Access(0, 1000, true) // core 0 owns dirty
	out := d.Access(1, 1000, false)
	if !out.Hit || out.MemAccesses != 0 {
		t.Fatalf("read of dirty remote = %+v, want forwarded on-chip", out)
	}
	// After downgrade both cores share; another read hits locally.
	if !d.caches[0].Contains(1000) {
		t.Fatal("previous owner lost its copy on downgrade")
	}
}

func TestDirectoryUpgradeOnSharedWrite(t *testing.T) {
	d := newDir(t, 4, 64)
	d.Access(0, 1000, false)
	d.Access(1, 1000, false)
	out := d.Access(0, 1000, true) // upgrade
	if !out.Hit {
		t.Fatal("upgrade treated as miss")
	}
	if d.caches[1].Contains(1000) {
		t.Fatal("sharer survived upgrade")
	}
}

func TestNUCASingleCopyNoInvalidations(t *testing.T) {
	nu := newNUCA(t, 4, 64)
	for core := 0; core < 4; core++ {
		nu.Access(core, 1000, true)
	}
	if s := nu.Stats(); s.Invalidations != 0 {
		t.Fatalf("NUCA produced %d invalidations, want 0", s.Invalidations)
	}
	// Exactly one slice holds the line.
	holders := 0
	for _, c := range nu.slices {
		if c.Contains(1000 / 4) {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("line held by %d slices, want 1", holders)
	}
}

func TestNUCARemoteAccessPaysNetwork(t *testing.T) {
	nu := newNUCA(t, 4, 64)
	line := uint64(1001) // home = 1001 % 4 = 1
	nu.Access(1, line, false)
	local := nu.Access(1, line, false)
	remote := nu.Access(3, line, false)
	if !local.Hit || !remote.Hit {
		t.Fatal("warm NUCA accesses should hit")
	}
	if remote.Cycles <= local.Cycles {
		t.Fatalf("remote slice access (%g cycles) must cost more than home access (%g)",
			remote.Cycles, local.Cycles)
	}
	if remote.Flits == 0 {
		t.Fatal("remote access generated no traffic")
	}
}

// TestNUCACapacityBeatsDirectoryOnHugeSharedSet reproduces the ARCc
// trade-off: a shared working set larger than one tile's cache but
// smaller than the chip's aggregate capacity thrashes per-tile private
// caches under the directory protocol but fits the NUCA aggregate.
func TestNUCACapacityBeatsDirectoryOnHugeSharedSet(t *testing.T) {
	const tiles, kb = 16, 64
	// Working set: 16 × 64 KB = 1 MB aggregate; use 8192 lines (512 KB).
	const wsLines = 8192
	run := func(p Protocol) float64 {
		rng := sim.NewRNG(5)
		misses := 0
		const accesses = 60000
		for i := 0; i < accesses; i++ {
			core := rng.Intn(tiles)
			line := uint64(rng.Intn(wsLines))
			out := p.Access(core, line, false)
			if out.MemAccesses > 0 {
				misses++
			}
		}
		return float64(misses) / accesses
	}
	dirMiss := run(newDir(t, tiles, kb))
	nucaMiss := run(newNUCA(t, tiles, kb))
	if nucaMiss >= dirMiss {
		t.Fatalf("NUCA off-chip rate %g not below directory %g on capacity-bound set",
			nucaMiss, dirMiss)
	}
}

// TestDirectoryLatencyBeatsNUCAOnPrivateSets: private per-core data with
// high locality favours the directory protocol (local hits, no network).
func TestDirectoryLatencyBeatsNUCAOnPrivateSets(t *testing.T) {
	const tiles, kb = 16, 64
	run := func(p Protocol) float64 {
		rng := sim.NewRNG(6)
		cycles := 0.0
		const accesses = 40000
		for i := 0; i < accesses; i++ {
			core := rng.Intn(tiles)
			// 256 hot private lines per core, disjoint regions.
			line := uint64(core*10000 + rng.Intn(256))
			cycles += p.Access(core, line, false).Cycles
		}
		return cycles / accesses
	}
	dirLat := run(newDir(t, tiles, kb))
	nucaLat := run(newNUCA(t, tiles, kb))
	if dirLat >= nucaLat {
		t.Fatalf("directory latency %g not below NUCA %g on private working sets",
			dirLat, nucaLat)
	}
}

func TestAdaptiveSelectsNUCAForCapacityBoundSharing(t *testing.T) {
	const tiles, kb = 16, 64
	ad, err := NewAdaptive(newDir(t, tiles, kb), newNUCA(t, tiles, kb), 2048, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 120000; i++ {
		core := rng.Intn(tiles)
		line := uint64(rng.Intn(8192))
		ad.Access(core, line, false)
	}
	if ad.Active() != "shared-nuca" {
		t.Fatalf("adaptive protocol settled on %s, want shared-nuca", ad.Active())
	}
}

func TestAdaptiveSelectsDirectoryForPrivateLocality(t *testing.T) {
	const tiles, kb = 16, 64
	ad, err := NewAdaptive(newDir(t, tiles, kb), newNUCA(t, tiles, kb), 2048, 500)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(8)
	for i := 0; i < 120000; i++ {
		core := rng.Intn(tiles)
		line := uint64(core*10000 + rng.Intn(256))
		ad.Access(core, line, false)
	}
	if ad.Active() != "directory-msi" {
		t.Fatalf("adaptive protocol settled on %s, want directory-msi", ad.Active())
	}
}

func TestAdaptiveForceProtocol(t *testing.T) {
	ad, err := NewAdaptive(newDir(t, 4, 64), newNUCA(t, 4, 64), 1024, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := ad.ForceProtocol(1); err != nil {
		t.Fatal(err)
	}
	if ad.Active() != "shared-nuca" {
		t.Fatalf("Active = %s after ForceProtocol(1)", ad.Active())
	}
	// Forced: many accesses must not flip it back.
	rng := sim.NewRNG(9)
	for i := 0; i < 30000; i++ {
		ad.Access(rng.Intn(4), uint64(rng.Intn(100)), false)
	}
	if ad.Active() != "shared-nuca" {
		t.Fatal("forced protocol changed autonomously")
	}
	if err := ad.ForceProtocol(5); err == nil {
		t.Fatal("bad protocol index accepted")
	}
}

func TestAdaptiveRejectsBadConfig(t *testing.T) {
	if _, err := NewAdaptive(nil, nil, 1024, 0); err == nil {
		t.Fatal("nil protocols accepted")
	}
	if _, err := NewAdaptive(newDir(t, 2, 64), newNUCA(t, 2, 64), 4, 0); err == nil {
		t.Fatal("tiny epoch accepted")
	}
}

func TestProtocolsRejectEmptyCaches(t *testing.T) {
	if _, err := NewDirectory(nil, lineNet{}, 1, 10); err == nil {
		t.Fatal("empty directory accepted")
	}
	if _, err := NewNUCA(nil, lineNet{}, 1, 10); err == nil {
		t.Fatal("empty NUCA accepted")
	}
}

// TestDirShardGrowthKeepsEntriesFindable is the regression gate for the
// open-addressing rehash: entries re-inserted by grow() must use the
// same probe key as entry()/lookup (the hash shifted past the
// shard-selection bits), or lines silently duplicate after the table
// grows and coherence state forks.
func TestDirShardGrowthKeepsEntriesFindable(t *testing.T) {
	var s dirShard
	s.init(1)
	const lines = 5000 // forces many doublings from the 64-slot start
	for pass := 0; pass < 3; pass++ {
		for line := uint64(0); line < lines; line++ {
			s.find(line, hashLine(line)>>4)
		}
	}
	if s.used != lines {
		t.Fatalf("shard holds %d entries for %d distinct lines (growth created duplicates)", s.used, lines)
	}
	for line := uint64(0); line < lines; line++ {
		if s.lookup(line, hashLine(line)>>4) < 0 {
			t.Fatalf("line %d unfindable after growth", line)
		}
	}
}

// TestDirectoryStateSurvivesTableGrowth checks the same property at the
// protocol surface: a sharer recorded before the table grows must still
// be invalidated by a write that lands after it.
func TestDirectoryStateSurvivesTableGrowth(t *testing.T) {
	d := newDir(t, 4, 256) // 4096-line tiles: nothing evicts below
	line := uint64(12345)
	d.Access(0, line, false) // core 0 shares early
	// Touch enough distinct lines to force every shard through growth.
	for l := uint64(0); l < 3000; l++ {
		d.Access(1, 100000+l*4, false)
	}
	out := d.Access(2, line, false)
	if !out.Hit || out.MemAccesses != 0 {
		t.Fatalf("read of a pre-growth shared line = %+v, want on-chip forward", out)
	}
	d.Access(3, line, true)
	if d.caches[0].Contains(line) {
		t.Fatal("pre-growth sharer survived a post-growth write (directory lost its bit)")
	}
}

// TestDirectoryBroadcastBeyond32Sharers drives the sharer bitset past a
// 32-bit word: 48 cores read the same line, then one writes. Every one
// of the 47 remote copies must be invalidated in a single upgrade, and
// the write must generate one invalidation round-trip per remote sharer.
func TestDirectoryBroadcastBeyond32Sharers(t *testing.T) {
	const tiles = 48
	d := newDir(t, tiles, 64)
	line := uint64(4242)
	for core := 0; core < tiles; core++ {
		d.Access(core, line, false)
	}
	writer := tiles - 1
	out := d.Access(writer, line, true)
	if !out.Hit {
		t.Fatal("upgrade on a fully-shared line treated as off-chip miss")
	}
	// 47 invalidations + 47 acks + the upgrade request itself.
	if wantMin := 2*(tiles-1) + 1; out.Flits < wantMin {
		t.Fatalf("broadcast generated %d flits, want >= %d", out.Flits, wantMin)
	}
	for core := 0; core < tiles; core++ {
		if core == writer {
			if !d.caches[core].Contains(line) {
				t.Fatal("writer lost its own copy during the broadcast")
			}
			continue
		}
		if d.caches[core].Contains(line) {
			t.Fatalf("core %d (bit %d of a >32-sharer set) survived the broadcast", core, core)
		}
	}
	if s := d.Stats(); s.Invalidations != tiles-1 {
		t.Fatalf("%d invalidations recorded, want %d", s.Invalidations, tiles-1)
	}
	// The writer now owns the line exclusively: silent local write hits.
	if out := d.Access(writer, line, true); !out.Hit || out.Flits != 0 {
		t.Fatalf("post-broadcast write = %+v, want silent exclusive hit", out)
	}
}

// TestDirectoryOwnerDowngradePath pins the dirty-owner bookkeeping
// through a downgrade: after a remote read the old owner must remain a
// sharer (not owner), so a third core's write invalidates both copies.
func TestDirectoryOwnerDowngradePath(t *testing.T) {
	d := newDir(t, 8, 64)
	line := uint64(77)
	d.Access(0, line, true)  // core 0 dirty owner
	d.Access(1, line, false) // downgrade: 0 and 1 now share
	// A write from core 2 must invalidate both previous holders and no
	// memory fetch may occur (the data is on chip).
	out := d.Access(2, line, true)
	if !out.Hit || out.MemAccesses != 0 {
		t.Fatalf("write after downgrade = %+v, want on-chip service", out)
	}
	if d.caches[0].Contains(line) || d.caches[1].Contains(line) {
		t.Fatal("downgraded owner or sharer survived a remote write")
	}
	// Core 2 is the new exclusive owner: a dirty eviction must write back.
	if !d.caches[2].Contains(line) {
		t.Fatal("writer did not fill its cache")
	}
}

// TestDirectoryResetDropsAllState covers the directory-reset path of the
// sharded table: FlushAll after heavy multi-word traffic must leave no
// sharer, owner, or entry behind.
func TestDirectoryResetDropsAllState(t *testing.T) {
	const tiles = 40
	d := newDir(t, tiles, 64)
	rng := sim.NewRNG(11)
	for i := 0; i < 20000; i++ {
		d.Access(rng.Intn(tiles), uint64(rng.Intn(2048)), rng.Float64() < 0.3)
	}
	if wb := d.FlushAll(); wb < 1 {
		t.Fatalf("FlushAll wrote back %d lines, want >= 1 after dirty traffic", wb)
	}
	for _, sh := range d.shards {
		if sh.used != 0 {
			t.Fatalf("shard retained %d entries after reset", sh.used)
		}
	}
	// Every post-reset first touch is a cold miss.
	for core := 0; core < 4; core++ {
		if out := d.Access(core, uint64(1000+core), false); out.MemAccesses != 1 {
			t.Fatalf("core %d post-reset access = %+v, want cold memory fill", core, out)
		}
	}
}

// TestDirectoryEvictionClearsSharerBit: an eviction must drop the
// core's bit so later writes skip the stale sharer; with >32 cores this
// exercises the multi-word clear path.
func TestDirectoryEvictionClearsSharerBit(t *testing.T) {
	const tiles = 34
	d := newDir(t, tiles, 16) // small cache: easy to evict
	line := uint64(33)        // lands in core-33 territory of the bitset's second word
	d.Access(33, line, false)
	// Thrash core 33's cache with conflicting lines until 'line' is gone.
	set := d.caches[33]
	for i := uint64(1); set.Contains(line); i++ {
		d.Access(33, line+i*4096, false)
	}
	inv := d.Stats().Invalidations
	// A write from core 0 must not try to invalidate core 33.
	d.Access(0, line, true)
	if got := d.Stats().Invalidations; got != inv {
		t.Fatalf("write invalidated %d stale copies; eviction left the sharer bit set", got-inv)
	}
}

func TestFlushAllResetsProtocols(t *testing.T) {
	d := newDir(t, 4, 64)
	d.Access(0, 1, true)
	d.Access(1, 1, false)
	if wb := d.FlushAll(); wb < 1 {
		t.Fatalf("FlushAll writebacks = %d, want >= 1", wb)
	}
	out := d.Access(2, 1, false)
	if out.MemAccesses != 1 {
		t.Fatal("directory state survived FlushAll")
	}
}

// A warmed coherence access over the real mesh allocates nothing, under
// the directory and under NUCA (BenchmarkDetailedAccess/directory and
// /nuca): the sharded directory table, the sharer bitsets and the
// mesh's per-pair latency memo stop growing once warm. AllocsPerRun
// truncates its mean to an integer, so it makes one run of n accesses
// and the count it returns is every allocation they made.
func TestDetailedAccessAllocatesNothing(t *testing.T) {
	const tiles, n = 16, 1 << 14
	for _, tc := range []struct {
		name string
		make func([]*Cache, Network) (Protocol, error)
	}{
		{"directory", func(c []*Cache, net Network) (Protocol, error) { return NewDirectory(c, net, 2, 100) }},
		{"nuca", func(c []*Cache, net Network) (Protocol, error) { return NewNUCA(c, net, 2, 100) }},
	} {
		mesh, err := noc.NewMesh(noc.DefaultConfig(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		p, err := tc.make(newTiles(t, tiles, 64), mesh)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(3)
		i := 0
		access := func() {
			core := rng.Intn(tiles)
			var line uint64
			if i%2 == 0 {
				line = uint64(rng.Intn(4096)) // shared
			} else {
				line = uint64(core*100000 + rng.Intn(256)) // private
			}
			p.Access(core, line, rng.Float64() < 0.3)
			i++
		}
		for i < 200000 { // warm until the directory table and latency memos stop growing
			access()
		}
		allocs := testing.AllocsPerRun(1, func() {
			for j := 0; j < n; j++ {
				access()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %d warm accesses allocated %g objects, want 0", tc.name, n, allocs)
		}
	}
}
