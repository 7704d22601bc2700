package server

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The sharded application directory. One daemon mutex in front of a
// single map bounds fleet size long before the ingestion path does:
// every beat, status read, and tick snapshot serializes on it. The
// directory instead hashes application names across N shards. Reads
// (the beat hot path, status lookups, tick snapshots) are lock-free:
// each shard publishes an open-addressed table of atomic slots (name
// lookup) and a slice in insertion order (iteration) through atomic
// pointers. Writers (enroll/withdraw) serialize on the shard's mutex
// and do amortized O(1) work: an insert fills an empty slot of the
// published table in place and appends to the list, a remove leaves a
// tombstone, and the table is rebuilt and swapped only when live
// entries plus tombstones pass half its slots — so enrolling a fleet
// (live or at boot) is linear in its size, not quadratic. The tick fans
// its per-application phases across a worker pool one shard at a time,
// so decide-phase work scales with cores instead of running
// single-threaded, and its snapshot phase is a slice-header load per
// shard rather than a map walk.

// dirTable is one shard's name index: linear probing over atomic slots.
// Inside one table a slot only ever goes nil → app → tombstone, so no
// probe chain a reader is walking can break under it; reclaiming
// tombstones means building a new table. used is writer state, guarded
// by the shard mutex.
type dirTable struct {
	slots []atomic.Pointer[app]
	mask  uint64
	shift uint // 64 - log2(len(slots))
	used  int  // slots no longer nil: live entries + tombstones
}

// tombstone marks a slot whose application was removed: probes step
// over it instead of stopping.
var tombstone = new(app)

// minTableSlots is the smallest table a shard publishes.
const minTableSlots = 8 // 1 << 3: newDirTable's starting shift assumes it

// newDirTable sizes a table for live entries at a load of at most 1/4,
// so at least as many inserts again fit before the next rebuild.
func newDirTable(live int) *dirTable {
	size, shift := minTableSlots, uint(64-3)
	for size < 4*live {
		size <<= 1
		shift--
	}
	return &dirTable{slots: make([]atomic.Pointer[app], size), mask: uint64(size - 1), shift: shift}
}

// find probes for name (hash h), returning its slot index, or the
// chain's terminating empty slot and a nil app when the name is absent.
// Load stays at or below 1/2, so an empty slot always ends the probe.
//
// The probe starts at the top bits of a Fibonacci multiply of the hash,
// which every bit of h reaches. FNV-1a's own bits will not do: the low
// ones picked the shard, and the middle ones barely differ between
// names that differ only in their last characters ("app-00041",
// "app-00042"), which would pile a fleet onto a few long probe chains.
//
//angstrom:hotpath
func (t *dirTable) find(h uint64, name string) (uint64, *app) {
	for i := (h * 0x9E3779B97F4A7C15) >> t.shift; ; i++ {
		a := t.slots[i&t.mask].Load()
		if a == nil {
			return i & t.mask, nil
		}
		if a != tombstone && a.hash == h && a.name == name {
			return i & t.mask, a
		}
	}
}

// dirShard is one slice of the directory. The mutex serializes writers
// only; readers go straight through the atomic pointers.
type dirShard struct {
	mu    sync.Mutex
	table atomic.Pointer[dirTable]
	// list is the shard's apps in insertion order — the tick's iteration
	// order. A published header is never shortened or rewritten: insert
	// appends past its length (in place when the backing array has room,
	// which readers holding the shorter header cannot see) and publishes
	// a longer one; remove publishes a copy.
	list atomic.Pointer[[]*app]
	// Pad the struct to a full 64-byte cache line (8 mutex + 16
	// pointers + 40) so write-heavy churn on one shard does not
	// false-share a line with its neighbors' read pointers
	// (TestDirShardFillsCacheLine holds the arithmetic to the fields).
	_ [40]byte
}

// directory is the N-way sharded application index.
type directory struct {
	shards []dirShard
	mask   uint64
	count  atomic.Int64
}

// defaultShardCount sizes the directory when the config does not:
// enough shards that tick workers (one per core) rarely idle behind a
// straggler shard and writer contention spreads, without making
// tiny-fleet snapshots scan hundreds of empty shards.
func defaultShardCount() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 128 {
		n = 128
	}
	return n
}

// newDirectory builds a directory with n shards (rounded up to a power
// of two so the hash can mask instead of mod).
func newDirectory(n int) *directory {
	size := 1
	for size < n {
		size <<= 1
	}
	d := &directory{shards: make([]dirShard, size), mask: uint64(size - 1)}
	for i := range d.shards {
		d.shards[i].table.Store(newDirTable(0))
		d.shards[i].list.Store(new([]*app))
	}
	return d
}

// hashName is FNV-1a over the name; its low bits pick the shard. A
// fixed hash (not a per-directory random seed) keeps shard assignment —
// and therefore tick iteration order — identical across daemons and
// runs: the same determinism discipline Sweep follows, enforced by the
// replay tests.
//
//angstrom:hotpath
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// get is the lock-free read path: one hash, one atomic load, one short
// probe. Beat ingestion rides entirely on it.
//
//angstrom:hotpath
func (d *directory) get(name string) (*app, bool) {
	h := hashName(name)
	_, a := d.shards[h&d.mask].table.Load().find(h, name)
	return a, a != nil
}

// insert adds an application, reporting false on a duplicate name. It
// stamps the app's hash and shard index, so the ingestion path can bump
// the shard's beat counter without rehashing the name per batch.
// Directory membership is journaled state: only persist.go writers
// (enroll live or replayed) may call it.
//
//angstrom:journaled mutator
func (d *directory) insert(name string, a *app) bool {
	a.hash = hashName(name)
	a.shard = int(a.hash & d.mask)
	s := &d.shards[a.shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	slot, dup := t.find(a.hash, name)
	if dup != nil {
		return false
	}
	list := *s.list.Load()
	if 2*(t.used+1) > len(t.slots) {
		// Rebuild without the tombstones, sized for the survivors. Readers
		// still probing the old table see the directory as of the swap.
		t = newDirTable(len(list) + 1)
		for _, b := range list {
			i, _ := t.find(b.hash, b.name)
			t.slots[i].Store(b)
		}
		t.used = len(list)
		s.table.Store(t)
		slot, _ = t.find(a.hash, name)
	}
	t.slots[slot].Store(a)
	t.used++
	list = append(list, a)
	s.list.Store(&list)
	d.count.Add(1)
	return true
}

// remove deletes an application, returning it (ok=false if absent).
// Directory membership is journaled state: only persist.go writers
// (withdraw/evict live or replayed) may call it.
//
//angstrom:journaled mutator
func (d *directory) remove(name string) (*app, bool) {
	h := hashName(name)
	s := &d.shards[h&d.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.table.Load()
	slot, a := t.find(h, name)
	if a == nil {
		return nil, false
	}
	t.slots[slot].Store(tombstone)
	oldList := *s.list.Load()
	nextList := make([]*app, 0, len(oldList)-1)
	for _, v := range oldList {
		if v != a {
			nextList = append(nextList, v)
		}
	}
	s.list.Store(&nextList)
	d.count.Add(-1)
	return a, true
}

// len reports the enrolled-application count.
func (d *directory) len() int { return int(d.count.Load()) }

// snapshot appends every enrolled application to buf and returns it.
// The result is a point-in-time view: apps withdrawn afterwards remain
// in the slice (callers re-check identity via get before acting).
func (d *directory) snapshot(buf []*app) []*app {
	for i := range d.shards {
		buf = append(buf, *d.shards[i].list.Load()...)
	}
	return buf
}

// shardList returns shard i's published app slice. Writers never touch
// the elements a published header covers, so callers may hold it across
// an entire tick without copying.
//
//angstrom:hotpath
func (d *directory) shardList(i int) []*app { return *d.shards[i].list.Load() }

// forEachShard runs fn(shard index) across a pool of `workers`
// goroutines, each claiming whole shards so per-shard state never needs
// cross-worker synchronization. workers <= 1 runs inline — the serial
// pass the parallel one must match byte for byte.
func (d *directory) forEachShard(workers int, fn func(shard int)) {
	n := len(d.shards)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
