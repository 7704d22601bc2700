package server

import (
	"slices"
	"sync"
	"sync/atomic"
)

// The application directory. One daemon mutex in front of a single map
// bounds fleet size long before the ingestion path does: every beat,
// status read, and tick snapshot serializes on it. The directory
// instead keeps two lock-free views. Name lookup (the beat hot path,
// status reads) probes one open-addressed table of atomic slots behind
// an atomic pointer. Iteration reads one published slice of every app
// in insertion order: admissions insert under the daemon mutex, so
// insertion order is enrollment order, and every pass that writes state
// (the tick's phases, makeRoom, the snapshot image) walks that one
// list. Writers (enroll/withdraw) serialize on one mutex and do
// amortized O(1) table work: an insert fills an empty slot of the
// published table in place and appends to the list, a remove leaves a
// tombstone and publishes a copy of the list without the app, and the
// table is rebuilt and swapped only when live entries plus tombstones
// pass half its slots — so enrolling a fleet (live or at boot) is
// linear in its size, not quadratic.

// dirTable is the name index: linear probing over atomic slots.
// Inside one table a slot only ever goes nil → app → tombstone, so no
// probe chain a reader is walking can break under it; reclaiming
// tombstones means building a new table. used and live are writer
// state, guarded by the directory mutex.
type dirTable struct {
	slots []atomic.Pointer[app]
	mask  uint64
	shift uint // 64 - log2(len(slots))
	used  int  // slots no longer nil: live entries + tombstones
	live  int  // slots holding an app
}

// tombstone marks a slot whose application was removed: probes step
// over it instead of stopping.
var tombstone = new(app)

// minTableSlots is the smallest table the directory publishes.
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
// which every bit of h reaches. FNV-1a's own low and middle bits will
// not do: they barely differ between names that differ only in their
// last characters ("app-00041", "app-00042"), which would pile a fleet
// onto a few long probe chains.
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

// rebuilt returns a fresh table holding t's live entries and room for
// one more: readers still probing t see the directory as of the swap.
func (t *dirTable) rebuilt() *dirTable {
	n := newDirTable(t.live + 1)
	for i := range t.slots {
		if b := t.slots[i].Load(); b != nil && b != tombstone {
			j, _ := n.find(b.hash, b.name)
			n.slots[j].Store(b)
		}
	}
	n.used, n.live = t.live, t.live
	return n
}

// directory is the application index: one name table for lookup, one
// list for iteration. The mutex serializes writers only; readers go
// straight through the atomic pointers.
type directory struct {
	mu    sync.Mutex
	table atomic.Pointer[dirTable]
	// list is every enrolled app in insertion order. A published header
	// is never shortened or rewritten: insert appends past its length
	// (in place when the backing array has room, which readers holding
	// the shorter header cannot see) and publishes a longer one; remove
	// publishes a copy.
	list atomic.Pointer[[]*app]
}

// newDirectory builds an empty directory.
func newDirectory() *directory {
	d := &directory{}
	d.table.Store(newDirTable(0))
	d.list.Store(new([]*app))
	return d
}

// hashName is FNV-1a over the name; find spreads it over the table. A
// fixed hash (not a per-directory random seed) keeps the table's layout
// a function of the names alone, the same determinism discipline Sweep
// follows.
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
	_, a := d.table.Load().find(h, name)
	return a, a != nil
}

// insert adds an application at the end of the list, reporting false on
// a duplicate name. It stamps the app's hash, which lookups compare
// before names. Directory membership is journaled state: only
// persist.go writers (enroll live or replayed) may call it.
//
//angstrom:journaled mutator
func (d *directory) insert(name string, a *app) bool {
	a.hash = hashName(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.table.Load()
	slot, dup := t.find(a.hash, name)
	if dup != nil {
		return false
	}
	if 2*(t.used+1) > len(t.slots) {
		t = t.rebuilt()
		d.table.Store(t)
		slot, _ = t.find(a.hash, name)
	}
	t.slots[slot].Store(a)
	t.used++
	t.live++
	list := append(d.apps(), a)
	d.list.Store(&list)
	return true
}

// remove deletes an application, returning it (ok=false if absent); the
// apps after it keep their order. Directory membership is journaled
// state: only persist.go writers (withdraw/evict live or replayed) may
// call it.
//
//angstrom:journaled mutator
func (d *directory) remove(name string) (*app, bool) {
	h := hashName(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.table.Load()
	slot, a := t.find(h, name)
	if a == nil {
		return nil, false
	}
	t.slots[slot].Store(tombstone)
	t.live--
	old := d.apps()
	i := slices.Index(old, a)
	list := make([]*app, 0, len(old)-1)
	list = append(append(list, old[:i]...), old[i+1:]...)
	d.list.Store(&list)
	return a, true
}

// len reports the enrolled-application count.
func (d *directory) len() int { return len(d.apps()) }

// apps returns every enrolled application in insertion (enrollment)
// order: the published list itself. Writers never touch the elements a
// published header covers, so callers may hold it across an entire
// tick without copying; apps withdrawn afterwards remain in it (callers
// skip the ones retire has flagged, or re-check identity via get).
//
//angstrom:hotpath
func (d *directory) apps() []*app { return *d.list.Load() }
