package server

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// snapshot appends the directory's fleet, in enrollment order, to buf.
func (d *directory) snapshot(buf []*app) []*app { return append(buf, d.apps()...) }

// Directory unit coverage: the lock-free read path must agree with the
// writers and keep table and list views consistent.
func TestDirectoryBasics(t *testing.T) {
	d := newDirectory(5) // rounds up to 8
	if got := len(d.tables); got != 8 {
		t.Fatalf("shard count %d, want 8 (rounded up)", got)
	}
	names := []string{"a", "b", "c", "dd", "ee", "ff", "g-0", "g-1"}
	for _, n := range names {
		if !d.insert(n, &app{name: n}) {
			t.Fatalf("insert %q failed", n)
		}
	}
	if !d.insert("dup", &app{name: "dup"}) || d.insert("dup", &app{name: "dup"}) {
		t.Fatal("duplicate insert not refused")
	}
	if d.len() != len(names)+1 {
		t.Fatalf("len %d, want %d", d.len(), len(names)+1)
	}
	for _, n := range names {
		a, ok := d.get(n)
		if !ok || a.name != n {
			t.Fatalf("get %q = %v, %v", n, a, ok)
		}
	}
	snap := d.snapshot(nil)
	if len(snap) != len(names)+1 {
		t.Fatalf("snapshot %d entries, want %d", len(snap), len(names)+1)
	}
	if a, ok := d.remove("dd"); !ok || a.name != "dd" {
		t.Fatal("remove dd failed")
	}
	if _, ok := d.remove("dd"); ok {
		t.Fatal("double remove succeeded")
	}
	if _, ok := d.get("dd"); ok {
		t.Fatal("removed name still resolves")
	}
	if d.len() != len(names) {
		t.Fatalf("len %d after remove, want %d", d.len(), len(names))
	}
	// Shard assignment is a fixed hash: two directories agree.
	d2 := newDirectory(8)
	for _, n := range names {
		if hashName(n)&d.mask != 0 && hashName(n)&d2.mask == 0 {
			t.Fatalf("shard assignment for %q differs between directories", n)
		}
	}
}

// Property test: a long random insert/remove/get script against a
// reference map. The name pool is small next to the script, so shards
// grow, accumulate tombstones, rebuild, drain, and re-insert removed
// names over and over; after every step the directory must agree with the
// reference on membership, identity, duplicate refusal and len(), each
// table must keep the load bound that terminates probes, and the one
// list must be the survivors in insertion order, whatever shard their
// names hash to.
func TestDirectoryMatchesReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := newDirectory(4)
	ref := make(map[string]*app)
	var order []*app // the survivors in insertion order
	tables := make([]*dirTable, len(d.tables))
	for i := range tables {
		tables[i] = d.tables[i].Load()
	}
	var rebuilds, tombstoned int
	for step := 0; step < 40000; step++ {
		// Alternating phases favour inserts, then removes, so the fleet
		// swells towards the whole name pool and drains again: tables are
		// rebuilt both larger and smaller.
		name := fmt.Sprintf("app-%05d", rng.Intn(600))
		insertBias := 3 + 4*((step/4000)%2) // of 10: 3 while draining, 7 while filling
		switch op := rng.Intn(11); {
		case op < insertBias:
			a := &app{name: name}
			_, dup := ref[name]
			if ok := d.insert(name, a); ok == dup {
				t.Fatalf("step %d: insert %q = %v with duplicate = %v", step, name, ok, dup)
			}
			if !dup {
				ref[name] = a
				order = append(order, a)
			}
		case op < 10:
			want, present := ref[name]
			got, ok := d.remove(name)
			if ok != present || got != want {
				t.Fatalf("step %d: remove %q = %p, %v; want %p, %v", step, name, got, ok, want, present)
			}
			if present {
				delete(ref, name)
				for i, a := range order {
					if a == want {
						order = append(order[:i:i], order[i+1:]...)
						break
					}
				}
			}
		}
		if got, ok := d.get(name); got != ref[name] || ok != (ref[name] != nil) {
			t.Fatalf("step %d: get %q = %p, %v; reference holds %p", step, name, got, ok, ref[name])
		}
		if d.len() != len(ref) {
			t.Fatalf("step %d: len %d, reference %d", step, d.len(), len(ref))
		}
		live := 0
		for i := range d.tables {
			tb := d.tables[i].Load()
			if tb != tables[i] {
				tables[i] = tb
				rebuilds++
			}
			if tb.used < tb.live || 2*tb.used > len(tb.slots) {
				t.Fatalf("step %d: shard %d table holds %d used slots of %d for %d live apps", step, i, tb.used, len(tb.slots), tb.live)
			}
			if tb.used > tb.live {
				tombstoned++
			}
			live += tb.live
		}
		if live != len(ref) {
			t.Fatalf("step %d: tables count %d live apps, reference %d", step, live, len(ref))
		}
		if step%500 != 0 {
			continue
		}
		list := d.apps()
		if len(list) != len(order) {
			t.Fatalf("step %d: the list holds %d apps, want %d", step, len(list), len(order))
		}
		for j, a := range list {
			if a != order[j] {
				t.Fatalf("step %d: list position %d holds %q, insertion order says %q", step, j, a.name, order[j].name)
			}
		}
		for name, a := range ref {
			if got, ok := d.get(name); !ok || got != a {
				t.Fatalf("step %d: %q lost", step, name)
			}
		}
	}
	if rebuilds < 20 || tombstoned == 0 {
		t.Fatalf("script too tame: %d table rebuilds, %d steps with tombstones", rebuilds, tombstoned)
	}
}

// The lock-free readers against the in-place writers, for -race: while
// writers churn names in and out (growing, tombstoning and rebuilding
// every shard's table, appending to its list in place), readers must
// always find the resident names, find a churning name only as itself,
// and walk a list that holds no hole and starts with the residents in
// the order they were inserted.
func TestDirectoryReadersDuringChurn(t *testing.T) {
	d := newDirectory(4)
	const residents, churners, writers = 64, 512, 4
	resident := make([]*app, residents)
	for i := range resident {
		resident[i] = &app{name: fmt.Sprintf("resident-%03d", i)}
		if !d.insert(resident[i].name, resident[i]) {
			t.Fatal("resident insert refused")
		}
	}
	var stop atomic.Bool
	var rwg, wwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for !stop.Load() {
				want := resident[rng.Intn(residents)]
				if got, ok := d.get(want.name); !ok || got != want {
					t.Errorf("resident %q lost mid-churn (%p, %v)", want.name, got, ok)
					return
				}
				name := fmt.Sprintf("churn-%d-%03d", rng.Intn(writers), rng.Intn(churners))
				if got, ok := d.get(name); ok && got.name != name {
					t.Errorf("get %q returned %q", name, got.name)
					return
				}
				if msg := checkList(d.apps(), resident); msg != "" {
					t.Error(msg)
					return
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			live := make(map[string]bool)
			for i := 0; i < 10000; i++ {
				name := fmt.Sprintf("churn-%d-%03d", w, rng.Intn(churners))
				if live[name] {
					if _, ok := d.remove(name); !ok {
						t.Errorf("remove %q: absent", name)
						return
					}
				} else if !d.insert(name, &app{name: name}) {
					t.Errorf("insert %q: refused", name)
					return
				}
				live[name] = !live[name]
			}
		}(w)
	}
	wwg.Wait()
	stop.Store(true)
	rwg.Wait()
}

// checkList reports what is wrong with a published list whose first
// entries must be residents, in order, and which must hold no hole or
// removed slot anywhere ("" when nothing is).
func checkList(list, residents []*app) string {
	if len(list) < len(residents) {
		return fmt.Sprintf("the list holds %d apps, fewer than the %d residents", len(list), len(residents))
	}
	for i, a := range list {
		if a == nil || a == tombstone {
			return fmt.Sprintf("list position %d holds a hole", i)
		}
		if i < len(residents) && a != residents[i] {
			return fmt.Sprintf("list position %d holds %q, want resident %q", i, a.name, residents[i].name)
		}
	}
	return ""
}

// Satellite: the sharded-directory churn test. Concurrent
// enroll/withdraw/beat/goal traffic against a fast-ticking chip-backed
// daemon, run under -race (make test does). At every quiesce point the
// tile ledger must account exactly for the survivors — never
// overcommitted, never faulted.
func TestShardedDirectoryChurnRace(t *testing.T) {
	const tiles = 16
	d, err := NewDaemon(Config{
		Cores: tiles, Period: time.Millisecond, Oversubscribe: true,
		Shards: 8, TickWorkers: 4,
		Chip: &ChipConfig{Tiles: tiles},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One resident rides out the churn: the lock-free readers below must
	// resolve it through every table rebuild and list append.
	if err := d.Enroll(EnrollRequest{Name: "resident", Mode: ModeAdvisory, MinRate: 10}); err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Stop()

	const workers = 8
	const rounds = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chipName := fmt.Sprintf("churn-%d", w)
			advName := fmt.Sprintf("adv-%d", w)
			for r := 0; r < rounds; r++ {
				// Chip app: enroll, let it execute a few periods, withdraw.
				if err := d.Enroll(EnrollRequest{Name: chipName, Workload: "water", MinRate: 2}); err != nil {
					t.Error(err)
					return
				}
				// Advisory app beats through the lock-free path meanwhile.
				if err := d.Enroll(EnrollRequest{Name: advName, Mode: ModeAdvisory, MinRate: 10, MaxRate: 30}); err != nil {
					t.Error(err)
					return
				}
				for b := 0; b < 20; b++ {
					if err := d.Beat(advName, 3, 0); err != nil {
						t.Error(err)
						return
					}
					if b == 10 {
						if err := d.SetGoal(advName, 12, 35); err != nil {
							t.Error(err)
							return
						}
					}
				}
				if r%3 == 0 {
					time.Sleep(time.Millisecond) // let ticks interleave the fleet
				}
				if err := d.Withdraw(chipName); err != nil {
					t.Error(err)
					return
				}
				if err := d.Withdraw(advName); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stopReaders := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
					d.List()
					d.Stats()
					a, ok := d.dir.get("resident")
					if !ok || a.name != "resident" {
						t.Errorf("resident app unresolvable mid-churn: %v, %v", a, ok)
						return
					}
					if msg := checkList(d.dir.apps(), []*app{a}); msg != "" {
						t.Error(msg)
						return
					}
					if sts := d.ChipStatuses(); len(sts) == 1 {
						if st := sts[0]; st.CoreEquivalents > float64(tiles)+1e-6 {
							t.Errorf("ledger overcommitted mid-churn: %g > %d", st.CoreEquivalents, tiles)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stopReaders)
	rwg.Wait()
	d.Stop()

	if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
		t.Fatalf("%d ledger faults after churn", f)
	}
	parts, used := d.fleet.Chip(0).Usage()
	if parts != 0 || used > 1e-6 {
		t.Fatalf("ledger not empty after full churn: %d partitions, %g core-equivalents", parts, used)
	}
	if apps := d.Stats().Apps; apps != 1 {
		t.Fatalf("%d apps enrolled after full churn, want the resident alone", apps)
	}
}

// Property-style coverage for makeRoom through the public surface:
// deterministic enroll/withdraw churn on a deeply oversubscribed chip.
// After every operation the ledger stays within the tile pool, no
// partition sits below the admission floor, and accounting matches the
// survivors exactly.
func TestMakeRoomChurnInvariants(t *testing.T) {
	const tiles = 2
	d, err := NewDaemon(Config{
		Cores: tiles, Accel: 0.2, Period: time.Hour, Oversubscribe: true,
		Shards: 4, TickWorkers: 2,
		Chip: &ChipConfig{Tiles: tiles},
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(op string) {
		t.Helper()
		if f := d.fleet.Chip(0).LedgerFaults(); f != 0 {
			t.Fatalf("%s: %d ledger faults", op, f)
		}
		_, used := d.fleet.Chip(0).Usage()
		if used > tiles+1e-6 {
			t.Fatalf("%s: ledger %g exceeds %d tiles", op, used, tiles)
		}
		sum := 0.0
		for _, a := range d.dir.snapshot(nil) {
			if a.partition() == nil {
				continue
			}
			share := a.partition().Share()
			if share < minChipShare-1e-9 {
				t.Fatalf("%s: %s share %g below floor %g", op, a.name, share, minChipShare)
			}
			sum += float64(a.partition().Config().Cores) * share
		}
		if diff := used - sum; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("%s: ledger %g != survivors %g", op, used, sum)
		}
	}
	live := 0
	name := func(i int) string { return fmt.Sprintf("mk-%03d", i) }
	for i := 0; i < 120; i++ {
		op := fmt.Sprintf("enroll %d", i)
		if err := d.Enroll(EnrollRequest{Name: name(i), Workload: "barnes", MinRate: 1}); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		live++
		check(op)
		if i%3 == 2 {
			victim := name(i - 2)
			if err := d.Withdraw(victim); err != nil {
				t.Fatalf("withdraw %s: %v", victim, err)
			}
			live--
			check("withdraw " + victim)
		}
		if i%10 == 9 {
			d.Tick()
			check(fmt.Sprintf("tick after %d", i))
		}
	}
	if got := d.Stats().Apps; got != live {
		t.Fatalf("%d apps enrolled, want %d", got, live)
	}
	// Oversubscription has a floor: beyond 1/minChipShare apps per tile
	// admission must refuse cleanly, not overcommit.
	for i := 1000; i < 1000+int(float64(tiles)/minChipShare); i++ {
		if err := d.Enroll(EnrollRequest{Name: name(i), Workload: "barnes", MinRate: 1}); err != nil {
			break
		}
		check(fmt.Sprintf("deep enroll %d", i))
	}
}

// BenchmarkDirectoryInsert measures the directory's write path at three
// fleet sizes: one op inserts the whole fleet into a fresh 8-shard
// directory, and ns/insert must stay flat from 1k to 100k — the
// copy-on-write directory it replaced grew linearly (every insert
// copied its shard's map), which made enrollment and boot quadratic.
func BenchmarkDirectoryInsert(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			apps := make([]*app, n)
			for i := range apps {
				apps[i] = &app{name: fmt.Sprintf("app-%06d", i)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := newDirectory(8)
				for _, a := range apps {
					if !d.insert(a.name, a) {
						b.Fatal("insert refused")
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/insert")
		})
	}
}
