package drtm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/obs"
)

const tblAcct = 1

func openTestDB(t testing.TB, nodes, workers int, durable bool) *DB {
	t.Helper()
	db := MustOpen(Options{Nodes: nodes, WorkersPerNode: workers, Durability: durable},
		func(table int, key uint64) int { return int(key) % nodes })
	db.CreateHashTable(tblAcct, 1024, 1)
	for k := uint64(1); k <= 20; k++ {
		if err := db.Load(tblAcct, k, []uint64{100}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestOpenDefaults(t *testing.T) {
	db, err := Open(Options{}, func(table int, key uint64) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Nodes() != 1 || db.WorkersPerNode() != 1 {
		t.Fatalf("defaults = %d nodes x %d workers, want 1x1",
			db.Nodes(), db.WorkersPerNode())
	}
}

func TestOpenValidation(t *testing.T) {
	part := func(table int, key uint64) int { return 0 }
	cases := []struct {
		name string
		o    Options
		part PartitionFunc
	}{
		{"nil partition", Options{}, nil},
		{"negative nodes", Options{Nodes: -1}, part},
		{"too many nodes", Options{Nodes: 1 << 16}, part},
		{"negative workers", Options{WorkersPerNode: -2}, part},
		{"too many workers", Options{WorkersPerNode: 1 << 16}, part},
	}
	for _, tc := range cases {
		if _, err := Open(tc.o, tc.part); err == nil {
			t.Errorf("%s: Open accepted invalid options", tc.name)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustOpen did not panic on invalid options")
			}
		}()
		MustOpen(Options{Nodes: -1}, part)
	}()
}

func TestQuickstartTransfer(t *testing.T) {
	db := openTestDB(t, 2, 1, false)
	defer db.Close()
	e := db.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAcct, 1); err != nil { // node 1: remote
			return err
		}
		if err := tx.W(tblAcct, 2); err != nil { // node 0: local
			return err
		}
		return tx.Execute(func(lc *Local) error {
			a, _ := lc.Read(tblAcct, 1)
			b, _ := lc.Read(tblAcct, 2)
			if err := lc.Write(tblAcct, 1, []uint64{a[0] - 10}); err != nil {
				return err
			}
			return lc.Write(tblAcct, 2, []uint64{b[0] + 10})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := db.Get(tblAcct, 1)
	v2, _ := db.Get(tblAcct, 2)
	if v1[0] != 90 || v2[0] != 110 {
		t.Fatalf("balances = %d, %d", v1[0], v2[0])
	}
	if db.Stats().Count("tx.commit") != 1 {
		t.Fatal("stats commit missing")
	}
	if db.WorkerVirtualTime(0, 0) == 0 {
		t.Fatal("virtual time not charged")
	}
	if s := db.Stats(); s.Count("rdma.read") == 0 || s.Count("rdma.write") == 0 || s.Count("rdma.cas") == 0 {
		t.Fatalf("remote op counts = %d/%d/%d, want all nonzero", s.Count("rdma.read"), s.Count("rdma.write"), s.Count("rdma.cas"))
	}
}

func TestReadOnlySnapshot(t *testing.T) {
	db := openTestDB(t, 2, 1, false)
	defer db.Close()
	e := db.Executor(1, 0)
	var total uint64
	err := e.ExecRO(func(ro *RO) error {
		total = 0
		for k := uint64(1); k <= 20; k++ {
			v, err := ro.Read(tblAcct, k)
			if err != nil {
				return err
			}
			total += v[0]
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 2000 {
		t.Fatalf("total = %d", total)
	}
}

func TestUserAbortSurfacesCleanly(t *testing.T) {
	db := openTestDB(t, 1, 1, false)
	defer db.Close()
	e := db.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		return tx.Execute(func(lc *Local) error { return ErrUserAbort })
	})
	if !errors.Is(err, ErrUserAbort) {
		t.Fatalf("err = %v", err)
	}
}

func TestOrderedTableThroughFacade(t *testing.T) {
	db := MustOpen(Options{Nodes: 1, WorkersPerNode: 1},
		func(table int, key uint64) int { return 0 })
	defer db.Close()
	const tbl = 2
	db.CreateOrderedTable(tbl, 64, 1)
	for k := uint64(10); k <= 30; k += 10 {
		if err := db.Load(tbl, k, []uint64{k}); err != nil {
			t.Fatal(err)
		}
	}
	v, ok := db.Get(tbl, 20)
	if !ok || v[0] != 20 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
}

func TestReplicatedTableLoad(t *testing.T) {
	db := MustOpen(Options{Nodes: 2, WorkersPerNode: 1},
		func(table int, key uint64) int {
			if table == 9 {
				return -1
			}
			return int(key) % 2
		})
	defer db.Close()
	db.CreateHashTable(9, 64, 1)
	if err := db.Load(9, 5, []uint64{55}); err != nil {
		t.Fatal(err)
	}
	// Both nodes hold a copy.
	for n := 0; n < 2; n++ {
		if v, ok := db.C.Node(n).Unordered(9).Get(5); !ok || v[0] != 55 {
			t.Fatalf("node %d replica = %v,%v", n, v, ok)
		}
	}
}

func TestCrashRecoverThroughFacade(t *testing.T) {
	db := openTestDB(t, 2, 1, true)
	defer db.Close()
	e := db.Executor(0, 0)
	// Commit a durable distributed transaction.
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAcct, 1); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			return lc.Write(tblAcct, 1, []uint64{42})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Crash(0)
	rep := db.Recover(0)
	db.Revive(0)
	_ = rep
	v, _ := db.Get(tblAcct, 1)
	if v[0] != 42 {
		t.Fatalf("value after recovery = %d", v[0])
	}
}

func TestConcurrentFacadeUse(t *testing.T) {
	db := openTestDB(t, 2, 2, false)
	defer db.Close()
	var wg sync.WaitGroup
	for n := 0; n < 2; n++ {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(n, w int) {
				defer wg.Done()
				e := db.Executor(n, w)
				for i := 0; i < 50; i++ {
					from := uint64((n*7+w*3+i)%20) + 1
					to := uint64((n*11+w*5+i*3)%20) + 1
					if from == to {
						continue
					}
					err := e.Exec(func(tx *Tx) error {
						if err := tx.W(tblAcct, from); err != nil {
							return err
						}
						if err := tx.W(tblAcct, to); err != nil {
							return err
						}
						return tx.Execute(func(lc *Local) error {
							f, _ := lc.Read(tblAcct, from)
							g, _ := lc.Read(tblAcct, to)
							if f[0] < 1 {
								return nil
							}
							if err := lc.Write(tblAcct, from, []uint64{f[0] - 1}); err != nil {
								return err
							}
							return lc.Write(tblAcct, to, []uint64{g[0] + 1})
						})
					})
					if err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}(n, w)
		}
	}
	wg.Wait()
	var total uint64
	for k := uint64(1); k <= 20; k++ {
		v, _ := db.Get(tblAcct, k)
		total += v[0]
	}
	if total != 2000 {
		t.Fatalf("conservation broken: %d", total)
	}
}

func TestStatsSnapshotAndDelta(t *testing.T) {
	db := openTestDB(t, 2, 1, false)
	defer db.Close()
	e := db.Executor(0, 0)
	run := func(n int) {
		for i := 0; i < n; i++ {
			err := e.Exec(func(tx *Tx) error {
				if err := tx.W(tblAcct, 1); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					v, _ := lc.Read(tblAcct, 1)
					return lc.Write(tblAcct, 1, []uint64{v[0] + 1})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	run(3)
	before := db.Stats()
	run(5)
	d := db.Stats().Delta(before)
	if d.Count("tx.commit") != 5 {
		t.Fatalf("delta commits = %d, want 5", d.Count("tx.commit"))
	}
	if before.Count("tx.commit") != 3 {
		t.Fatalf("snapshot not immutable: before's tx.commit = %d", before.Count("tx.commit"))
	}
	if d.Count("rdma.cas") <= 0 || d.Count("rdma.write") <= 0 {
		t.Fatalf("delta RDMA counts = cas:%d write:%d, want positive",
			d.Count("rdma.cas"), d.Count("rdma.write"))
	}
	if d.Latency("total").Count != 5 {
		t.Fatalf("delta total-latency count = %d, want 5", d.Latency("total").Count)
	}
	if d.Latency("total").P50 <= 0 || d.Latency("total").Max < d.Latency("total").P50 {
		t.Fatalf("latency summary inconsistent: %+v", d.Latency("total"))
	}
	if s := d.String(); len(s) == 0 {
		t.Fatal("Stats.String empty")
	}
	db.ResetStats()
	if c := db.Stats().Count("tx.commit"); c != 0 {
		t.Fatalf("commits after ResetStats = %d", c)
	}
}

// TestStatsIndexCounters: local ordered point operations show up in Stats as
// tree descents and finger hits — a run of adjacent keys is one descent and
// then hits — and in the dump's index: line, where "index.descent" is the
// descents no remembered leaf covered plus those into a full one.
func TestStatsIndexCounters(t *testing.T) {
	const tblLines = 2
	db := MustOpen(Options{}, func(int, uint64) int { return 0 })
	defer db.Close()
	db.CreateOrderedTable(tblLines, 256, 1)
	e := db.Executor(0, 0)
	before := db.Stats()
	err := e.Exec(func(tx *Tx) error {
		return tx.Execute(func(lc *Local) error {
			for k := uint64(1); k <= 10; k++ {
				lc.Insert(tblLines, k, []uint64{k})
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Exec(func(tx *Tx) error {
		for k := uint64(1); k <= 10; k++ {
			if err := tx.W(tblLines, k); err != nil {
				return err
			}
		}
		return tx.Execute(func(lc *Local) error {
			for k := uint64(1); k <= 10; k++ {
				v, err := lc.Read(tblLines, k)
				if err != nil {
					return err
				}
				if err := lc.Write(tblLines, k, []uint64{v[0] + 1}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	d := db.Stats().Delta(before)
	if d.Count("index.descent")+d.Count("index.finger_hit") != 20 || d.Count("index.descent") > 2 {
		t.Errorf("10 adjacent inserts + 10 read-writes: %d descents, %d finger hits; want 20 in all, at most 2 descents",
			d.Count("index.descent"), d.Count("index.finger_hit"))
	}
	full := d.Count("index.descent.leaf_full")
	if want := fmt.Sprintf(" descent=%d descent.leaf_full=%d finger_hit=%d\n", d.Count("index.descent")-full, full, d.Count("index.finger_hit")); !strings.Contains(d.String(), want) {
		t.Errorf("Stats.String() lacks %q:\n%s", want, d)
	}
}

// TestStatsOrderedCacheShare: a speculative read-only read of a remote ordered
// row misses the location cache once and hits it from then on; Stats, Delta and
// the dump's cache: line say so, beside the hash regions' traffic, so that
// "fewer messages, more READs" is two counters. The cache: line is counters
// like any other: Delta subtracts it and ResetStats zeroes it.
func TestStatsOrderedCacheShare(t *testing.T) {
	const tblRows, tblHash = 2, 3
	db := MustOpen(Options{Nodes: 2, WorkersPerNode: 1, ReadPolicy: PolicyAdaptive},
		func(_ int, key uint64) int { return int(key) % 2 })
	defer db.Close()
	db.CreateOrderedTable(tblRows, 64, 1)
	db.CreateHashTable(tblHash, 64, 1)
	for _, tbl := range []int{tblRows, tblHash} {
		if err := db.Load(tbl, 1, []uint64{7}); err != nil {
			t.Fatal(err)
		}
	}
	read := func(tbl int) {
		t.Helper()
		if err := db.Executor(0, 0).ExecRO(func(ro *RO) error {
			_, err := ro.Read(tbl, 1)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	read(tblRows)
	read(tblHash)
	before := db.Stats()
	if before.Count("cache.hit.ordered") != 0 || before.Count("cache.miss.ordered") != 1 || before.Count("cache.miss") <= before.Count("cache.miss.ordered") {
		t.Fatalf("after one cold read of each table: %+v ordered misses of %+v", before.Count("cache.miss.ordered"), before.Count("cache.miss"))
	}
	read(tblRows)
	read(tblRows)
	read(tblHash)
	d := db.Stats().Delta(before)
	if d.Count("cache.hit.ordered") != 2 || d.Count("cache.miss.ordered") != 0 || d.Count("cache.hit") <= d.Count("cache.hit.ordered") || d.Count("rdma.msg") != 0 {
		t.Errorf("two warm ordered reads and a warm hash one: ordered hits %d misses %d, all hits %d, messages %d",
			d.Count("cache.hit.ordered"), d.Count("cache.miss.ordered"), d.Count("cache.hit"), d.Count("rdma.msg"))
	}
	want := fmt.Sprintf("cache:    hit=%d miss=0 inval=0 hit.ordered=2 miss.ordered=0 inval.ordered=0\n", d.Count("cache.hit")-2)
	if !strings.Contains(d.String(), want) {
		t.Errorf("Stats.String() lacks %q:\n%s", want, d)
	}
	db.ResetStats()
	want = "cache:    hit=0 miss=0 inval=0 hit.ordered=0 miss.ordered=0 inval.ordered=0\n"
	if s := db.Stats().String(); !strings.Contains(s, want) {
		t.Errorf("after ResetStats, Stats.String() lacks %q:\n%s", want, s)
	}
}

// conflictStorm hammers hot records from every worker so that both HTM
// conflicts (same-node workers overlapping in the HTM region) and remote
// lock conflicts (cross-node lease/lock CAS races) occur. Balances are
// rewritten unchanged, so conservation is easy to check afterwards.
func conflictStorm(t *testing.T, db *DB, rounds int) {
	t.Helper()
	var wg sync.WaitGroup
	for n := 0; n < db.Nodes(); n++ {
		for w := 0; w < db.WorkersPerNode(); w++ {
			wg.Add(1)
			go func(n, w int) {
				defer wg.Done()
				e := db.Executor(n, w)
				// This node's local keys (partition is key%2).
				var mine []uint64
				for k := uint64(1); k <= 20; k++ {
					if int(k)%2 == n {
						mine = append(mine, k)
					}
				}
				for i := 0; i < rounds; i++ {
					// Cross-node touch of the hot pair: races the remote
					// lock/lease CAS against the other node's workers.
					err := e.Exec(func(tx *Tx) error {
						if err := tx.W(tblAcct, 1); err != nil { // node 1
							return err
						}
						if err := tx.W(tblAcct, 2); err != nil { // node 0
							return err
						}
						return tx.Execute(func(lc *Local) error {
							f, _ := lc.Read(tblAcct, 1)
							g, _ := lc.Read(tblAcct, 2)
							if err := lc.Write(tblAcct, 1, f); err != nil {
								return err
							}
							return lc.Write(tblAcct, 2, g)
						})
					})
					if err != nil {
						t.Errorf("hot pair: %v", err)
						return
					}
					// Purely local batch over every record of this node:
					// both workers of the node write the same lines, so
					// their HTM regions collide. The Gosched between the
					// reads and the writes hands the CPU to the sibling
					// worker mid-region, standing in for the coherence
					// traffic that interleaves regions on real hardware.
					err = e.Exec(func(tx *Tx) error {
						for _, k := range mine {
							if err := tx.W(tblAcct, k); err != nil {
								return err
							}
						}
						return tx.Execute(func(lc *Local) error {
							vals := make([][]uint64, len(mine))
							for j, k := range mine {
								v, err := lc.Read(tblAcct, k)
								if err != nil {
									return err
								}
								vals[j] = v
							}
							runtime.Gosched()
							for j, k := range mine {
								if err := lc.Write(tblAcct, k, vals[j]); err != nil {
									return err
								}
							}
							return nil
						})
					})
					if err != nil {
						t.Errorf("local batch: %v", err)
						return
					}
				}
			}(n, w)
		}
	}
	wg.Wait()
}

func TestStatsConflictBreakdownE2E(t *testing.T) {
	db := openTestDB(t, 2, 2, false)
	defer db.Close()
	// Everyone fights over keys 1 and 2; retry in batches until both
	// conflict counters fire (they virtually always do in one batch).
	var st Stats
	for round := 0; round < 20; round++ {
		conflictStorm(t, db, 60)
		st = db.Stats()
		if st.Count("htm.abort.conflict") > 0 && st.Count("lock.remote_conflict") > 0 {
			break
		}
	}
	if st.Count("htm.abort.conflict") == 0 {
		t.Error("no HTM conflict aborts recorded under contention")
	}
	if st.Count("lock.remote_conflict") == 0 {
		t.Error("no remote lock conflicts recorded under contention")
	}
	if st.Count("htm.abort") != st.Count("htm.abort.conflict")+st.Count("htm.abort.capacity")+st.Count("htm.abort.locked")+
		st.Count("htm.abort.lease")+st.Count("htm.abort.explicit") {
		t.Errorf("htm.abort %d != sum of cause counters", st.Count("htm.abort"))
	}
	if st.Count("tx.retry") == 0 {
		t.Error("no transaction retries recorded under contention")
	}
	// Conservation still holds.
	var total uint64
	for k := uint64(1); k <= 20; k++ {
		v, _ := db.Get(tblAcct, k)
		total += v[0]
	}
	if total != 2000 {
		t.Fatalf("conservation broken: %d", total)
	}
}

func TestTracingE2E(t *testing.T) {
	db := openTestDB(t, 2, 1, false)
	defer db.Close()
	if evs := db.DrainTrace(); len(evs) != 0 {
		t.Fatalf("trace not empty before enable: %d events", len(evs))
	}
	db.EnableTracing(64)
	e := db.Executor(0, 0)
	for i := 0; i < 5; i++ {
		err := e.Exec(func(tx *Tx) error {
			if err := tx.W(tblAcct, 1); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				v, _ := lc.Read(tblAcct, 1)
				return lc.Write(tblAcct, 1, []uint64{v[0] + 1})
			})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	evs := db.DrainTrace()
	if len(evs) != 5 {
		t.Fatalf("trace events = %d, want 5", len(evs))
	}
	for _, ev := range evs {
		if ev.Outcome != 0 { // OutcomeCommit
			t.Errorf("trace outcome = %v, want commit", ev.Outcome)
		}
		if ev.TotalNS <= 0 || ev.TxID == 0 || ev.Attempts < 1 {
			t.Errorf("implausible trace event: %+v", ev)
		}
	}
	db.DisableTracing()
	if err := e.Exec(func(tx *Tx) error {
		return tx.Execute(func(lc *Local) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	if evs := db.DrainTrace(); len(evs) != 0 {
		t.Fatalf("trace recorded while disabled: %d events", len(evs))
	}
}

// TestDurableLongRunLogsStayShort: a durable worker's NVRAM logs hold its
// transaction in flight, not its history — at the default LogWords one worker
// commits 300 000 transactions, local writes and cross-node transfers mixed,
// and between any two of them every log holds a handful of words in the arena
// it was created with. (Before logs were restarted at transaction boundaries
// the write-ahead log filled, and the worker panicked, near the 116 000th.)
func TestDurableLongRunLogsStayShort(t *testing.T) {
	db := openTestDB(t, 2, 1, true)
	defer db.Close()
	e, w := db.Executor(0, 0), db.C.Worker(0, 0)
	logs := map[string]*nvram.Log{"chopping": w.ChoppingLog, "lock-ahead": w.LockAheadLog, "write-ahead": w.WriteAheadLog}
	const commits, maxLiveWords = 300_000, 32
	for i := 0; i < commits; i++ {
		keys := []uint64{2} // local
		if i%3 == 0 {
			keys = []uint64{1, 4} // remote and local
		}
		err := e.Exec(func(tx *Tx) error {
			for _, k := range keys {
				if err := tx.W(tblAcct, k); err != nil {
					return err
				}
			}
			return tx.Execute(func(lc *Local) error {
				for _, k := range keys {
					if err := lc.Write(tblAcct, k, []uint64{uint64(i)}); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if i%1000 == 0 || i == commits-1 {
			for name, l := range logs {
				if used := l.BytesUsed() / 8; used > maxLiveWords {
					t.Fatalf("after commit %d the %s log holds %d words, want <= %d", i, name, used, maxLiveWords)
				}
			}
		}
	}
	for name, l := range logs {
		if got := l.Arena().Len(); got != memory.WordsPerLine+nvram.InitialWords {
			t.Errorf("the %s log's arena is %d words, created with %d: it grew", name, got, memory.WordsPerLine+nvram.InitialWords)
		}
	}
	s := db.Stats()
	if s.Count("nvram.log_grow") != 0 || s.Count("nvram.log_restart") < commits-1 || s.Count("nvram.log_high_water") > maxLiveWords {
		t.Errorf("log-grows=%d log-restarts=%d log-high-water=%d over %d commits, want 0, one per commit and <= %d",
			s.Count("nvram.log_grow"), s.Count("nvram.log_restart"), s.Count("nvram.log_high_water"), commits, maxLiveWords)
	}
}

// TestStatsLogGauge: the logs' fill is visible before it is a panic. Restarts
// are counted, the high-water mark is the fullest log any worker had at a
// transaction boundary — against cluster.Config.LogWords, the cap whose overrun is fatal —
// and it climbs, with arena grows behind it, exactly while a release parked for
// a dead node keeps the workers from reclaiming. A Delta keeps the mark.
func TestStatsLogGauge(t *testing.T) {
	db := openTestDB(t, 2, 1, true)
	defer db.Close()
	e := db.Executor(0, 0)
	write := func(arm func(), keys ...uint64) {
		t.Helper()
		if err := e.Exec(func(tx *Tx) error {
			for _, k := range keys {
				if err := tx.W(tblAcct, k); err != nil {
					return err
				}
			}
			return tx.Execute(func(lc *Local) error {
				for _, k := range keys {
					if err := lc.Write(tblAcct, k, []uint64{7}); err != nil {
						return err
					}
				}
				if arm != nil {
					arm()
				}
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write(nil, 1, 2)
	}
	calm := db.Stats()
	if calm.Count("nvram.log_restart") != 9 || calm.Count("nvram.log_grow") != 0 || calm.Count("nvram.log_high_water") == 0 || calm.Count("nvram.log_high_water") > 32 {
		t.Fatalf("ten quiet commits: log-restarts=%d log-grows=%d log-high-water=%d, want 9, 0 and one transaction's few words",
			calm.Count("nvram.log_restart"), calm.Count("nvram.log_grow"), calm.Count("nvram.log_high_water"))
	}

	// Node 1 dies as a commit's write-back to it is posted: the release is
	// parked, and node 0's worker keeps every record from then on.
	write(func() { db.Crash(1) }, 1, 2)
	const parked = 1500 // x 9 words of write-ahead record: past the first arena
	for i := 0; i < parked; i++ {
		write(nil, 2)
	}
	d, logCap := db.Stats().Delta(calm), int64(db.C.Config().LogWords)
	if d.Count("nvram.log_restart") != 1 { // the crashing commit's own
		t.Errorf("%d log restarts behind a parked release, want none", d.Count("nvram.log_restart")-1)
	}
	if d.Count("nvram.log_high_water") < 9*(parked-1) || d.Count("nvram.log_high_water") > logCap || d.Count("nvram.log_grow") == 0 {
		t.Errorf("after %d commits behind a parked release: log-high-water=%d of %d, log-grows=%d", parked, d.Count("nvram.log_high_water"), logCap, d.Count("nvram.log_grow"))
	}
	if want := fmt.Sprintf(" log_restart=%d log_grow=%d log_high_water=%d\n", d.Count("nvram.log_restart"), d.Count("nvram.log_grow"), d.Count("nvram.log_high_water")); !strings.Contains(d.String(), want) {
		t.Errorf("Stats.String lacks %q:\n%s", want, d.String())
	}

	// Recovery drains the parked release; the next boundary reclaims.
	db.Recover(1)
	db.Revive(1)
	write(nil, 2)
	write(nil, 2)
	if got := db.C.Worker(0, 0).WriteAheadLog.BytesUsed() / 8; got > 32 {
		t.Errorf("write-ahead log holds %d words after the parked release drained", got)
	}
}

// TestStatsCoversRegistry: Stats is the obs registry read by name. On a
// workload that scans, erases and maintains an index, and reads behind a
// removal message it left in flight, every event, the gauge
// and every phase with observations appears exactly once in the dump, with
// the snapshot's value; Count of an event is its count plus its children's,
// so every prefix sums what is under it; an unknown name panics.
func TestStatsCoversRegistry(t *testing.T) {
	const base, index = 2, 3
	key := func(entity, sub uint64) uint64 { return entity<<8 | sub }
	db := MustOpen(Options{Nodes: 2, WorkersPerNode: 1, Durability: true},
		func(_ int, k uint64) int { return int(k>>8) % 2 })
	defer db.Close()
	db.CreateOrderedTableSeg(base, 256, 2, 8)
	db.CreateOrderedTableSeg(index, 256, 1, 8)
	db.CreateIndex(base, IndexSpec{Table: index,
		Key: func(k uint64, val []uint64) uint64 { return k&^0xFF | val[1]&0xFF }})
	e := db.Executor(0, 0)
	exec := func(build func(tx *Tx) error) {
		t.Helper()
		if err := e.Exec(func(tx *Tx) error {
			if err := build(tx); err != nil {
				return err
			}
			return tx.Execute(func(*Local) error { return nil })
		}); err != nil {
			t.Fatal(err)
		}
	}
	for entity := uint64(0); entity < 2; entity++ { // a local and a remote partition
		for sub := uint64(1); sub <= 4; sub++ {
			exec(func(tx *Tx) error { return tx.WInsert(base, key(entity, sub), []uint64{sub, 10 + sub}) })
		}
		exec(func(tx *Tx) error {
			_, err := tx.Scan(base, key(entity, 0), key(entity, 0xFF), 0)
			return err
		})
		if err := e.ExecRO(func(ro *RO) error {
			_, err := ro.Scan(index, key(entity, 0), key(entity, 0xFF), 0)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		exec(func(tx *Tx) error {
			_, err := tx.Erase(base, key(entity, 2))
			return err
		})
	}
	// A remote row read at its cached offset right behind a removal message:
	// the READ is shorter than the message and waits for what is left of it.
	read := func() {
		t.Helper()
		if err := e.ExecRO(func(ro *RO) error {
			_, err := ro.Read(base, key(1, 1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	read()
	exec(func(tx *Tx) error {
		_, err := tx.Erase(base, key(1, 3))
		return err
	})
	read()
	s := db.Stats() // the erased entries were unlinked by the commits that erased them
	for _, name := range []string{"scan.collect", "scan.row", "index.maint", "index.remove_dead", "rdma.read_bytes", "nvram.log_high_water", "lock.born", "rdma.detached", "rdma.inflight_wait_ns"} {
		if s.Count(name) == 0 {
			t.Errorf("%s = 0 after the workload", name)
		}
	}

	// The dump: "group: k=v ..." lines, then "phase: name n=..." lines.
	printed, phases := map[string][]int64{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(s.String()), "\n") {
		f := strings.Fields(line)
		group := strings.TrimSuffix(f[0], ":")
		if group == "phase" {
			phases[f[1]]++
			if n := fmt.Sprintf("n=%d", s.Latency(f[1]).Count); f[2] != n {
				t.Errorf("phase %s prints %s, want %s", f[1], f[2], n)
			}
			continue
		}
		for _, kv := range f[1:] {
			k, v, _ := strings.Cut(kv, "=")
			var n int64
			fmt.Sscan(v, &n)
			printed[group+"."+k] = append(printed[group+"."+k], n)
		}
	}
	sn := s.snap
	names := map[string]bool{}
	for ev := 0; ev < obs.NumEvents; ev++ {
		name := obs.Event(ev).String()
		names[name] = true
		if got := printed[name]; len(got) != 1 || got[0] != sn.Counters[ev] {
			t.Errorf("%s printed %v, want once with %d", name, got, sn.Counters[ev])
		}
		for p := name; p != ""; {
			i := strings.LastIndexByte(p, '.')
			if i < 0 {
				break
			}
			p = p[:i]
			names[p] = true
		}
	}
	gauge := obs.GaugeLogWords.String()
	if got := printed[gauge]; len(got) != 1 || got[0] != sn.Gauges[obs.GaugeLogWords] || s.Count(gauge) != got[0] {
		t.Errorf("%s printed %v, Count %d, want once with %d", gauge, got, s.Count(gauge), sn.Gauges[obs.GaugeLogWords])
	}
	if len(printed) != obs.NumEvents+obs.NumGauges {
		t.Errorf("the dump prints %d counters, the registry has %d events and %d gauges", len(printed), obs.NumEvents, obs.NumGauges)
	}
	for p := 0; p < obs.NumPhases; p++ {
		name := obs.Phase(p).String()
		if want := min(sn.Phases[p].Count, 1); int64(phases[name]) != want {
			t.Errorf("phase %s printed %d times with %d observations", name, phases[name], sn.Phases[p].Count)
		}
	}

	// Count of a name is its own event's count plus its direct children's
	// Counts: an event without children is the snapshot's value, and a prefix
	// sums what is under it.
	for name := range names {
		var want int64
		for ev := 0; ev < obs.NumEvents; ev++ {
			if obs.Event(ev).String() == name {
				want += sn.Counters[ev]
			}
		}
		for child := range names {
			if rest, ok := strings.CutPrefix(child, name+"."); ok && !strings.Contains(rest, ".") {
				want += s.Count(child)
			}
		}
		if got := s.Count(name); got != want {
			t.Errorf("Count(%q) = %d, want %d", name, got, want)
		}
	}
	aborts := sn.Counters[obs.EvHTMConflictAbort] + sn.Counters[obs.EvHTMCapacityAbort] + sn.Counters[obs.EvHTMLockedAbort] +
		sn.Counters[obs.EvHTMLeaseAbort] + sn.Counters[obs.EvHTMExplicitAbort]
	if s.Count("htm.abort") != aborts ||
		s.Count("cache.hit") != sn.Counters[obs.EvCacheHit]+sn.Counters[obs.EvOrderedCacheHit] ||
		s.Count("index.descent") != sn.Counters[obs.EvTreeDescent]+sn.Counters[obs.EvLeafFullDescent] {
		t.Error("htm.abort, cache.hit or index.descent is not the sum of its parts")
	}

	for _, read := range []func(){
		func() { s.Count("no.such") },
		func() { s.Count("htm.abor") }, // not a whole segment
		func() { s.Latency("no-such-phase") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("an unknown name did not panic")
				}
			}()
			read()
		}()
	}
}
