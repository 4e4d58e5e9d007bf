package tx

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

const tblAccounts = 1

// newRig builds a cluster + runtime with one unordered table partitioned by
// key modulo nodes, pre-populated with keys 1..n each holding value {bal, 0}.
func newRig(t testing.TB, nodes, workers, keys int, mut func(*cluster.Config)) (*Runtime, func()) {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes, workers)
	// Generous lease for tests: correctness machinery runs on real time and
	// a loaded single-core box deschedules goroutines for milliseconds.
	cfg.LeaseMicros = 5_000
	cfg.ROLeaseMicros = 10_000
	if mut != nil {
		mut(&cfg)
	}
	c := cluster.New(cfg)
	c.Start()
	rt := NewRuntime(c, func(table int, key uint64) int { return int(key) % nodes })
	rt.DefineUnordered(tblAccounts, 256, 256, keys+64, 2)
	for k := 1; k <= keys; k++ {
		node := k % nodes
		if err := c.Node(node).Unordered(tblAccounts).Insert(uint64(k), []uint64{1000, 0}); err != nil {
			t.Fatalf("populate %d: %v", k, err)
		}
	}
	return rt, c.Stop
}

// stageRemote stages one record at an explicit host, outside any Exec: a
// batch of one through the Start phase's pipeline, which leaves the lock or
// lease held until the test releases it (releaseLocks) or it expires.
func (t *Tx) stageRemote(table int, key uint64, node, region, part int, write bool) error {
	s := t.gatherRemote(table, key, node, region, part, write)
	if s == nil {
		return nil
	}
	one := [1]*stageReq{s}
	err := t.stageBatch(one[:])
	t.e.putReqs(one[:])
	return err
}

// htmAborts totals the HTM region aborts rt's transactions booked, every cause.
func htmAborts(rt *Runtime) (n int64) {
	for _, ev := range []obs.Event{obs.EvHTMConflictAbort, obs.EvHTMCapacityAbort,
		obs.EvHTMLockedAbort, obs.EvHTMLeaseAbort, obs.EvHTMExplicitAbort} {
		n += rt.C.Obs.Total(ev)
	}
	return n
}

func TestLocalTransaction(t *testing.T) {
	rt, stop := newRig(t, 1, 1, 4, nil)
	defer stop()
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.R(tblAccounts, 1); err != nil {
			return err
		}
		if err := tx.W(tblAccounts, 2); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			v, err := lc.Read(tblAccounts, 1)
			if err != nil {
				return err
			}
			return lc.Write(tblAccounts, 2, []uint64{v[0] + 1, 7})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rt.C.Node(0).Unordered(tblAccounts).Get(2)
	if !ok || v[0] != 1001 || v[1] != 7 {
		t.Fatalf("after txn = %v,%v", v, ok)
	}
	if rt.C.Obs.Total(obs.EvTxCommit) != 1 {
		t.Fatal("commit not counted")
	}
}

func TestDistributedTransactionWriteBack(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	// Worker on node 0; key 1 lives on node 1 (remote), key 2 on node 0.
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 1); err != nil { // remote
			return err
		}
		if err := tx.W(tblAccounts, 2); err != nil { // local
			return err
		}
		return tx.Execute(func(lc *Local) error {
			a, _ := lc.Read(tblAccounts, 1)
			b, _ := lc.Read(tblAccounts, 2)
			if err := lc.Write(tblAccounts, 1, []uint64{a[0] - 100, a[1]}); err != nil {
				return err
			}
			return lc.Write(tblAccounts, 2, []uint64{b[0] + 100, b[1]})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := rt.C.Node(1).Unordered(tblAccounts).Get(1)
	v2, _ := rt.C.Node(0).Unordered(tblAccounts).Get(2)
	if v1[0] != 900 || v2[0] != 1100 {
		t.Fatalf("balances = %d, %d", v1[0], v2[0])
	}
	// The remote record must be unlocked and version-bumped.
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(1)
	if host.Arena().LoadWord(off+2) != 0 {
		t.Fatal("remote record still locked after commit")
	}
}

func TestRemoteWriteConflictRetries(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	e0 := rt.Executor(0, 0)
	e1 := rt.Executor(1, 0)

	// e0 stages a remote write lock on key 1 (node 1) and holds it.
	t0 := e0.newTx()
	if err := t0.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, true); err != nil {
		t.Fatal(err)
	}
	// e1's local write to key 1 must fail while the lock is held.
	errCh := make(chan error, 1)
	go func() {
		errCh <- e1.Exec(func(tx *Tx) error {
			if err := tx.W(tblAccounts, 1); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				return lc.Write(tblAccounts, 1, []uint64{5, 5})
			})
		})
	}()
	time.Sleep(5 * time.Millisecond)
	t0.releaseLocks()
	if err := <-errCh; err != nil {
		t.Fatalf("local writer never recovered: %v", err)
	}
	if rt.C.Obs.Total(obs.EvTxRetry) == 0 && htmAborts(rt) == 0 {
		t.Fatal("no conflict was ever observed")
	}
}

// TestConflictMatrix verifies Table 2: the interaction of local (HTM) and
// remote (2PL) accesses to one record.
func TestConflictMatrix(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	const key = 2 // homed on node 0
	e0 := rt.Executor(0, 0)
	e1 := rt.Executor(1, 0)

	// Row "R RD after L RD": the remote read's lease CAS writes the state
	// word, falsely conflicting with the local reader (Figure 2(b)).
	t.Run("LRD_then_RRD_falseConflict", func(t *testing.T) {
		before := htmAborts(rt)
		first := true
		err := e0.Exec(func(tx *Tx) error {
			if err := tx.R(tblAccounts, key); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				if _, err := lc.Read(tblAccounts, key); err != nil {
					return err
				}
				if first {
					first = false
					t1 := e1.newTx()
					if err := t1.stageRemote(tblAccounts, key, 0, tblAccounts, 0, false); err != nil {
						return err
					}
					t1.releaseLocks()
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if htmAborts(rt) == before {
			t.Fatal("remote read did not abort the local reader (Table 2 false conflict)")
		}
	})

	// Row "L RD after R RD": share — local reads overlook leases.
	t.Run("RRD_then_LRD_share", func(t *testing.T) {
		t1 := e1.newTx()
		if err := t1.stageRemote(tblAccounts, key, 0, tblAccounts, 0, false); err != nil {
			t.Fatal(err)
		}
		before := htmAborts(rt)
		err := e0.Exec(func(tx *Tx) error {
			if err := tx.R(tblAccounts, key); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				_, err := lc.Read(tblAccounts, key)
				return err
			})
		})
		t1.releaseLocks()
		if err != nil {
			t.Fatal(err)
		}
		if htmAborts(rt) != before {
			t.Fatal("local read aborted despite read-read sharing")
		}
	})

	// Row "L WR after R RD": conflict — local writes respect the lease.
	t.Run("RRD_then_LWR_conflict", func(t *testing.T) {
		t1 := e1.newTx()
		if err := t1.stageRemote(tblAccounts, key, 0, tblAccounts, 0, false); err != nil {
			t.Fatal(err)
		}
		before := htmAborts(rt)
		done := make(chan error, 1)
		go func() {
			done <- e0.Exec(func(tx *Tx) error {
				if err := tx.W(tblAccounts, key); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					return lc.Write(tblAccounts, key, []uint64{1000, 0})
				})
			})
		}()
		select {
		case err := <-done:
			// May legitimately commit only after the lease expired; but the
			// attempt must have aborted at least once first.
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(400 * time.Millisecond):
			<-done // lease (5ms) expires well before this
		}
		if htmAborts(rt) == before {
			t.Fatal("local write ignored an unexpired lease")
		}
	})

	// Rows "after R WR": both local read and write conflict.
	t.Run("RWR_then_local_conflict", func(t *testing.T) {
		t1 := e1.newTx()
		if err := t1.stageRemote(tblAccounts, key, 0, tblAccounts, 0, true); err != nil {
			t.Fatal(err)
		}
		before := htmAborts(rt)
		done := make(chan error, 1)
		go func() {
			done <- e0.Exec(func(tx *Tx) error {
				if err := tx.R(tblAccounts, key); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					_, err := lc.Read(tblAccounts, key)
					return err
				})
			})
		}()
		time.Sleep(10 * time.Millisecond)
		t1.releaseLocks() // exclusive locks require explicit release
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if htmAborts(rt) == before {
			t.Fatal("local read did not conflict with a remote write lock")
		}
	})

	// Row "R WR after L WR": the local transaction loses (Figure 2(c)).
	t.Run("LWR_then_RWR_localAborts", func(t *testing.T) {
		before := htmAborts(rt)
		first := true
		err := e0.Exec(func(tx *Tx) error {
			if err := tx.W(tblAccounts, key); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				if err := lc.Write(tblAccounts, key, []uint64{1000, 0}); err != nil {
					return err
				}
				if first {
					first = false
					t1 := e1.newTx()
					if err := t1.stageRemote(tblAccounts, key, 0, tblAccounts, 0, true); err == nil {
						t1.releaseLocks()
					}
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if htmAborts(rt) == before {
			t.Fatal("remote write lock did not abort the conflicting local writer")
		}
	})
}

// TestLeaseSharingAcrossNodes: two remote readers share one lease.
func TestLeaseSharingAcrossNodes(t *testing.T) {
	// A lease that cannot expire under the test: sharing, not expiry, is the
	// subject, and a multi-millisecond pause between the two stagings used to
	// turn the share into a takeover about one run in seventy.
	rt, stop := newRig(t, 3, 1, 6, func(c *cluster.Config) { c.LeaseMicros = 1 << 30 })
	defer stop()
	rt.ReadPolicy = PolicyLease // the paper's arm is the subject
	// Key 3 lives on node 0; readers on nodes 1 and 2.
	t1 := rt.Executor(1, 0).newTx()
	t2 := rt.Executor(2, 0).newTx()
	if err := t1.stageRemote(tblAccounts, 3, 0, tblAccounts, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := t2.stageRemote(tblAccounts, 3, 0, tblAccounts, 0, false); err != nil {
		t.Fatalf("second reader could not share the lease: %v", err)
	}
	// Both observed a lease; the second shares the first's end time.
	r1 := t1.recs[0]
	r2 := t2.recs[0]
	if r2.leaseEnd != r1.leaseEnd {
		t.Fatalf("leases not shared: %d vs %d", r1.leaseEnd, r2.leaseEnd)
	}
	// A shared lease is node 1's as much as node 2's: node 2's write waits it
	// out like any writer's, and node 1's lease stands.
	if err := t2.stageRemote(tblAccounts, 3, 0, tblAccounts, 0, true); !errors.Is(err, ErrRetry) {
		t.Fatalf("write over a shared running lease = %v, want %v", err, ErrRetry)
	}
	host := rt.C.Node(0).Unordered(tblAccounts)
	off, _ := host.LookupLocal(3)
	if s := host.Arena().LoadWord(kvs.StateOffset(off)); s != clock.Shared(r1.leaseEnd) {
		t.Fatalf("state word after the lost write = %#x, want the shared lease %#x", s, clock.Shared(r1.leaseEnd))
	}
	t1.releaseLocks()
}

// TestLeasedReadOutlastsSharingWriter: a read-only transaction leases row 3;
// a writer on another node shares that lease, then declares writes of rows 3
// and 6 to move a unit between them. The writer must not commit while the
// lease runs, so the reader's later read of row 6 sees the row as it was, and
// its two rows still add up.
func TestLeasedReadOutlastsSharingWriter(t *testing.T) {
	rt, stop := newRig(t, 3, 1, 6, func(c *cluster.Config) {
		c.LeaseMicros, c.ROLeaseMicros = 1<<30, 1<<30
	})
	defer stop()
	rt.ReadPolicy = PolicyLease
	errLost := errors.New("writer lost its attempt")
	var (
		writer error
		wrote  bool
	)
	write := func() error {
		return rt.Executor(2, 0).Exec(func(tx *Tx) error {
			if err := tx.R(tblAccounts, 3); err != nil { // shares the reader's lease
				return err
			}
			if err := tx.Stage(Access{Table: tblAccounts, Key: 3, Write: true},
				Access{Table: tblAccounts, Key: 6, Write: true}); err != nil {
				if errors.Is(err, ErrRetry) {
					return errLost // one attempt: a retry would wait the lease out
				}
				return err
			}
			return tx.Execute(func(lc *Local) error {
				x, err := lc.Read(tblAccounts, 3)
				if err != nil {
					return err
				}
				w, err := lc.Read(tblAccounts, 6)
				if err != nil {
					return err
				}
				if err := lc.Write(tblAccounts, 3, []uint64{x[0] - 1, x[1]}); err != nil {
					return err
				}
				return lc.Write(tblAccounts, 6, []uint64{w[0] + 1, w[1]})
			})
		})
	}
	var x, w uint64
	err := rt.Executor(1, 0).ExecRO(func(ro *RO) error {
		v, err := ro.Read(tblAccounts, 3)
		if err != nil {
			return err
		}
		x = v[0]
		if !wrote {
			writer, wrote = write(), true
		}
		if v, err = ro.Read(tblAccounts, 6); err != nil {
			return err
		}
		w = v[0]
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if x+w != 2000 {
		t.Fatalf("reader committed x=%d, w=%d: a writer committed inside its lease (writer: %v)", x, w, writer)
	}
	if !errors.Is(writer, errLost) {
		t.Fatalf("writer = %v, want it to lose to the running lease", writer)
	}
}

// TestRemoteWriterBlockedByLease: a remote writer cannot lock a leased
// record until the lease expires.
func TestRemoteWriterBlockedByLease(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, func(c *cluster.Config) {
		c.LeaseMicros = 30_000
	})
	defer stop()
	tr := rt.Executor(0, 0).newTx()
	if err := tr.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, false); err != nil {
		t.Fatal(err)
	}
	tw := rt.Executor(0, 0).newTx()
	if err := tw.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, true); !errors.Is(err, ErrRetry) {
		t.Fatalf("writer acquired a leased record: %v", err)
	}
	// After expiry (30 ms lease + delta) the writer gets in.
	time.Sleep(50 * time.Millisecond)
	tw2 := rt.Executor(0, 0).newTx()
	if err := tw2.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, true); err != nil {
		t.Fatalf("writer blocked after lease expiry: %v", err)
	}
	tw2.releaseLocks()
	tr.releaseLocks()
}

func TestUserAbortRollsBack(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 1); err != nil { // remote
			return err
		}
		return tx.Execute(func(lc *Local) error {
			if err := lc.Write(tblAccounts, 1, []uint64{0, 0}); err != nil {
				return err
			}
			return ErrUserAbort
		})
	})
	if !errors.Is(err, ErrUserAbort) {
		t.Fatalf("err = %v", err)
	}
	v, _ := rt.C.Node(1).Unordered(tblAccounts).Get(1)
	if v[0] != 1000 {
		t.Fatalf("aborted write visible: %d", v[0])
	}
	// Lock must be released.
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(1)
	if host.Arena().LoadWord(off+2) != 0 {
		t.Fatal("lock leaked after user abort")
	}
}

func TestReadOnlySnapshot(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 8, nil)
	defer stop()
	e := rt.Executor(0, 0)
	var total uint64
	err := e.ExecRO(func(ro *RO) error {
		total = 0
		for k := uint64(1); k <= 8; k++ {
			v, err := ro.Read(tblAccounts, k)
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
	if total != 8000 {
		t.Fatalf("snapshot total = %d", total)
	}
	if rt.C.Obs.Total(obs.EvROCommit) != 1 {
		t.Fatal("RO commit not counted")
	}
}

// TestReadOnlyLeaseVisibleToWriters: under PolicyLease (Section 4.5) a
// read-only transaction leases every record, local ones too, and writers
// retry while the lease is held. TestReadOnlyAdaptiveLeavesNoLease is the
// mirror for the default policy.
func TestReadOnlyLeaseVisibleToWriters(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, func(c *cluster.Config) {
		c.ROLeaseMicros = 30_000
	})
	defer stop()
	rt.ReadPolicy = PolicyLease
	e := rt.Executor(0, 0)
	// Acquire a RO lease on remote key 1 and local key 2 by hand.
	ro := &RO{readSet: readSet{e: e, index: map[refKey]*remoteRec{}}, end: e.w.Node.Clock.Read() + 30_000,
		policy: PolicyLease}
	if _, err := ro.Read(tblAccounts, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Read(tblAccounts, 2); err != nil {
		t.Fatal(err)
	}
	for key, node := range map[uint64]int{1: 1, 2: 0} {
		if w := stateWord(t, rt, node, tblAccounts, key); w == clock.Init {
			t.Fatalf("key %d carries no lease", key)
		}
	}
	// A remote writer must now fail fast on key 1.
	tw := rt.Executor(0, 0).newTx()
	if err := tw.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, true); !errors.Is(err, ErrRetry) {
		t.Fatalf("writer ignored RO lease: %v", err)
	}
	if !ro.confirm() {
		t.Fatal("RO confirmation failed with fresh leases")
	}
}

// TestFallbackCapacity: transactions beyond HTM capacity complete on the
// software fallback path and stay correct.
func TestFallbackCapacity(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 64, func(c *cluster.Config) {
		c.HTM = htm.Config{WriteLines: 4, ReadLines: 4096}
	})
	defer stop()
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		// 10 local writes exceed the 4-line write capacity.
		for k := uint64(2); k <= 20; k += 2 { // keys homed on node 0
			if err := tx.W(tblAccounts, k); err != nil {
				return err
			}
		}
		return tx.Execute(func(lc *Local) error {
			for k := uint64(2); k <= 20; k += 2 {
				v, err := lc.Read(tblAccounts, k)
				if err != nil {
					return err
				}
				if err := lc.Write(tblAccounts, k, []uint64{v[0] + 1, v[1]}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.C.Obs.Total(obs.EvFallback) == 0 {
		t.Fatal("capacity abort did not trigger the fallback path")
	}
	for k := uint64(2); k <= 20; k += 2 {
		v, _ := rt.C.Node(0).Unordered(tblAccounts).Get(k)
		if v[0] != 1001 {
			t.Fatalf("key %d = %d, want 1001", k, v[0])
		}
	}
	// All locks released.
	host := rt.C.Node(0).Unordered(tblAccounts)
	for k := uint64(2); k <= 20; k += 2 {
		off, _ := host.LookupLocal(k)
		if host.Arena().LoadWord(off+2) != 0 {
			t.Fatalf("key %d still locked after fallback", k)
		}
	}
}

// TestFallbackVsLocalHTMConflict: fallback's lock on a local record aborts
// concurrent local HTM transactions touching it.
func TestFallbackLockStopsLocalHTM(t *testing.T) {
	rt, stop := newRig(t, 1, 2, 8, func(c *cluster.Config) {
		c.HTM = htm.Config{WriteLines: 2, ReadLines: 4096}
	})
	defer stop()
	var wg sync.WaitGroup
	errs := make([]error, 2)

	wg.Add(2)
	go func() { // big fallback transaction over keys 1..6
		defer wg.Done()
		e := rt.Executor(0, 0)
		errs[0] = e.Exec(func(tx *Tx) error {
			for k := uint64(1); k <= 6; k++ {
				if err := tx.W(tblAccounts, k); err != nil {
					return err
				}
			}
			return tx.Execute(func(lc *Local) error {
				for k := uint64(1); k <= 6; k++ {
					v, err := lc.Read(tblAccounts, k)
					if err != nil {
						return err
					}
					if err := lc.Write(tblAccounts, k, []uint64{v[0] + 10, 0}); err != nil {
						return err
					}
				}
				return nil
			})
		})
	}()
	go func() { // small HTM transactions over the same keys
		defer wg.Done()
		e := rt.Executor(0, 1)
		for i := 0; i < 50; i++ {
			err := e.Exec(func(tx *Tx) error {
				if err := tx.W(tblAccounts, uint64(i%6)+1); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					v, err := lc.Read(tblAccounts, uint64(i%6)+1)
					if err != nil {
						return err
					}
					return lc.Write(tblAccounts, uint64(i%6)+1, []uint64{v[0] + 1, 0})
				})
			})
			if err != nil {
				errs[1] = err
				return
			}
		}
	}()
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("errs = %v", errs)
	}
	var total uint64
	for k := uint64(1); k <= 6; k++ {
		v, _ := rt.C.Node(0).Unordered(tblAccounts).Get(k)
		total += v[0]
	}
	if total != 6*1000+6*10+50 {
		t.Fatalf("total = %d, want %d (lost updates)", total, 6*1000+6*10+50)
	}
}

// TestBankInvariantConcurrent is the system-level serializability property
// test: concurrent local + distributed transfers with concurrent RO audits,
// back to back, conserve total balance — and every transfer and every audit
// commits (the progress guarantee: whoever keeps losing escalates).
func TestBankInvariantConcurrent(t *testing.T) {
	const nodes, workers, keys = 3, 2, 30
	rt, stop := newRig(t, nodes, workers, keys, nil)
	defer stop()

	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(n, w int) {
				defer wg.Done()
				e := rt.Executor(n, w)
				for i := 0; i < 120; i++ {
					from := uint64((n*37+w*11+i)%keys) + 1
					to := uint64((n*13+w*7+i*3)%keys) + 1
					if from == to {
						continue
					}
					err := e.Exec(func(tx *Tx) error {
						if err := tx.W(tblAccounts, from); err != nil {
							return err
						}
						if err := tx.W(tblAccounts, to); err != nil {
							return err
						}
						return tx.Execute(func(lc *Local) error {
							f, err := lc.Read(tblAccounts, from)
							if err != nil {
								return err
							}
							g, err := lc.Read(tblAccounts, to)
							if err != nil {
								return err
							}
							amt := uint64(i % 7)
							if f[0] < amt {
								return nil
							}
							if err := lc.Write(tblAccounts, from, []uint64{f[0] - amt, f[1]}); err != nil {
								return err
							}
							return lc.Write(tblAccounts, to, []uint64{g[0] + amt, g[1]})
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

	// Concurrent read-only auditor.
	auditStop := make(chan struct{})
	var auditWG sync.WaitGroup
	auditWG.Add(1)
	go func() {
		defer auditWG.Done()
		e := rt.Executor(0, 0)
		for {
			select {
			case <-auditStop:
				return
			default:
			}
			var total uint64
			err := e.ExecRO(func(ro *RO) error {
				total = 0
				for k := uint64(1); k <= keys; k++ {
					v, err := ro.Read(tblAccounts, k)
					if err != nil {
						return err
					}
					total += v[0]
				}
				return nil
			})
			switch {
			case err != nil:
				t.Errorf("audit: %v", err)
				return
			case total != keys*1000:
				t.Errorf("audit saw total %d, want %d", total, keys*1000)
				return
			}
		}
	}()

	wg.Wait()
	close(auditStop)
	auditWG.Wait()

	var total uint64
	for k := uint64(1); k <= keys; k++ {
		v, ok := rt.C.Node(int(k) % nodes).Unordered(tblAccounts).Get(k)
		if !ok {
			t.Fatalf("key %d lost", k)
		}
		total += v[0]
	}
	if total != keys*1000 {
		t.Fatalf("final total = %d, want %d", total, keys*1000)
	}
}

// TestWriterStarvationBound is the progress guarantee for a read-write
// transaction, on one core: one transfer between two hot rows against
// unthrottled writers of the same rows — each rewrites one of them, locking it
// by CAS from another node than the rows', stalls for 20 µs while it holds the
// lock, and retries a lost attempt at once — so the two rows are hardly
// ever free at the same instant, which is what an attempt that aborts on a
// held row needs. Whatever it loses first, from attempt escalateAfter+1 on the
// transfer holds nothing in its Start phase and its fallback waits for each
// row in turn, in the global order; that attempt commits.
func TestWriterStarvationBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const a, b = 1, 4 // both homed on node 1
	const writersPerRow = 3
	rt, stop := newRig(t, 3, 1+writersPerRow, 6, nil)
	defer stop()
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2*writersPerRow; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := rt.Executor(2*(w%2), 1+w/2) // nodes 0 and 2
			row := []uint64{a, b}[w%2]
			for !done.Load() {
				tx := e.newTx()
				if tx.W(tblAccounts, row) != nil {
					continue // lost to a holder: again, no backoff
				}
				_ = tx.Execute(func(lc *Local) error {
					v, err := lc.Read(tblAccounts, row)
					if err != nil {
						return err
					}
					time.Sleep(20 * time.Microsecond) // the lock is held
					return lc.Write(tblAccounts, row, []uint64{v[0], v[1] + 1})
				})
			}
		}(w)
	}
	time.Sleep(time.Millisecond) // the writers are under way

	attempts := 0
	start := time.Now()
	err := rt.Executor(0, 0).Exec(func(tx *Tx) error {
		attempts++
		if err := tx.Stage(Access{Table: tblAccounts, Key: a, Write: true},
			Access{Table: tblAccounts, Key: b, Write: true}); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			f, err := lc.Read(tblAccounts, a)
			if err != nil {
				return err
			}
			g, err := lc.Read(tblAccounts, b)
			if err != nil {
				return err
			}
			if err := lc.Write(tblAccounts, a, []uint64{f[0] - 1, f[1]}); err != nil {
				return err
			}
			return lc.Write(tblAccounts, b, []uint64{g[0] + 1, g[1]})
		})
	})
	took := time.Since(start)
	done.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if attempts > escalateAfter+1 {
		t.Fatalf("the transfer committed on attempt %d after %v, want %d at the latest", attempts, took, escalateAfter+1)
	}
	t.Logf("committed on attempt %d after %v", attempts, took)
	va, _ := rt.C.Node(1).Unordered(tblAccounts).Get(a)
	vb, _ := rt.C.Node(1).Unordered(tblAccounts).Get(b)
	if va[0] != 999 || vb[0] != 1001 {
		t.Fatalf("hot rows hold %d and %d, want 999 and 1001", va[0], vb[0])
	}
}

func TestDeferredInsertDelete(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		return tx.Execute(func(lc *Local) error {
			lc.Insert(tblAccounts, 100, []uint64{42, 0}) // homed node 0 (local)
			lc.Insert(tblAccounts, 101, []uint64{43, 0}) // homed node 1 (shipped)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rt.C.Node(0).Unordered(tblAccounts).Get(100); !ok || v[0] != 42 {
		t.Fatal("local deferred insert failed")
	}
	if v, ok := rt.C.Node(1).Unordered(tblAccounts).Get(101); !ok || v[0] != 43 {
		t.Fatal("shipped deferred insert failed")
	}
	err = e.Exec(func(tx *Tx) error {
		return tx.Execute(func(lc *Local) error {
			lc.Delete(tblAccounts, 101)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.C.Node(1).Unordered(tblAccounts).Get(101); ok {
		t.Fatal("shipped deferred delete failed")
	}
}

func TestNodeDownFailsFast(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	rt.C.Crash(1)
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		return tx.W(tblAccounts, 1) // homed on the crashed node
	})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}
