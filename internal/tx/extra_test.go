package tx

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// TestWriterAfterLeaseExpiry: the lease write path (Figure 5) replaces an
// expired lease with an exclusive lock via the CAS-with-current-state retry.
func TestWriterAfterLeaseExpiry(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, func(c *cluster.Config) {
		c.LeaseMicros = 2_000
	})
	defer stop()
	tr := rt.Executor(0, 0).newTx()
	if err := tr.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, false); err != nil {
		t.Fatal(err)
	}
	// The state word now carries a lease (non-INIT).
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(1)
	if s := host.Arena().LoadWord(off + 2); s == clock.Init || clock.IsWriteLocked(s) {
		t.Fatalf("state = %x, want a lease", s)
	}
	time.Sleep(6 * time.Millisecond) // lease (2ms) + delta comfortably passed

	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 1); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			return lc.Write(tblAccounts, 1, []uint64{7, 7})
		})
	})
	if err != nil {
		t.Fatalf("writer failed after lease expiry: %v", err)
	}
	v, _ := host.Get(1)
	if v[0] != 7 {
		t.Fatal("write lost")
	}
}

// TestLocalWriteClearsExpiredLease: Figure 6's optimization — a local write
// to a record with an expired lease resets the state word to INIT.
func TestLocalWriteClearsExpiredLease(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, func(c *cluster.Config) {
		c.LeaseMicros = 2_000
	})
	defer stop()
	// Lease key 2 (homed node 0) from node 1, let it expire.
	tr := rt.Executor(1, 0).newTx()
	if err := tr.stageRemote(tblAccounts, 2, 0, tblAccounts, 0, false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(6 * time.Millisecond)

	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 2); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			return lc.Write(tblAccounts, 2, []uint64{9, 9})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	host := rt.C.Node(0).Unordered(tblAccounts)
	off, _ := host.LookupLocal(2)
	if s := host.Arena().LoadWord(off + 2); s != clock.Init {
		t.Fatalf("expired lease not cleared: %x", s)
	}
}

// TestFallbackWithRemoteRecords: the fallback path re-acquires remote locks
// in global order and commits correctly.
func TestFallbackWithRemoteRecords(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 32, func(c *cluster.Config) {
		c.HTM = htm.Config{WriteLines: 2, ReadLines: 4096}
	})
	defer stop()
	e := rt.Executor(0, 0)
	// 4 local + 2 remote writes exceed the 2-line HTM capacity.
	keys := []uint64{2, 4, 6, 8, 1, 3} // evens local to node 0, odds on node 1
	err := e.Exec(func(tx *Tx) error {
		for _, k := range keys {
			if err := tx.W(tblAccounts, k); err != nil {
				return err
			}
		}
		return tx.Execute(func(lc *Local) error {
			for _, k := range keys {
				v, err := lc.Read(tblAccounts, k)
				if err != nil {
					return err
				}
				if err := lc.Write(tblAccounts, k, []uint64{v[0] + 5, v[1]}); err != nil {
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
		t.Fatal("expected the fallback path")
	}
	for _, k := range keys {
		host := rt.C.Node(int(k) % 2).Unordered(tblAccounts)
		v, _ := host.Get(k)
		if v[0] != 1005 {
			t.Fatalf("key %d = %d, want 1005", k, v[0])
		}
		off, _ := host.LookupLocal(k)
		if s := host.Arena().LoadWord(off + 2); s != clock.Init {
			t.Fatalf("key %d still locked: %x", k, s)
		}
	}
}

// TestFallbackUserAbortReleasesEverything: a user abort on the fallback
// path must release all acquired locks without publishing.
func TestFallbackUserAbort(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 16, func(c *cluster.Config) {
		c.HTM = htm.Config{WriteLines: 2, ReadLines: 4096}
	})
	defer stop()
	e := rt.Executor(0, 0)
	keys := []uint64{2, 4, 6, 1}
	err := e.Exec(func(tx *Tx) error {
		for _, k := range keys {
			if err := tx.W(tblAccounts, k); err != nil {
				return err
			}
		}
		return tx.Execute(func(lc *Local) error {
			for _, k := range keys {
				v, err := lc.Read(tblAccounts, k)
				if err != nil {
					return err
				}
				if err := lc.Write(tblAccounts, k, []uint64{v[0] + 1, v[1]}); err != nil {
					return err
				}
			}
			return ErrUserAbort
		})
	})
	if !errors.Is(err, ErrUserAbort) {
		t.Fatalf("err = %v", err)
	}
	for _, k := range keys {
		host := rt.C.Node(int(k) % 2).Unordered(tblAccounts)
		v, _ := host.Get(k)
		if v[0] != 1000 {
			t.Fatalf("aborted fallback write visible on key %d: %d", k, v[0])
		}
		off, _ := host.LookupLocal(k)
		if s := host.Arena().LoadWord(off + 2); s != clock.Init {
			t.Fatalf("key %d lock leaked: %x", k, s)
		}
	}
}

// TestGlobalAtomicsUsesLocalCAS: under IBV_ATOMIC_GLOB the fallback path
// locks local records with cheap CPU CAS (no RDMA CAS counted).
func TestGlobalAtomicsUsesLocalCAS(t *testing.T) {
	countCAS := func(level rdma.AtomicityLevel) int64 {
		rt, stop := newRig(t, 1, 1, 16, func(c *cluster.Config) {
			c.Atomicity = level
			c.HTM = htm.Config{WriteLines: 2, ReadLines: 4096}
		})
		defer stop()
		e := rt.Executor(0, 0)
		err := e.Exec(func(tx *Tx) error {
			for _, k := range []uint64{1, 2, 3, 4} {
				if err := tx.W(tblAccounts, k); err != nil {
					return err
				}
			}
			return tx.Execute(func(lc *Local) error {
				for _, k := range []uint64{1, 2, 3, 4} {
					v, err := lc.Read(tblAccounts, k)
					if err != nil {
						return err
					}
					if err := lc.Write(tblAccounts, k, []uint64{v[0], v[1]}); err != nil {
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
			t.Fatal("fallback did not trigger")
		}
		return rt.C.Obs.Total(obs.EvRDMACAS)
	}
	hca := countCAS(rdma.AtomicHCA)
	glob := countCAS(rdma.AtomicGLOB)
	if hca == 0 {
		t.Fatal("HCA fallback should use RDMA CAS for local records")
	}
	if glob != 0 {
		t.Fatalf("GLOB fallback used %d RDMA CAS, want 0 (local CAS)", glob)
	}
}

// TestUpgradeReadToWrite: a write declared after a read of the same remote
// record takes the lock arm like any other write. After a leased read it loses
// to that lease — its own, still running — and leaves the word shared, no
// lock installed; after a speculative read, which held nothing, it is one
// lock CAS, counted as an upgrade.
func TestUpgradeReadToWrite(t *testing.T) {
	for _, p := range []ReadPolicy{PolicyLease, PolicyAdaptive} {
		t.Run(p.String(), func(t *testing.T) {
			rt, stop := newRig(t, 2, 1, 4, func(c *cluster.Config) { c.LeaseMicros = 1 << 30 })
			defer stop()
			rt.ReadPolicy = p
			tx := rt.Executor(0, 0).newTx()
			if err := tx.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, false); err != nil {
				t.Fatal(err)
			}
			host := rt.C.Node(1).Unordered(tblAccounts)
			off, _ := host.LookupLocal(1)
			state := func() uint64 { return host.Arena().LoadWord(kvs.StateOffset(off)) }
			read := state()
			if clock.IsWriteLocked(read) {
				t.Fatalf("read staged an exclusive lock: %#x", read)
			}
			cas0 := rt.C.Obs.Total(obs.EvRDMACAS)
			err := tx.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, true)
			if cas := rt.C.Obs.Total(obs.EvRDMACAS) - cas0; cas != 1 {
				t.Fatalf("the write's CASes = %d, want 1", cas)
			}
			upgrades := rt.C.Obs.Total(obs.EvLockUpgrade)
			if p == PolicyLease {
				if !errors.Is(err, ErrRetry) {
					t.Fatalf("write over the read's running lease = %v, want %v", err, ErrRetry)
				}
				if s := state(); s != read || upgrades != 0 {
					t.Fatalf("lost write left state %#x (want the lease %#x), lock.upgrade = %d (want 0)", s, read, upgrades)
				}
				return
			}
			if err != nil {
				t.Fatalf("upgrade = %v, want success", err)
			}
			if s := state(); s != clock.WLocked(0) {
				t.Fatalf("upgrade did not install the exclusive lock: %#x", s)
			}
			if r := tx.index[refKey{tblAccounts, 1}]; r == nil || !r.write || len(tx.recs) != 1 {
				t.Fatalf("record not staged once, exclusive, after the upgrade (remotes = %d)", len(tx.recs))
			}
			if upgrades != 1 {
				t.Fatalf("lock.upgrade = %d, want 1", upgrades)
			}
			tx.releaseLocks()
			if s := state(); s != clock.Init {
				t.Fatalf("release after upgrade leaked the lock: %#x", s)
			}
		})
	}
}

// TestUpgradeCommitsFreshValue: an end-to-end read-then-write upgrade
// commits through the exclusive lock and publishes the new value.
func TestUpgradeCommitsFreshValue(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.R(tblAccounts, 1); err != nil { // remote read first
			return err
		}
		if err := tx.W(tblAccounts, 1); err != nil { // then upgrade
			return err
		}
		return tx.Execute(func(lc *Local) error {
			v, err := lc.Read(tblAccounts, 1)
			if err != nil {
				return err
			}
			return lc.Write(tblAccounts, 1, []uint64{v[0] + 23, v[1]})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	host := rt.C.Node(1).Unordered(tblAccounts)
	v, _ := host.Get(1)
	if v[0] != 1023 {
		t.Fatalf("upgraded write = %d, want 1023", v[0])
	}
	off, _ := host.LookupLocal(1)
	if s := host.Arena().LoadWord(off + 2); s != clock.Init {
		t.Fatalf("record left locked after upgraded commit: %x", s)
	}
}

// TestPolicyExclusiveReadTakesLock: the Figure 17 "no read lease" ablation.
func TestPolicyExclusiveReadTakesLock(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	rt.ReadPolicy = PolicyExclusive
	tx := rt.Executor(0, 0).newTx()
	if err := tx.R(tblAccounts, 1); err != nil { // remote read
		t.Fatal(err)
	}
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(1)
	if s := host.Arena().LoadWord(off + 2); !clock.IsWriteLocked(s) {
		t.Fatalf("PolicyExclusive read did not take the exclusive lock: %x", s)
	}
	tx.releaseLocks()
}

// TestConcurrentROAndWriters stress-tests lease/exclusive interplay across
// three nodes for an extended run.
func TestConcurrentROAndWriters(t *testing.T) {
	const nodes, keys = 3, 18
	rt, stop := newRig(t, nodes, 1, keys, nil)
	defer stop()
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			e := rt.Executor(n, 0)
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				a := uint64((n*5+i)%keys) + 1
				b := uint64((n*7+i*3)%keys) + 1
				if a == b {
					continue
				}
				_ = e.Exec(func(tx *Tx) error {
					if err := tx.W(tblAccounts, a); err != nil {
						return err
					}
					if err := tx.R(tblAccounts, b); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error {
						v, err := lc.Read(tblAccounts, a)
						if err != nil {
							return err
						}
						w, err := lc.Read(tblAccounts, b)
						if err != nil {
							return err
						}
						return lc.Write(tblAccounts, a, []uint64{v[0], w[0]})
					})
				})
			}
		}(n)
	}
	time.Sleep(30 * time.Millisecond)
	close(stopCh)
	wg.Wait()
	// No locks may remain.
	for k := uint64(1); k <= keys; k++ {
		host := rt.C.Node(int(k) % nodes).Unordered(tblAccounts)
		off, _ := host.LookupLocal(k)
		if s := host.Arena().LoadWord(off + 2); clock.IsWriteLocked(s) {
			t.Fatalf("key %d left locked", k)
		}
	}
}

// TestDeferredOrderedInsertShipsRemote: an ordered-table insert whose home
// is another node goes over verbs to the host (Section 6.5).
func TestDeferredOrderedInsertShipsRemote(t *testing.T) {
	const tblOrders = 2
	rt, stop := newRig(t, 2, 1, 4, nil)
	defer stop()
	rt.DefineOrdered(tblOrders, 64, 1)
	e := rt.Executor(0, 0)
	msgsBefore := rt.C.Obs.Total(obs.EvVerbsMsg)
	err := e.Exec(func(tx *Tx) error {
		return tx.Execute(func(lc *Local) error {
			lc.Insert(tblOrders, 101, []uint64{7}) // odd key: homed on node 1
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := rt.C.Node(1).Ordered(tblOrders).Get(101); !ok || v[0] != 7 {
		t.Fatalf("shipped ordered insert = %v,%v", v, ok)
	}
	if rt.C.Obs.Total(obs.EvVerbsMsg) == msgsBefore {
		t.Fatal("insert did not go over verbs")
	}
	// And the reverse: remote delete.
	err = e.Exec(func(tx *Tx) error {
		return tx.Execute(func(lc *Local) error {
			lc.Delete(tblOrders, 101)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rt.C.Node(1).Ordered(tblOrders).Get(101); ok {
		t.Fatal("shipped ordered delete failed")
	}
}

// TestBatchedStageFaultsReleaseLocks drives the batched gather/issue/complete
// pipeline under per-WR transient faults: waves complete partially, some
// transactions abort with ErrNodeDown mid-batch, and every lock acquired
// before the abort must still be released. Run under -race by `make race`.
func TestBatchedStageFaultsReleaseLocks(t *testing.T) {
	const keys = 16
	rt, stop := newRig(t, 2, 2, keys, nil)
	defer stop()
	rt.BatchWindow = 16
	plan := rdma.NewFaultPlan(5)
	rt.C.Fabric.SetFaultPlan(plan)
	plan.NodeRule(1, rdma.FaultRule{FailProb: 0.15})

	var commits int64
	var mu sync.Mutex
	ws := rt.C.Workers()
	var wg sync.WaitGroup
	for _, wk := range ws {
		wg.Add(1)
		go func(node, worker int) {
			defer wg.Done()
			e := rt.Executor(node, worker)
			n := 0
			for i := 0; i < 40; i++ {
				// 4 distinct writes homed on the OTHER node (key parity
				// selects the home), so node-0 workers always cross the
				// flaky fabric path to node 1.
				accs := make([]Access, 4)
				for j := range accs {
					k := uint64(((i + j*3) % 8) * 2) // 0,2,..,14, distinct per j
					if node == 0 {
						k++ // odd keys are homed on node 1
					} else {
						k += 2 // even keys are homed on node 0
					}
					accs[j] = Access{Table: tblAccounts, Key: k, Write: true}
				}
				err := e.Exec(func(tx *Tx) error {
					if err := tx.Stage(accs...); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error {
						for _, a := range accs {
							v, err := lc.Read(tblAccounts, a.Key)
							if err != nil {
								return err
							}
							if err := lc.Write(tblAccounts, a.Key, []uint64{v[0] + 1, v[1]}); err != nil {
								return err
							}
						}
						return nil
					})
				})
				switch {
				case err == nil:
					n++
				case errors.Is(err, ErrNodeDown):
					// A lookup/prefetch WR in some wave drew a fault; the
					// transaction aborted and released its locks.
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
			mu.Lock()
			commits += int64(n)
			mu.Unlock()
		}(wk.Node.ID, wk.ID)
	}
	wg.Wait()

	if rt.C.Obs.Total(obs.EvVerbFault) == 0 {
		t.Fatal("fault plan injected nothing; the test exercised no partial completions")
	}
	plan.Clear()
	var sum uint64
	for k := 1; k <= keys; k++ {
		host := rt.C.Node(k % 2).Unordered(tblAccounts)
		off, ok := host.LookupLocal(uint64(k))
		if !ok {
			t.Fatalf("key %d vanished", k)
		}
		if s := host.Arena().LoadWord(off + 2); s != clock.Init {
			t.Fatalf("key %d state = %x after all txns done, want released (Init)", k, s)
		}
		v, _ := host.Get(uint64(k))
		sum += v[0] - 1000
	}
	if sum != uint64(commits)*4 {
		t.Fatalf("sum of increments = %d, want commits*4 = %d", sum, commits*4)
	}
}

// reuseSlot deletes key on its host and inserts other, asserting the freed
// entry slot was recycled for it — the state a warm location cache on
// another node still maps key to.
func reuseSlot(t *testing.T, host *kvs.Table, key, other uint64, val []uint64) {
	t.Helper()
	off, ok := host.LookupLocal(key)
	if !ok || !host.Delete(key) {
		t.Fatalf("key %d not deletable", key)
	}
	if err := host.Insert(other, val); err != nil {
		t.Fatal(err)
	}
	if got, _ := host.LookupLocal(other); got != off {
		t.Fatalf("key %d landed at %d, not in key %d's freed slot %d", other, got, key, off)
	}
}

// TestROLeaseReadStaleLocation: a read-only lease read through a warm
// location cache, after the key was deleted and its slot reused by another
// key, must report the key missing — never lease and return the other key's
// value (the lease arm used to skip the incarnation check the batched
// pipeline performs).
func TestROLeaseReadStaleLocation(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 8, nil)
	defer stop()
	rt.ReadPolicy = PolicyLease
	e := rt.Executor(0, 0)
	read := func() ([]uint64, error) {
		var v []uint64
		err := e.ExecRO(func(ro *RO) error {
			r, err := ro.Read(tblAccounts, 1)
			v = append([]uint64(nil), r...)
			return err
		})
		return v, err
	}
	if v, err := read(); err != nil || v[0] != 1000 {
		t.Fatalf("warm-up read = %v, %v", v, err)
	}
	reuseSlot(t, rt.C.Node(1).Unordered(tblAccounts), 1, 33, []uint64{555, 5})
	if v, err := read(); !errors.Is(err, ErrNotFound) {
		t.Fatalf("read of deleted key through a stale cached location = %v, %v; want ErrNotFound", v, err)
	}
}

// TestFallbackWriteStaleLocation: the software fallback re-resolves its
// records through the same warm cache. A key deleted (and its slot reused)
// between the Start phase and the fallback must fail the transaction, never
// lock, overwrite and publish into the other key's entry.
func TestFallbackWriteStaleLocation(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 32, func(c *cluster.Config) {
		c.HTM = htm.Config{WriteLines: 4, ReadLines: 4096}
	})
	defer stop()
	e := rt.Executor(0, 0)
	host := rt.C.Node(1).Unordered(tblAccounts)
	keys := []uint64{1, 2, 4, 6, 8, 10} // key 1 remote, the local writes overflow HTM capacity
	attempts := 0
	err := e.Exec(func(tx *Tx) error {
		attempts++
		for _, k := range keys {
			if err := tx.W(tblAccounts, k); err != nil {
				return err
			}
		}
		if attempts == 1 {
			// After staging (the bucket is cached, the entry locked), before the
			// region's capacity abort sends the transaction to the fallback.
			reuseSlot(t, host, 1, 33, []uint64{555, 5})
		}
		return tx.Execute(func(lc *Local) error {
			for _, k := range keys {
				if err := lc.Write(tblAccounts, k, []uint64{7, 7}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("write of a deleted key = %v, want ErrNotFound", err)
	}
	if rt.C.Obs.Total(obs.EvFallback) == 0 {
		t.Fatal("expected the fallback path")
	}
	if v, _ := host.Get(33); len(v) != 2 || v[0] != 555 || v[1] != 5 {
		t.Fatalf("fallback published into the slot's new owner: key 33 = %v, want [555 5]", v)
	}
}

// TestFallbackDropsAbortedAttemptsDeferredOps: inserts the body scheduled in
// an HTM attempt that then aborted into the fallback must not be applied on
// top of the fallback run's own — the duplicate used to panic the deferred
// store op with "key already exists" (TPC-C new-order under contention).
func TestFallbackDropsAbortedAttemptsDeferredOps(t *testing.T) {
	rt, stop := newRig(t, 1, 1, 32, func(c *cluster.Config) {
		c.HTM = htm.Config{WriteLines: 4, ReadLines: 4096}
	})
	defer stop()
	keys := []uint64{2, 4, 6, 8, 10, 12} // more lines than the region can write
	err := rt.Executor(0, 0).Exec(func(tx *Tx) error {
		for _, k := range keys {
			if err := tx.W(tblAccounts, k); err != nil {
				return err
			}
		}
		return tx.Execute(func(lc *Local) error {
			lc.Insert(tblAccounts, 100, []uint64{1, 1}) // before the capacity abort
			for _, k := range keys {
				if err := lc.Write(tblAccounts, k, []uint64{7, 7}); err != nil {
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
		t.Fatal("expected the fallback path")
	}
	if v, ok := rt.C.Node(0).Unordered(tblAccounts).Get(100); !ok || v[0] != 1 {
		t.Fatalf("deferred insert = %v, %v", v, ok)
	}
}

// TestFallbackErasesTheVersionItDeclared: an erase is declared against one
// version of its row — the value Erase returned named its index rows and
// whatever else the caller went on to declare. The fallback drops every lock
// and takes them again, so the row can be deleted and re-created in between;
// it must then restage rather than flip a row it never looked at.
func TestFallbackErasesTheVersionItDeclared(t *testing.T) {
	rt, stop := newOrderedRig(t, 1, 2, func(c *cluster.Config) {
		c.HTM = htm.Config{WriteLines: 4, ReadLines: 4096}
	})
	defer stop()
	me, other := rt.Executor(0, 0), rt.Executor(0, 1)
	key := orderedKey(0, 1)
	fillers := []uint64{10, 20, 30, 40, 50, 60} // more lines than the region can write
	insertOrders(t, me, 0, append([]uint64{1}, fillers...))

	attempts := 0
	var erased []uint64
	err := me.Exec(func(tx *Tx) error {
		attempts++
		old, err := tx.Erase(tblOrders, key)
		if err != nil {
			return err
		}
		erased = append(erased[:0], old...)
		for _, f := range fillers {
			if err := tx.W(tblOrders, orderedKey(0, f)); err != nil {
				return err
			}
		}
		first := attempts == 1
		return tx.Execute(func(lc *Local) error {
			if first {
				first = false
				// Swap the row under the declared erase.
				if err := other.Exec(func(tx *Tx) error {
					if _, err := tx.Erase(tblOrders, key); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error { return nil })
				}); err != nil {
					return err
				}
				if err := other.Exec(func(tx *Tx) error {
					if err := tx.WInsert(tblOrders, key, []uint64{999, 1}); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error { return nil })
				}); err != nil {
					return err
				}
			}
			for _, f := range fillers { // the capacity abort: on to the fallback
				if err := lc.Write(tblOrders, orderedKey(0, f), []uint64{7, f}); err != nil {
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
		t.Fatal("expected the fallback path")
	}
	if attempts != 2 || len(erased) != 2 || erased[0] != 999 {
		t.Fatalf("committed on attempt %d having looked at %v, want attempt 2 and the re-created row [999 1]", attempts, erased)
	}
	if _, live := liveOrderedVal(rt, 0, tblOrders, key); live {
		t.Fatal("row still live after the erase committed")
	}
}

// TestEscalatedEraseCommits: an escalated attempt declares an erase holding
// nothing, so Erase's value is the row as its Start phase read it, and the
// fallback re-checks that version under the row's lock. A row nobody changed
// in between passes the check: the attempt commits the erase, local row or
// remote. The body asks for a retry under its first escalateAfter attempts.
func TestEscalatedEraseCommits(t *testing.T) {
	for _, entity := range []uint64{0, 1} { // homed on node 0 (local), node 1 (remote)
		t.Run(fmt.Sprintf("entity%d", entity), func(t *testing.T) {
			rt, stop := newOrderedRig(t, 2, 1, nil)
			defer stop()
			e := rt.Executor(0, 0)
			insertOrders(t, e, entity, []uint64{1})
			key := orderedKey(entity, 1)
			attempts := 0
			var erased []uint64
			err := e.Exec(func(tx *Tx) error {
				attempts++
				old, err := tx.Erase(tblOrders, key)
				if err != nil {
					return err
				}
				erased = append(erased[:0], old...)
				if attempts <= escalateAfter {
					return ErrRetry
				}
				return tx.Execute(func(lc *Local) error { return nil })
			})
			if err != nil {
				t.Fatal(err)
			}
			reg := rt.C.Obs
			if attempts != escalateAfter+1 || reg.Total(obs.EvTxEscalate) != 1 || reg.Total(obs.EvFallback) != 1 {
				t.Fatalf("committed on attempt %d with %d escalated attempts and %d fallbacks, want %d, 1, 1",
					attempts, reg.Total(obs.EvTxEscalate), reg.Total(obs.EvFallback), escalateAfter+1)
			}
			if len(erased) != 2 || erased[0] != 100 || erased[1] != 1 {
				t.Fatalf("Erase returned %v, want [100 1]", erased)
			}
			if _, live := liveOrderedVal(rt, int(entity), tblOrders, key); live {
				t.Fatal("row still live after the erase committed")
			}
		})
	}
}

// TestEscalatedAbsentReadRechecked: a declared row the fallback finds missing
// reads as missing, but holds no lock or lease, so a row inserted between the
// take and the commit must fail the attempt: the transaction could otherwise
// see a later write of the inserter but not its insert. The body asks for a
// retry under its first escalateAfter attempts; under the first escalated
// one, another worker inserts the row. That attempt must lose, and the next
// one reads the row.
func TestEscalatedAbsentReadRechecked(t *testing.T) {
	rt, stop := newOrderedRig(t, 1, 2, nil)
	defer stop()
	me, other := rt.Executor(0, 0), rt.Executor(0, 1)
	key := orderedKey(0, 1)
	attempts, inserted := 0, false
	var seen []uint64
	err := me.Exec(func(tx *Tx) error {
		attempts++
		if err := tx.R(tblOrders, key); err != nil {
			return err
		}
		if attempts <= escalateAfter {
			return ErrRetry
		}
		return tx.Execute(func(lc *Local) error {
			val, err := lc.Read(tblOrders, key)
			if err != nil && err != ErrNotFound {
				return err
			}
			seen = append(seen[:0], val...)
			if !inserted {
				inserted = true
				insertOrders(t, other, 0, []uint64{1})
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := rt.C.Obs
	// The row that appeared is a failed read, not a failed lease.
	if attempts != escalateAfter+2 || reg.Total(obs.EvFallback) != 2 || reg.Total(obs.EvSpecValidateFail) != 1 ||
		reg.Total(obs.EvLeaseConfirmFail) != 0 {
		t.Fatalf("committed on attempt %d with %d fallbacks, %d failed read checks and %d failed leases, want %d, 2, 1, 0",
			attempts, reg.Total(obs.EvFallback), reg.Total(obs.EvSpecValidateFail), reg.Total(obs.EvLeaseConfirmFail), escalateAfter+2)
	}
	if len(seen) != 2 || seen[0] != 100 || seen[1] != 1 {
		t.Fatalf("the committed attempt read %v, want the inserted row [100 1]", seen)
	}
}
