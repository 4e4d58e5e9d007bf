package tx

import (
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/vtime"
)

// lookupRig is a one-node cluster with the hash table of newRig and the
// ordered table of newOrderedRig, under a cost model that charges for index
// lookups and nothing else: a hash probe or a finger hit costs 1 ns, a tree
// descent 1000, so the modeled time a transaction took, with the two index
// counters, says how many lookups of each kind it made.
func lookupRig(t *testing.T) (*Runtime, *Executor) {
	t.Helper()
	cfg := cluster.DefaultConfig(1, 1)
	cfg.LeaseMicros = 1 << 40
	cfg.ROLeaseMicros = 1 << 40
	cfg.Model = vtime.Model{HashProbeNS: 1, BTreeOpNS: 1000}
	c := cluster.New(cfg)
	rt := NewRuntime(c, func(int, uint64) int { return 0 })
	rt.DefineUnordered(tblAccounts, 256, 256, 256, 2)
	rt.DefineOrderedSeg(tblOrders, 4096, 2, 8)
	for k := uint64(1); k <= 64; k++ {
		if err := c.Node(0).Unordered(tblAccounts).Insert(k, []uint64{1000, k}); err != nil {
			t.Fatal(err)
		}
		if err := c.Node(0).Ordered(tblOrders).Insert(orderedKey(0, k), []uint64{100 * k, k}); err != nil {
			t.Fatal(err)
		}
	}
	return rt, rt.Executor(0, 0)
}

// lookups runs fn and returns the index lookups it made on e's worker: tree
// descents, finger hits and hash probes (see lookupRig).
func lookups(t *testing.T, e *Executor, fn func() error) (descents, hits, probes int64) {
	t.Helper()
	sh := e.w.Obs
	walks := func() int64 { return sh.Count(obs.EvTreeDescent) + sh.Count(obs.EvLeafFullDescent) }
	d0, h0, ns0 := walks(), sh.Count(obs.EvFingerHit), int64(e.w.VClock.Now())
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	descents, hits = walks()-d0, sh.Count(obs.EvFingerHit)-h0
	probes = int64(e.w.VClock.Now()) - ns0 - 1000*descents - hits
	return descents, hits, probes
}

// bumpLocal declares keys of table for writing and reads, then writes, each
// in the body. With abortFirst set, the first attempt runs it after its last
// write and then aborts its region, so that the body runs again.
func bumpLocal(e *Executor, table int, keys []uint64, abortFirst func()) error {
	return e.Exec(func(tx *Tx) error {
		for _, k := range keys {
			if err := tx.W(table, k); err != nil {
				return err
			}
		}
		return tx.Execute(func(lc *Local) error {
			for _, k := range keys {
				v, err := lc.Read(table, k)
				if err != nil {
					return err
				}
				v[0]++
				if err := lc.Write(table, k, v); err != nil {
					return err
				}
			}
			if f := abortFirst; f != nil {
				abortFirst = nil
				f()
				lc.htx.Abort(99)
			}
			return nil
		})
	})
}

// TestLocalLookupOncePerAttempt: a Read followed by a Write of one declared
// local record makes exactly one index lookup per region attempt — one hash
// probe, or one descent or finger hit — and a run of adjacent ordered keys
// descends once per leaf.
func TestLocalLookupOncePerAttempt(t *testing.T) {
	_, e := lookupRig(t)
	d, h, p := lookups(t, e, func() error { return bumpLocal(e, tblAccounts, []uint64{7}, nil) })
	if d != 0 || h != 0 || p != 1 {
		t.Errorf("hash read + write: %d descents, %d finger hits, %d probes; want one probe", d, h, p)
	}
	// Far from wherever the finger rests, then again beside it.
	d, h, p = lookups(t, e, func() error { return bumpLocal(e, tblOrders, []uint64{orderedKey(0, 60)}, nil) })
	if d+h != 1 || p != 0 {
		t.Errorf("ordered read + write: %d descents, %d finger hits, %d probes; want one lookup", d, h, p)
	}
	d, h, p = lookups(t, e, func() error { return bumpLocal(e, tblOrders, []uint64{orderedKey(0, 61)}, nil) })
	if d != 0 || h != 1 || p != 0 {
		t.Errorf("ordered read + write beside the last one: %d descents, %d finger hits, %d probes; want one hit", d, h, p)
	}
	var run []uint64
	for s := uint64(1); s <= 10; s++ {
		run = append(run, orderedKey(0, s))
	}
	d, h, p = lookups(t, e, func() error { return bumpLocal(e, tblOrders, run, nil) })
	if d+h != 10 || d > 2 || p != 0 {
		t.Errorf("10 adjacent ordered rows: %d descents, %d finger hits, %d probes; want 10 lookups, at most 2 descents", d, h, p)
	}
	// A region retry resolves again: one lookup per record per attempt.
	d, h, p = lookups(t, e, func() error {
		return bumpLocal(e, tblAccounts, []uint64{7, 9}, func() {})
	})
	if d != 0 || h != 0 || p != 4 {
		t.Errorf("2 hash rows over 2 attempts: %d descents, %d finger hits, %d probes; want 4 probes", d, h, p)
	}
	d, h, p = lookups(t, e, func() error {
		return bumpLocal(e, tblOrders, run[:3], func() {})
	})
	if d+h != 6 || p != 0 {
		t.Errorf("3 ordered rows over 2 attempts: %d descents, %d finger hits, %d probes; want 6 lookups", d, h, p)
	}
}

// moveOrdered erases key on its shard, hands its entry slot to other, and
// inserts key again with val — in a different slot.
func moveOrdered(t *testing.T, o *kvs.Ordered, key, other uint64, val []uint64) {
	t.Helper()
	off, ok := o.Lookup(key)
	if !ok || !o.Delete(key) {
		t.Fatalf("key %#x not deletable", key)
	}
	if err := o.Insert(other, []uint64{555, 5}); err != nil {
		t.Fatal(err)
	}
	if got, _ := o.Lookup(other); got != off {
		t.Fatalf("key %#x landed at %d, not in key %#x's freed slot %d", other, got, key, off)
	}
	if err := o.Insert(key, val); err != nil {
		t.Fatal(err)
	}
}

// TestMemoForgottenBetweenAttempts: a declared local ordered record that a
// conflicting erase + re-insert moved to another slot between two region
// attempts of one transaction is read and written in its new slot by the
// retry. A location memo that outlived the attempt that made it would read,
// and overwrite, the key its old slot was recycled for.
func TestMemoForgottenBetweenAttempts(t *testing.T) {
	rt, e := lookupRig(t)
	o := rt.C.Node(0).Ordered(tblOrders)
	key, other := orderedKey(0, 5), orderedKey(0, 200)
	err := bumpLocal(e, tblOrders, []uint64{key}, func() {
		moveOrdered(t, o, key, other, []uint64{7000, 5})
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := liveOrderedVal(rt, 0, tblOrders, key); !ok || v[0] != 7001 {
		t.Errorf("moved row = %v, %v; want the retry's increment of the re-inserted value, 7001", v, ok)
	}
	if v, ok := liveOrderedVal(rt, 0, tblOrders, other); !ok || v[0] != 555 {
		t.Errorf("the row in the recycled slot = %v, %v; want it untouched, 555", v, ok)
	}
}

// TestMemoDoomedByRecycleInsideAttempt: the same erase + recycle landing
// inside an attempt, after the record's first access, dooms that attempt —
// its read set holds the entry's state and incver words — so the memoized
// write never reaches the recycled slot; the retry finds the new one.
func TestMemoDoomedByRecycleInsideAttempt(t *testing.T) {
	rt, e := lookupRig(t)
	o := rt.C.Node(0).Ordered(tblOrders)
	key, other := orderedKey(0, 5), orderedKey(0, 200)
	bodies := 0
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblOrders, key); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			bodies++
			v, err := lc.Read(tblOrders, key)
			if err != nil {
				return err
			}
			if bodies == 1 {
				moveOrdered(t, o, key, other, []uint64{7000, 5})
			}
			return lc.Write(tblOrders, key, []uint64{v[0] + 1, v[1]})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if bodies != 2 {
		t.Errorf("the body ran %d times; want the attempt the recycle landed in aborted and one retry", bodies)
	}
	if v, ok := liveOrderedVal(rt, 0, tblOrders, key); !ok || v[0] != 7001 {
		t.Errorf("moved row = %v, %v; want 7001", v, ok)
	}
	if v, ok := liveOrderedVal(rt, 0, tblOrders, other); !ok || v[0] != 555 {
		t.Errorf("the row in the recycled slot = %v, %v; want it untouched, 555", v, ok)
	}
}

// TestMemoDoomedByBucketMove: hash table — the record leaving its bucket
// chain (and its entry going to another key) between the Read and the Write
// aborts the region: the bucket words LookupTx walked are in the read set.
func TestMemoDoomedByBucketMove(t *testing.T) {
	rt, e := lookupRig(t)
	host := rt.C.Node(0).Unordered(tblAccounts)
	const key, other = 5, 200
	bodies := 0
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, key); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			bodies++
			v, err := lc.Read(tblAccounts, key)
			if err != nil {
				return err
			}
			if bodies == 1 {
				reuseSlot(t, host, key, other, []uint64{555, 5})
				if err := host.Insert(key, []uint64{7000, 5}); err != nil {
					t.Fatal(err)
				}
			}
			return lc.Write(tblAccounts, key, []uint64{v[0] + 1, v[1]})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if bodies != 2 {
		t.Errorf("the body ran %d times; want the attempt the move landed in aborted and one retry", bodies)
	}
	if v, ok := host.Get(key); !ok || v[0] != 7001 {
		t.Errorf("moved record = %v, %v; want 7001", v, ok)
	}
	if v, ok := host.Get(other); !ok || v[0] != 555 {
		t.Errorf("the record in the recycled entry = %v, %v; want it untouched, 555", v, ok)
	}
}

// TestMemoHoldsReplicaRegion: on a promoted partition a declared local record
// lives in the new owner's replica region, and that region's arena is what
// the memo holds and the write lands in.
func TestMemoHoldsReplicaRegion(t *testing.T) {
	cfg := cluster.DefaultConfig(3, 1)
	cfg.LeaseMicros = 1 << 40
	cfg.ROLeaseMicros = 1 << 40
	cfg.Durability = true
	cfg.ReplicationFactor = 1
	c := cluster.New(cfg)
	rt := NewRuntime(c, func(_ int, key uint64) int { return int(key) % 3 })
	rt.DefineUnordered(tblAccounts, 256, 256, 256, 2)
	const key = 4 // homed on node 1, backed up on node 2
	load := rt.Executor(1, 0)
	if err := load.Exec(func(tx *Tx) error {
		return tx.Execute(func(lc *Local) error {
			lc.Insert(tblAccounts, key, []uint64{1000, key})
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	if rep := rt.Failover(1); !rep.Promoted || rep.NewOwner != 2 {
		t.Fatalf("Failover(1) = %+v; want node 2 promoted", rep)
	}
	replica := c.Node(2).Unordered(cluster.CopyRegion(1, tblAccounts, 2))
	e := rt.Executor(2, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, key); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			v, err := lc.Read(tblAccounts, key)
			if err != nil {
				return err
			}
			if len(tx.locals) != 1 || tx.locals[0].arena != replica.Arena() {
				t.Errorf("declared locals %+v; want one, its memo in the replica region's arena", tx.locals)
			}
			return lc.Write(tblAccounts, key, []uint64{v[0] + 1, v[1]})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := replica.Get(key); !ok || v[0] != 1001 {
		t.Errorf("replica shard holds %v, %v; want 1001", v, ok)
	}
}
