//go:build !race

package tx

import (
	"testing"

	"drtm/internal/cluster"
)

// TestExecAllocSteadyState pins the pooled hot path: once the executor's
// pools are warm, what a committed transaction allocates is the new value the
// body builds (it escapes through Local.Write's index-key check) — one object
// measured, local or remote. The values Local.Read hands out, the HTM region,
// the commit waves and the remote lookup run from recycled scratch.
// The budget is what is measured plus one. Excluded under -race: the detector
// adds shadow allocations.
func TestExecAllocSteadyState(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 20, nil)
	defer stop()
	rt.ReadPolicy = PolicySpeculative
	e := rt.Executor(0, 0)
	for i := 0; i < 16; i++ { // warm the pools
		if err := benchRemoteTxn(e, true); err != nil {
			t.Fatal(err)
		}
		if err := benchLocalTxn(e); err != nil {
			t.Fatal(err)
		}
	}
	local := testing.AllocsPerRun(50, func() {
		if err := benchLocalTxn(e); err != nil {
			t.Fatal(err)
		}
	})
	remote := testing.AllocsPerRun(50, func() {
		if err := benchRemoteTxn(e, true); err != nil {
			t.Fatal(err)
		}
	})
	if local > 2 {
		t.Errorf("local txn allocates %.0f objects, budget 2", local)
	}
	if remote > 2 {
		t.Errorf("remote spec txn allocates %.0f objects, budget 2", remote)
	}

	// The snapshot RO path (one remote + one local chain-resolved read)
	// measured 11 objects/op when introduced — the entry image, the value
	// copies, and the verb round-trip. Budget 15 so a regression that starts
	// allocating per-slot or per-attempt scratch trips the guard.
	rt.ReadPolicy = PolicyMVCC
	for i := 0; i < 16; i++ {
		if err := benchMVCCROTxn(e); err != nil {
			t.Fatal(err)
		}
	}
	mvcc := testing.AllocsPerRun(50, func() {
		if err := benchMVCCROTxn(e); err != nil {
			t.Fatal(err)
		}
	})
	if mvcc > 15 {
		t.Errorf("mvcc RO allocates %.0f objects, budget 15", mvcc)
	}

	// The confirm-wave RO path over ten local and ten remote records allocates
	// nothing: the shell, its index, its staged records and the value buffers
	// the body reads from are recycled on the executor.
	rt.ReadPolicy = PolicyAdaptive
	for i := 0; i < 16; i++ {
		if err := benchRO20Txn(e); err != nil {
			t.Fatal(err)
		}
	}
	ro20 := testing.AllocsPerRun(50, func() {
		if err := benchRO20Txn(e); err != nil {
			t.Fatal(err)
		}
	})
	if ro20 > 0 {
		t.Errorf("20-record RO allocates %.0f objects, want 0", ro20)
	}
}

// TestOrderedAllocSteadyState pins the structural and shipped paths of
// Tx.Stage the same way: a remote insert of two indexed rows (four rows — the
// bases and their index rows — one shipped message, one CAS wave), the erase
// that undoes it (bases, then the owed index rows, then one removal message)
// and a remote two-record ordered read-write transaction run from the
// transaction's and the executor's scratch: the index rows' values, the
// shipped and removal messages and their envelope, the batch bookkeeping.
func TestOrderedAllocSteadyState(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	rt.DefineOrderedSeg(tblOrderIdx, 4096, 1, 8)
	rt.DefineIndex(tblOrders, IndexSpec{Table: tblOrderIdx,
		Key: func(baseKey uint64, val []uint64) uint64 { return baseKey&^0xFF | val[1]&0xFF }})
	e := rt.Executor(0, 0)
	a, b := orderedKey(1, 1), orderedKey(1, 2) // entity 1 is homed on node 1: remote
	va, vb := []uint64{100, 11}, []uint64{200, 12}
	insert := func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblOrders, Key: a, Insert: va},
				Access{Table: tblOrders, Key: b, Insert: vb}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
	}
	erase := func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblOrders, Key: a, Erase: true},
				Access{Table: tblOrders, Key: b, Erase: true}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
	}
	readWrite := func() error {
		return e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblOrderIdx, Key: orderedKey(1, 11)},
				Access{Table: tblOrders, Key: a, Write: true}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				v, err := lc.Read(tblOrders, a)
				if err != nil {
					return err
				}
				return lc.Write(tblOrders, a, []uint64{v[0] + 1, v[1]})
			})
		})
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools
		must(insert())
		must(readWrite())
		must(erase())
	}
	must(insert())
	// Measured: 1 (the value the body builds) and 0. The budgets are that plus one.
	rw := testing.AllocsPerRun(50, func() { must(readWrite()) })
	must(erase())
	churn := testing.AllocsPerRun(50, func() {
		must(insert())
		must(erase())
	})
	if rw > 2 {
		t.Errorf("remote ordered read-write txn allocates %.0f objects, budget 2", rw)
	}
	if churn > 1 {
		t.Errorf("remote 4-row insert + erase allocates %.0f objects, budget 1", churn)
	}
}

// TestLocalOrderedAllocSteadyState pins the local ordered hot path — TPC-C
// delivery's shape: ten adjacent rows of one shard, each read and then written
// in the region — at zero objects per committed transaction once the pools
// are warm. The values Local.Read hands out and the write-ahead captures are
// carved from the transaction's per-attempt scratch, the record locations are
// memoized in the declared records, and the leaf finger is the executor's.
func TestLocalOrderedAllocSteadyState(t *testing.T) {
	rt, stop := newOrderedRig(t, 1, 1, func(c *cluster.Config) { c.Durability = true })
	defer stop()
	e := rt.Executor(0, 0)
	var keys []uint64
	for s := uint64(1); s <= 10; s++ {
		keys = append(keys, orderedKey(0, s))
	}
	insertOrders(t, e, 0, []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	rmw := func() {
		if err := bumpLocal(e, tblOrders, keys, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools
		rmw()
	}
	if n := testing.AllocsPerRun(50, rmw); n > 0 {
		t.Errorf("local read-modify-write of 10 adjacent ordered rows allocates %.0f objects, want 0", n)
	}
}
