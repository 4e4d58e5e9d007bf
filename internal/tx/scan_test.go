package tx

import (
	"errors"
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// Ordered-table rig: keys encode entity<<8|sub, partitioned by entity, so a
// single entity's rows co-locate and a scan of [e<<8, e<<8|0xFF] is legal.
const (
	tblOrders   = 7
	tblOrderIdx = 8
)

func orderedKey(entity, sub uint64) uint64 { return entity<<8 | sub }

func newOrderedRig(t testing.TB, nodes, workers int, mut func(*cluster.Config)) (*Runtime, func()) {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes, workers)
	cfg.LeaseMicros = 5_000
	cfg.ROLeaseMicros = 10_000
	if mut != nil {
		mut(&cfg)
	}
	c := cluster.New(cfg)
	c.Start()
	rt := NewRuntime(c, func(table int, key uint64) int { return int(key>>8) % nodes })
	rt.DefineOrderedSeg(tblOrders, 4096, 2, 8)
	return rt, c.Stop
}

// liveOrderedVal reads a committed ordered row directly, reporting liveness.
func liveOrderedVal(rt *Runtime, node, table int, key uint64) ([]uint64, bool) {
	o := rt.C.Node(node).Ordered(table)
	off, ok := o.Lookup(key)
	if !ok {
		return nil, false
	}
	arena := o.Arena()
	if !kvs.Live(kvs.Incarnation(arena.LoadWord(kvs.IncVerOffset(off)))) {
		return nil, false
	}
	val := make([]uint64, o.ValueWords())
	arena.Read(val, kvs.ValueOffset(off))
	return val, true
}

func insertOrders(t *testing.T, e *Executor, entity uint64, subs []uint64) {
	t.Helper()
	for _, s := range subs {
		key := orderedKey(entity, s)
		err := e.Exec(func(tx *Tx) error {
			if err := tx.WInsert(tblOrders, key, []uint64{s * 100, s}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if err != nil {
			t.Fatalf("insert %#x: %v", key, err)
		}
	}
}

func TestScanLocalAndRemote(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	e := rt.Executor(0, 0)
	insertOrders(t, e, 0, []uint64{3, 1, 7, 5}) // entity 0: node 0 (local)
	insertOrders(t, e, 1, []uint64{2, 9})       // entity 1: node 1 (remote)

	for _, tc := range []struct {
		entity uint64
		want   []uint64
	}{
		{0, []uint64{1, 3, 5, 7}},
		{1, []uint64{2, 9}},
	} {
		var got []uint64
		err := e.Exec(func(tx *Tx) error {
			got = got[:0]
			rows, err := tx.Scan(tblOrders, orderedKey(tc.entity, 0), orderedKey(tc.entity, 0xFF), 0)
			if err != nil {
				return err
			}
			for _, r := range rows {
				if r.Val[0] != (r.Key&0xFF)*100 {
					t.Errorf("row %#x val %v", r.Key, r.Val)
				}
				got = append(got, r.Key&0xFF)
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if err != nil {
			t.Fatalf("scan entity %d: %v", tc.entity, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("entity %d: got subs %v want %v", tc.entity, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("entity %d: got subs %v want %v", tc.entity, got, tc.want)
			}
		}
	}

	// Bounded scan returns the first `limit` keys in order.
	err := e.Exec(func(tx *Tx) error {
		rows, err := tx.Scan(tblOrders, orderedKey(0, 0), orderedKey(0, 0xFF), 2)
		if err != nil {
			return err
		}
		if len(rows) != 2 || rows[0].Key != orderedKey(0, 1) || rows[1].Key != orderedKey(0, 3) {
			t.Errorf("limited scan rows = %+v", rows)
		}
		return tx.Execute(func(lc *Local) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWInsertEraseRoundTrip(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	e := rt.Executor(0, 0)

	for _, entity := range []uint64{0, 1} { // local and remote arms
		key := orderedKey(entity, 4)
		node := int(entity)
		insertOrders(t, e, entity, []uint64{4})
		if v, ok := liveOrderedVal(rt, node, tblOrders, key); !ok || v[0] != 400 {
			t.Fatalf("entity %d: after insert = %v,%v", entity, v, ok)
		}
		// Duplicate insert reports ErrExists.
		err := e.Exec(func(tx *Tx) error {
			if err := tx.WInsert(tblOrders, key, []uint64{1, 1}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if !errors.Is(err, kvs.ErrExists) {
			t.Fatalf("entity %d: duplicate insert err = %v", entity, err)
		}
		// Erase returns the old value and removes the row.
		var old []uint64
		err = e.Exec(func(tx *Tx) error {
			v, err := tx.Erase(tblOrders, key)
			if err != nil {
				return err
			}
			old = append(old[:0], v...)
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if err != nil || old[0] != 400 {
			t.Fatalf("entity %d: erase = %v old=%v", entity, err, old)
		}
		if _, ok := liveOrderedVal(rt, node, tblOrders, key); ok {
			t.Fatalf("entity %d: row live after erase", entity)
		}
		// The physical entry is removed post-commit; re-insert works.
		insertOrders(t, e, entity, []uint64{4})
		if v, ok := liveOrderedVal(rt, node, tblOrders, key); !ok || v[0] != 400 {
			t.Fatalf("entity %d: after re-insert = %v,%v", entity, v, ok)
		}
	}
}

// Phantom regression: a writer inserting into a scanned range between the
// speculative scan and commit must force a retry — a second attempt, which
// sees the phantom, and a recorded scan validation failure — for a local and
// a remote scan alike.
func TestScanPhantomForcesRetry(t *testing.T) {
	for _, entity := range []uint64{0, 1} { // local and remote scan arms
		rt, stop := newOrderedRig(t, 2, 2, nil)
		e := rt.Executor(0, 0)
		writer := rt.Executor(0, 1)
		insertOrders(t, e, entity, []uint64{1, 2})

		phantom := orderedKey(entity, 3)
		attempts := 0
		var rowCounts []int
		err := e.Exec(func(tx *Tx) error {
			attempts++
			rows, err := tx.Scan(tblOrders, orderedKey(entity, 0), orderedKey(entity, 0xFF), 0)
			if err != nil {
				return err
			}
			rowCounts = append(rowCounts, len(rows))
			if attempts == 1 {
				// Between collection and commit: another worker commits an
				// insert into the scanned range.
				werr := writer.Exec(func(wt *Tx) error {
					if err := wt.WInsert(tblOrders, phantom, []uint64{300, 3}); err != nil {
						return err
					}
					return wt.Execute(func(lc *Local) error { return nil })
				})
				if werr != nil {
					t.Fatalf("phantom writer: %v", werr)
				}
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if err != nil {
			t.Fatalf("entity %d: %v", entity, err)
		}
		if attempts < 2 {
			t.Fatalf("entity %d: phantom admitted: committed on attempt %d", entity, attempts)
		}
		last := rowCounts[len(rowCounts)-1]
		if rowCounts[0] != 2 || last != 3 {
			t.Fatalf("entity %d: row counts %v, want first=2 last=3", entity, rowCounts)
		}
		if rt.C.Obs.Snapshot().Counter(obs.EvScanValidateFail) == 0 {
			t.Fatalf("entity %d: no scan validation failure recorded", entity)
		}
		stop()
	}
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	// Index: same entity (partition co-located), sub attribute = val[1],
	// bijective per entity in this test so index keys stay unique.
	rt.DefineOrderedSeg(tblOrderIdx, 4096, 1, 8)
	rt.DefineIndex(tblOrders, IndexSpec{
		Table: tblOrderIdx,
		Key:   func(baseKey uint64, val []uint64) uint64 { return baseKey&^0xFF | val[1]&0xFF },
	})
	e := rt.Executor(0, 0)

	for _, entity := range []uint64{0, 1} { // local and remote maintenance
		node := int(entity)
		base := orderedKey(entity, 4)
		// Insert with sub attribute 9: index row at entity<<8|9 -> base key.
		err := e.Exec(func(tx *Tx) error {
			if err := tx.WInsert(tblOrders, base, []uint64{400, 9}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if err != nil {
			t.Fatalf("entity %d: insert: %v", entity, err)
		}
		iv, ok := liveOrderedVal(rt, node, tblOrderIdx, orderedKey(entity, 9))
		if !ok || iv[0] != base {
			t.Fatalf("entity %d: index row = %v,%v want [%#x]", entity, iv, ok, base)
		}
		// A plain write that keeps the indexed attribute is fine.
		err = e.Exec(func(tx *Tx) error {
			if err := tx.W(tblOrders, base); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				return lc.Write(tblOrders, base, []uint64{401, 9})
			})
		})
		if err != nil {
			t.Fatalf("entity %d: in-place update: %v", entity, err)
		}
		// Erase removes base and index rows together.
		err = e.Exec(func(tx *Tx) error {
			_, err := tx.Erase(tblOrders, base)
			if err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if err != nil {
			t.Fatalf("entity %d: erase: %v", entity, err)
		}
		if _, ok := liveOrderedVal(rt, node, tblOrders, base); ok {
			t.Fatalf("entity %d: base row live after erase", entity)
		}
		if _, ok := liveOrderedVal(rt, node, tblOrderIdx, orderedKey(entity, 9)); ok {
			t.Fatalf("entity %d: index row live after erase", entity)
		}
	}
}

func TestWriteChangingIndexedAttributePanics(t *testing.T) {
	rt, stop := newOrderedRig(t, 1, 1, nil)
	defer stop()
	rt.DefineOrderedSeg(tblOrderIdx, 4096, 1, 8)
	rt.DefineIndex(tblOrders, IndexSpec{
		Table: tblOrderIdx,
		Key:   func(baseKey uint64, val []uint64) uint64 { return baseKey&^0xFF | val[1]&0xFF },
	})
	e := rt.Executor(0, 0)
	base := orderedKey(0, 4)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.WInsert(tblOrders, base, []uint64{400, 9}); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("plain Write changing the indexed attribute did not panic")
		}
	}()
	_ = e.Exec(func(tx *Tx) error {
		if err := tx.W(tblOrders, base); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			return lc.Write(tblOrders, base, []uint64{400, 8}) // moves the index key
		})
	})
}

func TestROScanConfirm(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, nil)
	defer stop()
	e := rt.Executor(0, 0)
	insertOrders(t, e, 0, []uint64{1, 2, 3})
	insertOrders(t, e, 1, []uint64{5, 6})

	for _, entity := range []uint64{0, 1} { // local and remote RO scans
		var got int
		err := e.ExecRO(func(ro *RO) error {
			rows, err := ro.Scan(tblOrders, orderedKey(entity, 0), orderedKey(entity, 0xFF), 0)
			if err != nil {
				return err
			}
			got = len(rows)
			for _, r := range rows {
				if r.Val[0] != (r.Key&0xFF)*100 {
					t.Errorf("row %#x val %v", r.Key, r.Val)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("entity %d: %v", entity, err)
		}
		want := 3
		if entity == 1 {
			want = 2
		}
		if got != want {
			t.Fatalf("entity %d: %d rows, want %d", entity, got, want)
		}
	}
	if rt.C.Obs.Snapshot().Counter(obs.EvScan) == 0 {
		t.Fatal("no scans counted")
	}
}

// TestEraseLosesRaceOnIndexedRow: two transactions erase the same indexed
// local row. The loser stages the base row unlocked (declareLocalErase), the
// winner commits its base + index flips, and only then does the loser look
// for the index row. A missing index row under a base row that moved since
// staging is a lost race — retry, then ErrNotFound — not the
// index-divergence panic. The index's key function runs between the loser's
// two stagings, which is where the test commits the winner.
func TestEraseLosesRaceOnIndexedRow(t *testing.T) {
	rt, stop := newOrderedRig(t, 1, 2, nil)
	defer stop()
	rt.DefineOrderedSeg(tblOrderIdx, 4096, 1, 8)
	loser, winner := rt.Executor(0, 0), rt.Executor(0, 1)
	base := orderedKey(0, 4)
	erase := func(e *Executor) error {
		return e.Exec(func(tx *Tx) error {
			if _, err := tx.Erase(tblOrders, base); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
	}
	armed := false
	rt.DefineIndex(tblOrders, IndexSpec{
		Table: tblOrderIdx,
		Key: func(baseKey uint64, val []uint64) uint64 {
			if armed {
				armed = false
				if err := erase(winner); err != nil {
					t.Errorf("winner: %v", err)
				}
			}
			return baseKey&^0xFF | val[1]&0xFF
		},
	})
	if err := loser.Exec(func(tx *Tx) error {
		if err := tx.WInsert(tblOrders, base, []uint64{400, 9}); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	armed = true
	if err := erase(loser); !errors.Is(err, ErrNotFound) {
		t.Fatalf("losing erase = %v, want ErrNotFound", err)
	}
	if _, live := liveOrderedVal(rt, 0, tblOrders, base); live {
		t.Fatal("base row still live after the winning erase")
	}
	if _, live := liveOrderedVal(rt, 0, tblOrderIdx, orderedKey(0, 9)); live {
		t.Fatal("index row still live after the winning erase")
	}
}
