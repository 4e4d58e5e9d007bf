package tx

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// equivRig is a two-node cluster of indexed ordered rows whose soft-clock
// timers never start and whose leases never expire: nothing in it depends on
// a real-time window, so two rigs fed one script end up bit-identical.
// Entity e is homed on node e%2; the index key is the row's entity with the
// value's second word as the sub-key.
func equivRig(t *testing.T) (*Runtime, *Executor) {
	t.Helper()
	cfg := cluster.DefaultConfig(2, 1)
	cfg.LeaseMicros = 1 << 40
	cfg.ROLeaseMicros = 1 << 40
	rt := NewRuntime(cluster.New(cfg), func(table int, key uint64) int { return int(key>>8) % 2 })
	rt.DefineOrderedSeg(tblOrders, 4096, 2, 8)
	rt.DefineOrderedSeg(tblOrderIdx, 4096, 1, 8)
	rt.DefineIndex(tblOrders, IndexSpec{Table: tblOrderIdx,
		Key: func(baseKey uint64, val []uint64) uint64 { return baseKey&^0xFF | val[1]&0xFF }})
	return rt, rt.Executor(0, 0)
}

// liveRows dumps the live rows of one table across both nodes.
func liveRows(rt *Runtime, table int) map[uint64][]uint64 {
	out := map[uint64][]uint64{}
	for n := 0; n < rt.C.Nodes(); n++ {
		o := rt.C.Node(n).Ordered(table)
		arena, vw := o.Arena(), o.ValueWords()
		o.Scan(0, ^uint64(0), func(k uint64, off memory.Offset) bool {
			if kvs.Live(kvs.Incarnation(arena.LoadWord(kvs.IncVerOffset(off)))) {
				v := make([]uint64, vw)
				arena.Read(v, kvs.ValueOffset(off))
				out[k] = v
			}
			return true
		})
	}
	return out
}

// lockedKeys lists the keys of a table whose entry's state word is not Init.
func lockedKeys(rt *Runtime, table int) []uint64 {
	var out []uint64
	for n := 0; n < rt.C.Nodes(); n++ {
		o := rt.C.Node(n).Ordered(table)
		o.Scan(0, ^uint64(0), func(k uint64, off memory.Offset) bool {
			if o.Arena().LoadWord(kvs.StateOffset(off)) != clock.Init {
				out = append(out, k)
			}
			return true
		})
	}
	return out
}

// TestStageEquivalence is the batching property test: random multi-row
// transactions — reads, writes, inserts and erases of indexed rows, on local
// and remote entities mixed — declared through ONE Stage on one rig and
// through per-row R / W / WInsert / Erase on a twin rig leave identical table
// contents, identical index contents and identical lock / lease counters.
// Read-only rows, read-write rows and the structural rows are disjoint key
// ranges, so the leases the reads leave behind (they never expire here) block
// no writer.
func TestStageEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { stageEquivalence(t, seed) })
	}
}

func stageEquivalence(t *testing.T, seed int64) {
	type rig struct {
		rt *Runtime
		e  *Executor
	}
	var rigs [2]rig // 0 declares with one Stage, 1 row by row
	for i := range rigs {
		rigs[i].rt, rigs[i].e = equivRig(t)
	}
	// Sub-keys 1..8 of entities 0..3 are read-only rows, 9..16 read-write
	// rows, 17..40 rows that come and go (half of them live at the start).
	live := map[uint64]bool{}
	for ent := uint64(0); ent < 4; ent++ {
		for sub := uint64(1); sub <= 40; sub++ {
			if sub > 16 && sub%2 == 0 {
				continue
			}
			for _, r := range rigs {
				insertOrders(t, r.e, ent, []uint64{sub})
			}
			live[orderedKey(ent, sub)] = true
		}
	}
	for _, r := range rigs {
		r.rt.C.Obs.Reset()
	}

	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < 300; n++ {
		// One script: distinct keys, valid against the model (inserts of absent
		// rows, erases and writes of live ones).
		var accs []Access
		used := map[uint64]bool{}
		for len(accs) < 1+rng.Intn(6) {
			ent := uint64(rng.Intn(4))
			var a Access
			switch c := rng.Intn(10); {
			case c < 3:
				a = Access{Table: tblOrders, Key: orderedKey(ent, uint64(1+rng.Intn(8)))}
			case c < 5:
				a = Access{Table: tblOrders, Key: orderedKey(ent, uint64(9+rng.Intn(8))), Write: true}
			default:
				key := orderedKey(ent, uint64(17+rng.Intn(24)))
				switch {
				case !live[key]:
					a = Access{Table: tblOrders, Key: key, Insert: []uint64{uint64(n), key & 0xFF}}
				case c < 8:
					a = Access{Table: tblOrders, Key: key, Erase: true}
				default:
					a = Access{Table: tblOrders, Key: key, Write: true}
				}
			}
			if !used[a.Key] {
				used[a.Key] = true
				accs = append(accs, a)
			}
		}
		body := func(lc *Local) error {
			for _, a := range accs {
				if a.Insert != nil || a.Erase {
					continue
				}
				v, err := lc.Read(a.Table, a.Key)
				if err != nil {
					return err
				}
				if a.Write {
					if err := lc.Write(a.Table, a.Key, []uint64{v[0] + uint64(n), v[1]}); err != nil {
						return err
					}
				}
			}
			return nil
		}
		for i, r := range rigs {
			err := r.e.Exec(func(tx *Tx) error {
				if i == 0 {
					if err := tx.Stage(accs...); err != nil {
						return err
					}
					return tx.Execute(body)
				}
				for _, a := range accs {
					var err error
					switch {
					case a.Insert != nil:
						err = tx.WInsert(a.Table, a.Key, a.Insert)
					case a.Erase:
						_, err = tx.Erase(a.Table, a.Key)
					case a.Write:
						err = tx.W(a.Table, a.Key)
					default:
						err = tx.R(a.Table, a.Key)
					}
					if err != nil {
						return err
					}
				}
				return tx.Execute(body)
			})
			if err != nil {
				t.Fatalf("txn %d, rig %d (%+v): %v", n, i, accs, err)
			}
		}
		for _, a := range accs {
			if a.Insert != nil {
				live[a.Key] = true
			} else if a.Erase {
				delete(live, a.Key)
			}
		}
	}

	for _, table := range []int{tblOrders, tblOrderIdx} {
		staged, perRow := liveRows(rigs[0].rt, table), liveRows(rigs[1].rt, table)
		if !reflect.DeepEqual(staged, perRow) {
			t.Fatalf("table %d differs: staged %d live rows, per-row %d", table, len(staged), len(perRow))
		}
		if table == tblOrders && len(staged) != len(live) {
			t.Fatalf("%d live base rows, the model has %d", len(staged), len(live))
		}
		for i, r := range rigs {
			// The read-only rows keep their never-expiring leases; nothing else
			// may be left locked.
			for _, k := range lockedKeys(r.rt, table) {
				if table != tblOrders || k&0xFF > 8 {
					t.Fatalf("rig %d left table %d key %#x locked", i, table, k)
				}
			}
		}
	}
	a, b := rigs[0].rt.C.Obs.Snapshot(), rigs[1].rt.C.Obs.Snapshot()
	for _, ev := range []obs.Event{obs.EvTxCommit, obs.EvTxRetry, obs.EvLeaseGrant, obs.EvLeaseShare,
		obs.EvLeaseExpire, obs.EvLockUpgrade, obs.EvRemoteLockConflict, obs.EvRDMACAS,
		obs.EvIndexMaint, obs.EvRemoveDead} {
		if a.Counter(ev) != b.Counter(ev) {
			t.Errorf("%v: staged %d, per-row %d", ev, a.Counter(ev), b.Counter(ev))
		}
	}
	t.Logf("commits %d, lease grants %d shares %d, upgrades %d, CAS %d, index rows %d, removals %d; messages staged %d, per-row %d",
		a.Counter(obs.EvTxCommit), a.Counter(obs.EvLeaseGrant), a.Counter(obs.EvLeaseShare), a.Counter(obs.EvLockUpgrade),
		a.Counter(obs.EvRDMACAS), a.Counter(obs.EvIndexMaint), a.Counter(obs.EvRemoveDead),
		a.Counter(obs.EvVerbsMsg), b.Counter(obs.EvVerbsMsg))
	if a.Counter(obs.EvVerbsMsg) >= b.Counter(obs.EvVerbsMsg) {
		t.Errorf("one Stage sent %d messages, per-row %d: nothing was coalesced",
			a.Counter(obs.EvVerbsMsg), b.Counter(obs.EvVerbsMsg))
	}
}

// TestStagePartialFailure: a batch in which one record turns out not to be
// there to take — an insert of a live key (kvs.ErrExists), an erase of a key
// that is absent or present but dead (ErrNotFound) — returns that error with
// the offending record unstaged and the transaction still usable; once the
// transaction aborts, every state word it touched is free again.
func TestStagePartialFailure(t *testing.T) {
	for _, ent := range []uint64{0, 1} { // entity 0 is local to the executor, 1 remote
		t.Run(map[uint64]string{0: "local", 1: "remote"}[ent], func(t *testing.T) {
			rt, e := equivRig(t)
			insertOrders(t, e, ent, []uint64{1, 2, 3})
			// Sub-key 3 is present but dead: erased, its removal withheld.
			if err := e.Exec(func(tx *Tx) error {
				if _, err := tx.Erase(tblOrders, orderedKey(ent, 3)); err != nil {
					return err
				}
				if err := tx.Stage(); err != nil { // the owed index row
					return err
				}
				tx.removals = tx.removals[:0]
				return tx.Execute(func(lc *Local) error { return nil })
			}); err != nil {
				t.Fatal(err)
			}
			good := Access{Table: tblOrders, Key: orderedKey(ent, 1), Write: true}
			for _, tc := range []struct {
				name string
				bad  Access
				want error
			}{
				{"insert of a live key", Access{Table: tblOrders, Key: orderedKey(ent, 2), Insert: []uint64{7, 2}}, kvs.ErrExists},
				{"erase of an absent key", Access{Table: tblOrders, Key: orderedKey(ent, 77), Erase: true}, ErrNotFound},
				{"erase of a dead entry", Access{Table: tblOrders, Key: orderedKey(ent, 3), Erase: true}, ErrNotFound},
			} {
				tx := e.newTx()
				if err := tx.Stage(good, Access{Table: tblOrders, Key: orderedKey(ent, 50), Insert: []uint64{5, 50}}, tc.bad); !errors.Is(err, tc.want) {
					t.Fatalf("%s: Stage = %v, want %v", tc.name, err, tc.want)
				}
				if tx.finished {
					t.Fatalf("%s: the transaction was closed by a per-record answer", tc.name)
				}
				if _, staged := tx.rIndex[refKey{tc.bad.Table, tc.bad.Key}]; staged {
					t.Fatalf("%s: the offending record is staged", tc.name)
				}
				for _, op := range append(tx.localIns, tx.localErase...) {
					if op.table == tc.bad.Table && op.key == tc.bad.Key {
						t.Fatalf("%s: the offending record is declared", tc.name)
					}
				}
				// Still usable: declare the good row again (free if staged) and abort.
				if err := tx.Stage(good); err != nil {
					t.Fatalf("%s: re-declare: %v", tc.name, err)
				}
				tx.releaseLocks()
				for _, table := range []int{tblOrders, tblOrderIdx} {
					if k := lockedKeys(rt, table); len(k) > 0 {
						t.Fatalf("%s: table %d keys %#x still locked after the abort", tc.name, table, k)
					}
				}
			}
		})
	}
}
