package tx

import (
	"fmt"
	"testing"

	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// TestCommitInstallsItsRecord holds the commit's in-place install to its
// commit record: every update of the record — read back with IterRedo from
// the write-ahead log at f = 0 and from the backups' rings at f = 1 — is what
// its row's incarnation|version word holds right after the commit: the logged
// version, and the logged incarnation for a hash row or the logged liveness
// for an ordered row. The script writes local and staged hash and ordered
// rows, inserts and erases local and remote ordered rows (their index rows
// with them) and writes rows it inserted, on the region path and on the
// fallback's.
func TestCommitInstallsItsRecord(t *testing.T) {
	for f := 0; f <= 1; f++ {
		for _, fallback := range []bool{false, true} {
			t.Run(fmt.Sprintf("f=%d/fallback=%v", f, fallback), func(t *testing.T) {
				commitInstallsItsRecord(t, f, fallback)
			})
		}
	}
}

func commitInstallsItsRecord(t *testing.T, f int, fallback bool) {
	rt, e := fbEquivRig(t, f)
	for k := uint64(1); k <= 8; k++ {
		if err := e.Exec(func(tx *Tx) error {
			return tx.Execute(func(lc *Local) error {
				lc.Insert(tblAccounts, k, []uint64{1000, k})
				return nil
			})
		}); err != nil {
			t.Fatalf("populate %d: %v", k, err)
		}
	}
	insertOrders(t, e, 0, []uint64{1, 2, 3}) // entity 0 on this node, 1 on the other
	insertOrders(t, e, 1, []uint64{1, 2, 3})
	commitTrail(t, rt, e) // the populate's records, drained
	rt.C.Obs.Reset()
	if fallback {
		rt.FallbackThreshold = 1
	}

	// Hash keys 2 and 4 are this node's, 3 and 5 the other's.
	script := [][]Access{
		{{Table: tblAccounts, Key: 2, Write: true}, {Table: tblAccounts, Key: 3, Write: true},
			{Table: tblOrders, Key: orderedKey(0, 1), Write: true}, {Table: tblOrders, Key: orderedKey(1, 1), Write: true}},
		{{Table: tblOrders, Key: orderedKey(0, 5), Insert: []uint64{500, 5}},
			{Table: tblOrders, Key: orderedKey(1, 5), Insert: []uint64{500, 5}}},
		{{Table: tblOrders, Key: orderedKey(0, 2), Erase: true}, {Table: tblOrders, Key: orderedKey(1, 2), Erase: true}},
		{{Table: tblOrders, Key: orderedKey(0, 5), Write: true}, {Table: tblOrders, Key: orderedKey(1, 5), Write: true},
			{Table: tblAccounts, Key: 4, Write: true}, {Table: tblAccounts, Key: 5, Write: true}},
	}
	for n, accs := range script {
		before := primaryRows(rt)
		if err := e.Exec(func(tx *Tx) error {
			if err := tx.Stage(accs...); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				for _, a := range accs {
					if !a.Write {
						continue
					}
					v, err := lc.Read(a.Table, a.Key)
					if err != nil {
						return err
					}
					if err := lc.Write(a.Table, a.Key, []uint64{v[0] + 1, v[1]}); err != nil {
						return err
					}
				}
				if fallback && lc.htx != nil {
					lc.htx.Abort(99) // every write made: on to the fallback
				}
				return nil
			})
		}); err != nil {
			t.Fatalf("txn %d: %v", n, err)
		}
		wal, redo := commitTrail(t, rt, e)
		after := primaryRows(rt)
		logged := map[refKey]bool{}
		for _, rec := range append(wal, redo...) {
			for _, u := range rec {
				k := refKey{u.Table, u.Key}
				logged[k] = true
				row, ok := after[k]
				if !ok {
					row, ok = before[k] // an erased row, unlinked since: its slot keeps the word
				}
				if !ok {
					t.Fatalf("txn %d: logged update of table %d key %#x names no row", n, u.Table, u.Key)
				}
				word := row.arena.LoadWord(kvs.IncVerOffset(row.off))
				inc := kvs.Incarnation(word)
				switch {
				case kvs.Version(word) != u.Version:
					t.Errorf("txn %d: table %d key %#x at version %d, logged %d", n, u.Table, u.Key, kvs.Version(word), u.Version)
				case u.Table == tblAccounts && inc != u.Inc:
					t.Errorf("txn %d: hash key %d at incarnation %d, logged %d", n, u.Key, inc, u.Inc)
				case u.Table != tblAccounts && kvs.Live(inc) != kvs.Live(u.Inc):
					t.Errorf("txn %d: ordered table %d key %#x live %v, logged live %v", n, u.Table, u.Key, kvs.Live(inc), kvs.Live(u.Inc))
				}
			}
		}
		for _, a := range accs {
			if !logged[refKey{a.Table, a.Key}] {
				t.Errorf("txn %d: no logged update of table %d key %#x", n, a.Table, a.Key)
			}
		}
		if len(wal) > 0 == (f > 0) || len(redo) > 0 == (f == 0) {
			t.Errorf("txn %d at f = %d: %d write-ahead and %d redo records", n, f, len(wal), len(redo))
		}
	}
	if got, want := rt.C.Obs.Snapshot().Counter(obs.EvFallback), int64(len(script)); fallback && got != want || !fallback && got != 0 {
		t.Errorf("%d fallbacks in %d transactions (fallback %v)", got, want, fallback)
	}
}
