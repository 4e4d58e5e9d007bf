package tx

import (
	"testing"

	"drtm/internal/cluster"
)

// TestMirroredRemovalLeavesNoReplicaEntry: the physical removal of an erased
// ordered row, mirrored to a backup whose replica lags the primary (the lives'
// flips still sit in the redo ring), must take the replica's entry with it,
// whatever incarnation|version the replica has got to. A leftover would outlive
// the key: the next life starts at version 0 in a fresh slot on the primary, the
// leftover's version guard refuses that life's redo, and a promotion serves a
// dead row beside the live rows of the same commit — what
// TestTATPConsistencyAcrossFailover saw as "sf_mask 0x12 but live facility rows
// 0x2", "index table 23 missing row for base table 20" and "facility row live
// but undeclared" in 12 runs of 30.
func TestMirroredRemovalLeavesNoReplicaEntry(t *testing.T) {
	cfg := cluster.DefaultConfig(2, 1)
	cfg.LeaseMicros = 5_000
	cfg.ROLeaseMicros = 10_000
	cfg.ReplicationFactor = 1
	c := cluster.New(cfg)
	c.Start()
	defer c.Stop()
	rt := NewRuntime(c, func(_ int, key uint64) int { return int(key>>8) % 2 })
	rt.DefineOrderedSeg(tblOrders, 64, 2, 8)
	const part, backup = 1, 0
	home := rt.Executor(part, 0)
	key := orderedKey(part, 7)
	primary := c.Node(part).Ordered(tblOrders)
	replica, ok := c.Node(backup).OrderedRegion(cluster.CopyRegion(part, tblOrders, backup))
	if !ok {
		t.Fatal("no replica region on the backup")
	}
	insert := func(v uint64) {
		t.Helper()
		if err := home.Exec(func(tx *Tx) error {
			if err := tx.WInsert(tblOrders, key, []uint64{v, 7}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		}); err != nil {
			t.Fatal(err)
		}
	}
	for life := uint64(1); life <= 3; life++ {
		insert(life)
		if life == 2 {
			// The replica catches up in the middle of one life only: it is live
			// at the erase's removal there, and a never-flipped dead slot in the
			// other two.
			c.RedoSinkAt(backup, part, 0).Drain(func(rec []uint64) { rt.applyBackedUp(backup, rec) })
		}
		if err := home.Exec(func(tx *Tx) error {
			if _, err := tx.Erase(tblOrders, key); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		}); err != nil {
			t.Fatal(err)
		}
		if _, found := primary.Lookup(key); found {
			t.Fatalf("life %d: the primary still holds the erased key", life)
		}
		if _, found := replica.Lookup(key); found {
			t.Fatalf("life %d: the replica kept an entry the primary removed", life)
		}
	}

	// The fourth life commits; the primary dies before the replica drains it.
	insert(44)
	c.Crash(part)
	if rep := rt.Failover(part); !rep.Promoted {
		t.Fatalf("failover did not promote: %+v", rep)
	}
	var got uint64
	if err := rt.Executor(backup, 0).ExecRO(func(ro *RO) error {
		v, err := ro.Read(tblOrders, key)
		if err == nil {
			got = v[0]
		}
		return err
	}); err != nil || got != 44 {
		t.Fatalf("promoted copy reads %d, %v; want the fourth life's 44", got, err)
	}
}
