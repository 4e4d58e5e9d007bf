package tx

import (
	"errors"
	"fmt"
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// errGaveUp ends a scripted survivor's Exec after the attempts it was given.
var errGaveUp = errors.New("survivor gave up")

// TestReplicatedCommitHoldsLocalRows is the witness of the f = 1 window between
// XEND and the redo append. Node 0's region commits a transfer between two of
// its own rows (3 and 6); its append to node 1, which backs partition 0 up, is
// the verb the script stops it at. There a survivor on node 2 either locks row
// 3 and moves one unit of it into its own row 2 ("lock"), or reads row 3
// speculatively and copies it into row 2 ("spec"). Then node 0 dies, so its
// append never lands and the transfer, never acked, is dropped whole by
// Failover. A survivor that had built on the transfer's value would leave the
// promoted copy off by its amount (lock) or holding a copy of a value that
// never committed (spec). Under f ≥ 1 the region holds the rows it wrote
// locked until its append lands, so the survivor loses its attempt while node
// 0 is alive and commits against the promoted copy afterwards. No host-clock
// wait: the script runs the survivor inside node 0's append. The structural
// arms hold the rows a region flips: see heldStructuralRows.
func TestReplicatedCommitHoldsLocalRows(t *testing.T) {
	for _, mode := range []string{"lock", "spec"} {
		t.Run(mode, func(t *testing.T) { heldLocalRows(t, mode) })
		t.Run("structural/"+mode, func(t *testing.T) { heldStructuralRows(t, mode) })
	}
}

// heldStructuralRows is the structural arm of the window: node 0's region
// inserts one row of its own ordered table (born) and erases another (gone),
// and its append to node 1 is again the verb the script stops. There a
// survivor on node 2 locks each row and writes it ("lock"), or reads each
// speculatively ("spec"); each must lose while node 0 is alive, as the region
// holds both flipped rows until its append lands. Seeing the insert, or the
// erase as a missing row, would build on a commit Failover drops: afterwards
// born is dead and gone is live with its value.
func heldStructuralRows(t *testing.T, mode string) {
	const gone, born = 3, 6 // node 0's rows of tblOrders
	rt, stop := lifetimeRig(t, 1)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive // the survivor's reads are speculative
	rt.DefineOrderedSeg(tblOrders, 64, 2, 8)
	home := rt.Executor(0, 0)
	if err := home.Exec(func(tx *Tx) error {
		if err := tx.WInsert(tblOrders, gone, []uint64{gone, gone}); err != nil {
			return err
		}
		return tx.Execute(func(*Local) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}

	survivor := rt.Executor(2, 0)
	survive := func(key uint64) error {
		n := 0
		return survivor.Exec(func(tx *Tx) error {
			if n++; n > 1 {
				return errGaveUp
			}
			if err := tx.Stage(Access{Table: tblOrders, Key: key, Write: mode == "lock"}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				v, err := lc.Read(tblOrders, key)
				if err != nil || mode != "lock" {
					return err
				}
				return lc.Write(tblOrders, key, []uint64{v[0] + 1, v[1]})
			})
		})
	}

	plan := rdma.NewFaultPlan(1)
	rt.C.Fabric.SetFaultPlan(plan)
	rows := []uint64{born, gone}
	survived := make([]error, len(rows))
	fired := false
	inWindow := func() {
		fired = true
		for i, key := range rows {
			survived[i] = survive(key)
		}
		rt.C.Crash(0)
	}
	err := home.Exec(func(tx *Tx) error {
		if err := tx.WInsert(tblOrders, born, []uint64{born, born}); err != nil {
			return err
		}
		if _, err := tx.Erase(tblOrders, gone); err != nil {
			return err
		}
		// Staged: node 0's only verb from here on is the append to node 1.
		plan.ScriptHook(0, 1, 1, inWindow)
		plan.LinkRule(0, 1, rdma.FaultRule{FailProb: 1})
		return tx.Execute(func(*Local) error { return nil })
	})
	plan.Clear()
	if !fired || rt.C.Node(0).Alive() {
		t.Fatalf("the window was never reached (hook ran: %v)", fired)
	}
	if err == nil {
		t.Fatal("the commit was acked, but its append never landed")
	}
	for i, err := range survived {
		if !errors.Is(err, errGaveUp) {
			t.Errorf("survivor on row %d in the window: %v, want it shut out", rows[i], err)
		}
	}

	if rep := rt.Failover(0); !rep.Promoted {
		t.Fatalf("failover did not promote: %+v", rep)
	}
	if again := rt.Failover(0); again.Promoted || again.RedoRecords+again.Unlocked != 0 {
		t.Errorf("second Failover found work: %+v", again)
	}
	nothingParked(t, rt)
	if err := survivor.ExecRO(func(ro *RO) error {
		if _, err := ro.Read(tblOrders, born); !errors.Is(err, ErrNotFound) {
			return fmt.Errorf("inserted row %d: %v, want it dead", born, err)
		}
		if v, err := ro.Read(tblOrders, gone); err != nil || v[0] != gone {
			return fmt.Errorf("erased row %d: %v, %v, want it live at %d", gone, v, err, gone)
		}
		return nil
	}); err != nil {
		t.Fatalf("the dropped commit is not dropped whole: %v", err)
	}
}

func heldLocalRows(t *testing.T, mode string) {
	const from, to, mine = 3, 6, 2 // node 0's rows, and the survivor's on node 2
	rt, stop := lifetimeRig(t, 1)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive // the survivor's read of row 3 is speculative

	survivor := rt.Executor(2, 0)
	survive := func(attempts int) error {
		n := 0
		return survivor.Exec(func(tx *Tx) error {
			if n++; n > attempts {
				return errGaveUp
			}
			if err := tx.Stage(Access{Table: tblWideHash, Key: from, Write: mode == "lock"},
				Access{Table: tblWideHash, Key: mine, Write: true}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				f, err := lc.Read(tblWideHash, from)
				if err != nil {
					return err
				}
				g, err := lc.Read(tblWideHash, mine)
				if err != nil {
					return err
				}
				if mode == "spec" {
					return lc.Write(tblWideHash, mine, wideVal(f[0]))
				}
				if err := lc.Write(tblWideHash, from, wideVal(f[0]-1)); err != nil {
					return err
				}
				return lc.Write(tblWideHash, mine, wideVal(g[0]+1))
			})
		})
	}

	plan := rdma.NewFaultPlan(1)
	rt.C.Fabric.SetFaultPlan(plan)
	var survived error
	fired := false
	inWindow := func() {
		fired = true
		survived = survive(1)
		rt.C.Crash(0)
	}
	// Node 0's only verb past its body is the append to node 1: the hook runs
	// the survivor as it is drawn, and the link rule fails it, so it does not
	// land; its retry finds node 0 dead.
	arm := func() {
		plan.ScriptHook(0, 1, 1, inWindow)
		plan.LinkRule(0, 1, rdma.FaultRule{FailProb: 1})
	}
	acked := pieceTransfer(rt.Executor(0, 0), from, to, 1, false, nil, nil, nil, arm) == nil
	plan.Clear()
	if !fired || rt.C.Node(0).Alive() {
		t.Fatalf("the window was never reached (hook ran: %v)", fired)
	}
	if acked {
		t.Fatal("the transfer was acked, but its append never landed")
	}
	if survived != nil && !errors.Is(survived, errGaveUp) {
		t.Fatalf("survivor in the window: %v", survived)
	}

	if rep := rt.Failover(0); !rep.Promoted {
		t.Fatalf("failover did not promote: %+v", rep)
	}
	if again := rt.Failover(0); again.Promoted || again.RedoRecords+again.Unlocked != 0 {
		t.Errorf("second Failover found work: %+v", again)
	}
	nothingParked(t, rt)
	if errors.Is(survived, errGaveUp) {
		// Shut out of the window: it commits against the promoted copy.
		if err := survive(1 << 20); err != nil {
			t.Fatalf("survivor after the failover: %v", err)
		}
	}

	var a, b, c uint64
	if err := rt.Executor(2, 0).ExecRO(func(ro *RO) error {
		for _, r := range []struct {
			key uint64
			v   *uint64
		}{{from, &a}, {to, &b}, {mine, &c}} {
			v, err := ro.Read(tblWideHash, r.key)
			if err != nil {
				return err
			}
			*r.v = v[0]
		}
		return nil
	}); err != nil {
		t.Fatalf("a survivor cannot read the rows: %v", err)
	}
	if moved := wideBalance - int64(b); moved != 0 && moved != -1 {
		t.Fatalf("row %d = %d: the transfer is neither whole nor absent", to, b)
	}
	switch mode {
	case "lock":
		if a+b+c != 3*wideBalance {
			t.Errorf("rows %d, %d, %d = %d, %d, %d: %d units, want %d — the survivor's commit built on a transfer failover dropped",
				from, to, mine, a, b, c, a+b+c, 3*wideBalance)
		}
	case "spec":
		if a+b != 2*wideBalance || c != a {
			t.Errorf("rows %d, %d = %d, %d and the survivor's copy of row %d = %d: it copied a value that never committed",
				from, to, a, b, from, c)
		}
	}
}

// nothingParked fails t unless no release-side step is parked for any node:
// under replication defer_ runs every step at once.
func nothingParked(t *testing.T, rt *Runtime) {
	t.Helper()
	for n := 0; n < rt.C.Nodes(); n++ {
		if p := rt.PendingOps(n); p != 0 {
			t.Errorf("%d release-side steps parked for node %d", p, n)
		}
	}
}

// TestDeferredStoreOpsSurviveFailover: a committed transaction's deferred
// insert or delete of a row homed on a machine that dies before the op is
// shipped survives the machine's failover. No ring carries a store op, so
// it runs at once at the partition's owner — here the dead primary, which
// mirrors it to the backup that Failover then promotes. Node 0's body inserts
// row 10 (or deletes row 4), both homed on node 1, and crashes node 1.
func TestDeferredStoreOpsSurviveFailover(t *testing.T) {
	for _, arm := range []struct {
		name string
		key  uint64
		op   func(lc *Local, key uint64)
		want error
	}{
		{"insert", 10, func(lc *Local, key uint64) { lc.Insert(tblWideHash, key, wideVal(wideBalance)) }, nil},
		{"delete", 4, func(lc *Local, key uint64) { lc.Delete(tblWideHash, key) }, ErrNotFound},
	} {
		t.Run(arm.name, func(t *testing.T) {
			rt, stop := lifetimeRig(t, 1)
			defer stop()
			e := rt.Executor(0, 0)
			if err := e.Exec(func(tx *Tx) error {
				return tx.Execute(func(lc *Local) error {
					arm.op(lc, arm.key)
					rt.C.Crash(1)
					return nil
				})
			}); err != nil {
				t.Fatal(err)
			}
			if rep := rt.Failover(1); !rep.Promoted {
				t.Fatalf("failover did not promote: %+v", rep)
			}
			nothingParked(t, rt)
			err := e.ExecRO(func(ro *RO) error {
				v, err := ro.Read(tblWideHash, arm.key)
				if err == nil && v[0] != wideBalance {
					t.Errorf("row %d = %d, want %d", arm.key, v[0], wideBalance)
				}
				return err
			})
			if !errors.Is(err, arm.want) {
				t.Fatalf("read of row %d after the failover: %v, want %v", arm.key, err, arm.want)
			}
		})
	}
}

// TestLogsRestartPastReleaseAfterFailover: under f = 1 a release step for a
// node after its promotion runs at once, so it parks nothing and does not
// freeze the logs: the workers keep restarting them and the logs' high water
// stays where one transaction leaves it.
func TestLogsRestartPastReleaseAfterFailover(t *testing.T) {
	rt, stop := lifetimeRig(t, 1)
	defer stop()
	e := rt.Executor(0, 0)
	// A lock on node 1 staged before its crash and released after its failover.
	held := e.newTx()
	if err := held.Stage(Access{Table: tblWideHash, Key: 1, Write: true}); err != nil {
		t.Fatal(err)
	}
	rt.C.Crash(1)
	if rep := rt.Failover(1); !rep.Promoted {
		t.Fatalf("failover did not promote: %+v", rep)
	}
	held.releaseLocks()
	nothingParked(t, rt)

	restarts := func() int64 { return rt.C.Obs.Total(obs.EvLogRestart) }
	highWater := func() int64 { return rt.C.Obs.Snapshot().Count("nvram.log_high_water") }
	// Rows 3 and 2 live on nodes 0 and 2: a transfer locks row 2 and writes a
	// chopping and a lock-ahead record. Two warm the high water to what one
	// transaction leaves behind.
	transfer := func(piece uint64) {
		t.Helper()
		if err := pieceTransfer(e, 3, 2, piece, false, nil, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	transfer(1)
	transfer(2)
	r0, hw := restarts(), highWater()
	for piece := uint64(3); piece <= 42; piece++ {
		transfer(piece)
	}
	if got := restarts() - r0; got != 40 {
		t.Errorf("%d log restarts over 40 transactions after the failover, want one each", got)
	}
	if now := highWater(); now != hw {
		t.Errorf("nvram.log_high_water %d -> %d words over 40 transactions: the logs kept history", hw, now)
	}
	nothingParked(t, rt)
}

// TestRingDrainsPastDeadWriteBack: a live sender vouches for its earlier
// records even when a write-back of one of them went to a dead primary's
// memory, as every backup of the update's partition holds it. At f = 2, node
// 0 commits a transfer from node 1's row 1 into node 2's row 2 as node 1 dies:
// the write-back to row 1 lands in the dead memory at once, and the record
// lands on nodes 0 and 2, both backups of node 1's partition. Transfers
// between rows 2 and 5 fill node 0's ring past CheckpointWords, so node 0
// applies the record to its replicas and truncates it. Node 2 then dies too,
// and node 0 is promoted for both: the drained replica of row 1 is the only
// live copy of the update, and every unit must be where the commits put it.
func TestRingDrainsPastDeadWriteBack(t *testing.T) {
	rt, stop := lifetimeRig(t, 2)
	defer stop()
	e := rt.Executor(0, 0)
	ring := rt.C.RedoSinkAt(0, 0, 0)
	drains := func() int64 { return rt.C.Obs.Total(obs.EvRingDrain) }
	if err := pieceTransfer(e, 1, 2, 1, false, nil, nil, nil, func() { rt.C.Crash(1) }); err != nil {
		t.Fatalf("the commit whose write-back to node 1 finds it dead: %v", err)
	}
	nothingParked(t, rt)
	moves := 0
	for drains() == 0 {
		if err := pieceTransfer(e, 2, 5, 2, false, nil, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		if moves++; ring.BytesUsed() > cluster.CheckpointWords*8+transferRedoBytes {
			t.Fatalf("ring at %d bytes after %d transfers, past CheckpointWords and one record: never drained behind the dead write-back",
				ring.BytesUsed(), moves)
		}
	}

	rt.C.Crash(2)
	for _, crashed := range []int{1, 2} {
		if rep := rt.Failover(crashed); !rep.Promoted || rep.NewOwner != 0 {
			t.Fatalf("failover of node %d: %+v, want node 0 promoted", crashed, rep)
		}
	}
	rows := map[uint64]uint64{}
	if err := e.ExecRO(func(ro *RO) error {
		for _, key := range []uint64{1, 2, 5} {
			v, err := ro.Read(tblWideHash, key)
			if err != nil {
				return err
			}
			rows[key] = v[0]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows[1] != wideBalance-1 || rows[1]+rows[2]+rows[5] != 3*wideBalance {
		t.Fatalf("rows 1, 2, 5 = %d, %d, %d after %d transfers: want row 1 at %d and %d units in all",
			rows[1], rows[2], rows[5], moves, wideBalance-1, 3*wideBalance)
	}
}

// TestReleaseAfterFailoverParksNothing: a lock node 0 staged on node 1 before
// node 1 died, released after node 1's failover, is released at once into the
// dead memory: nothing is parked for the node, which nothing revives, and no
// live machine is left owing anything.
func TestReleaseAfterFailoverParksNothing(t *testing.T) {
	rt, stop := lifetimeRig(t, 1)
	defer stop()
	e := rt.Executor(0, 0)
	held := e.newTx()
	if err := held.Stage(Access{Table: tblWideHash, Key: 1, Write: true}); err != nil {
		t.Fatal(err)
	}
	rt.C.Crash(1)
	if rep := rt.Failover(1); !rep.Promoted {
		t.Fatalf("failover did not promote: %+v", rep)
	}
	held.releaseLocks()
	nothingParked(t, rt)
	if err := rt.AuditQuiescent(); err != nil {
		t.Error(err)
	}
}
