package tx

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// TestBornSlotHeldFromTheReply: a remote insert's fresh slot is born
// write-locked for its inserter. Stopped on the host between its answer and the
// inserter's commit, the slot is held like any CASed lock: its state word names
// the inserter, a rival's insert of the same key loses, a speculative read-only
// read retries on it as busy instead of answering ErrNotFound, and a CAS
// expecting the free word fails. Then the insert commits without a CAS or a
// READ of that slot.
func TestBornSlotHeldFromTheReply(t *testing.T) {
	rt, e, stop := faultRig(t, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	key := orderedKey(1, 5)
	rival := rt.Executor(2, 0)
	o := rt.C.Node(1).Ordered(tblOrders)
	errStop := errors.New("one attempt")

	n1 := rt.C.Node(1)
	stopped := false
	n1.Handle(msgOrderedOps, func(from int, body any) any {
		resp := rt.execOrderedOps(n1, body.(*orderedOpsMsg).Ops)
		if from != 0 || stopped {
			return resp
		}
		stopped = true
		if s := stateOf(t, rt, 1, key); s != clock.WLocked(0) {
			t.Errorf("slot state = %#x once the host answered, want write-locked by node 0", s)
		}

		rtx := rival.newTx()
		if err := rtx.Stage(Access{Table: tblOrders, Key: key, Insert: []uint64{9, 9}}); !errors.Is(err, ErrRetry) {
			t.Errorf("rival insert of the held slot = %v, want ErrRetry", err)
		}
		rtx.releaseLocks()

		var read error
		rival.ExecRO(func(ro *RO) error {
			_, read = ro.Read(tblOrders, key)
			return errStop
		})
		if !errors.Is(read, ErrRetry) {
			t.Errorf("speculative read of the held slot = %v, want ErrRetry (busy)", read)
		}

		off, _ := o.Lookup(key)
		if _, swapped, err := rival.w.QP.TryCAS(1, tblOrders, kvs.StateOffset(off), clock.Init, clock.WLocked(2)); err != nil || swapped {
			t.Errorf("CAS expecting Init on the held slot: swapped %v, %v; want it to fail", swapped, err)
			if swapped {
				o.Arena().StoreWord(kvs.StateOffset(off), clock.Init) // what the CAS found
			}
		}
		if s := stateOf(t, rt, 1, key); s != clock.WLocked(0) {
			t.Errorf("slot state = %#x after the rivals, want still write-locked by node 0", s)
		}
		return resp
	})

	sh := e.w.Obs
	born, cas, reads := sh.Count(obs.EvLockBorn), sh.Count(obs.EvRDMACAS), sh.Count(obs.EvRDMARead)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.WInsert(tblOrders, key, []uint64{5, 5}); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("the insert shipped no EnsureDead to node 1")
	}
	if got := sh.Count(obs.EvLockBorn) - born; got != 1 {
		t.Fatalf("%d slots born held, want 1", got)
	}
	if c, r := sh.Count(obs.EvRDMACAS)-cas, sh.Count(obs.EvRDMARead)-reads; c != 0 || r != 0 {
		t.Fatalf("the insert posted %d CAS and %d READ, want none", c, r)
	}
	if v, live := liveOrderedVal(rt, 1, tblOrders, key); !live || v[0] != 5 {
		t.Fatalf("inserted row = %v, live %v", v, live)
	}
	if s := stateOf(t, rt, 1, key); s != clock.Init {
		t.Fatalf("slot state = %#x after the commit, want released", s)
	}
}

// TestBornSlotUnderMessageFaults: message faults are fail-before-apply. A
// transient fault at an insert's message retries it, and the retry's EnsureDead
// creates the slot — once, held once — so a retried Ensure op never meets a slot
// its own machine already holds. A host that stays unreachable fails the batch
// with ErrNodeDown, and the slot another host created held for the batch is
// released with it.
func TestBornSlotUnderMessageFaults(t *testing.T) {
	rt, e, stop := faultRig(t, nil)
	defer stop()
	o := rt.C.Node(1).Ordered(tblOrders)
	plan := rdma.NewFaultPlan(1)
	rt.C.Fabric.SetFaultPlan(plan)

	plan.ScriptFaults(0, 1, 1)
	key := orderedKey(1, 7)
	retries, born := e.w.Obs.Count(obs.EvLockRetry), e.w.Obs.Count(obs.EvLockBorn)
	tx := e.newTx()
	if err := tx.Stage(Access{Table: tblOrders, Key: key, Insert: []uint64{7, 7}}); err != nil {
		t.Fatal(err)
	}
	switch {
	case e.w.Obs.Count(obs.EvLockRetry)-retries != 1:
		t.Fatalf("the lost message was sent again %d times, want once", e.w.Obs.Count(obs.EvLockRetry)-retries)
	case e.w.Obs.Count(obs.EvLockBorn)-born != 1:
		t.Fatalf("%d slots born held, want 1", e.w.Obs.Count(obs.EvLockBorn)-born)
	case o.Len() != 1:
		t.Fatalf("node 1 holds %d entries, want the one slot", o.Len())
	}
	if s := stateOf(t, rt, 1, key); s != clock.WLocked(0) {
		t.Fatalf("slot state = %#x, want write-locked by node 0", s)
	}
	tx.releaseLocks()
	if s := stateOf(t, rt, 1, key); s != clock.Init {
		t.Fatalf("slot state = %#x after the abort, want released", s)
	}

	// Node 2 stays unreachable: node 1's message went first and created its
	// slot held; node 2's fails the batch.
	plan.LinkRule(0, 2, rdma.FaultRule{FailProb: 1})
	tx = e.newTx()
	err := tx.Stage(Access{Table: tblOrders, Key: orderedKey(1, 8), Insert: []uint64{8, 8}},
		Access{Table: tblOrders, Key: orderedKey(2, 8), Insert: []uint64{8, 8}})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Stage across an unreachable host = %v, want ErrNodeDown", err)
	}
	if s := stateOf(t, rt, 1, orderedKey(1, 8)); s != clock.Init {
		t.Fatalf("node 1 slot state = %#x after ErrNodeDown, want released", s)
	}
	if k := lockedKeys(rt, tblOrders); len(k) > 0 {
		t.Fatalf("keys %#x left held", k)
	}
	if _, ok := rt.C.Node(2).Ordered(tblOrders).Lookup(orderedKey(2, 8)); ok {
		t.Fatal("the unreachable host applied the failed message")
	}
}

// TestBornSlotFreedByRepair: the inserter's machine dies as Stage returns with
// the slot the host's answer created born held for it, before any log record
// names the slot. Either repair — Recover at f = 0, Failover at f = 1 — frees
// it: the state word names its holder.
func TestBornSlotFreedByRepair(t *testing.T) {
	for _, f := range []int{0, 1} {
		t.Run(fmt.Sprintf("f=%d", f), func(t *testing.T) {
			rt, e, stop := faultRig(t, func(c *cluster.Config) { c.Durability, c.ReplicationFactor = true, f })
			defer stop()
			key := orderedKey(1, 5)
			born := e.w.Obs.Count(obs.EvLockBorn)
			done := make(chan struct{})
			go func() {
				defer close(done)
				e.Exec(func(tx *Tx) error {
					if err := tx.WInsert(tblOrders, key, []uint64{5, 5}); err != nil {
						return err
					}
					rt.C.Crash(0)
					runtime.Goexit()
					return nil
				})
			}()
			<-done
			if got := e.w.Obs.Count(obs.EvLockBorn) - born; got != 1 {
				t.Fatalf("%d slots born held, want 1", got)
			}
			if s := stateOf(t, rt, 1, key); s != clock.WLocked(0) {
				t.Fatalf("slot state = %#x before the repair, want born held for node 0", s)
			}
			if f == 0 {
				rt.Recover(0)
			} else if rep := rt.Failover(0); !rep.Promoted {
				t.Fatalf("failover did not promote: %+v", rep)
			} else {
				nothingParked(t, rt)
			}
			if s := stateOf(t, rt, 1, key); s != clock.Init {
				t.Fatalf("slot state = %#x after the repair, want free", s)
			}
		})
	}
}
