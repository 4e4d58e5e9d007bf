package tx

import (
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// TestPostCommitHostOps: the release stage's host ops take one path. Node 0
// commits one transaction that erases entity 1's row 1 and, in its body,
// inserts row 5 and deletes row 2 — all three homed on node 1. The deferred
// insert, the deferred delete and the erase's unlink go to node 1 as one
// one-way message of three ops; a transient fault on that message retries it
// whole, and each op lands exactly once (an insert landing twice panics on its
// duplicate key); with node 1 crashed before the message — as the commit's
// WRITE to it is issued, which still lands — the three steps park at f = 0 and
// Recover applies them, and at f = 1, node 1 failed over to node 2 before the
// message, they run at once, the store ops at the promoted owner, and nothing
// parks.
func TestPostCommitHostOps(t *testing.T) {
	ins, del, era := orderedKey(1, 5), orderedKey(1, 2), orderedKey(1, 1)
	for _, arm := range []struct {
		name string
		f    int
		// atBody runs in the body's last run, once the store ops are scheduled:
		// it returns the fault plan that scripts the commit's verbs to node 1
		// (the erase's WRITE is the first, the message the second), or nil.
		atBody func(rt *Runtime) *rdma.FaultPlan
		parked int // steps parked for node 1 when Exec returns
	}{
		{"one message", 0, func(*Runtime) *rdma.FaultPlan { return nil }, 0},
		{"fault on the message", 0, func(*Runtime) *rdma.FaultPlan {
			plan := rdma.NewFaultPlan(5)
			plan.ScriptFaults(0, 1, 2)
			return plan
		}, 0},
		{"host down, f=0", 0, func(rt *Runtime) *rdma.FaultPlan {
			plan := rdma.NewFaultPlan(5)
			plan.ScriptHook(0, 1, 1, func() { rt.C.Crash(1) })
			return plan
		}, 3},
		{"host failed over, f=1", 1, func(rt *Runtime) *rdma.FaultPlan {
			plan := rdma.NewFaultPlan(5)
			plan.ScriptHook(0, 1, 1, func() {
				rt.C.Crash(1)
				if rep := rt.Failover(1); !rep.Promoted || rep.NewOwner != 2 {
					t.Errorf("failover: %+v, want node 2 promoted", rep)
				}
			})
			return plan
		}, 0},
	} {
		t.Run(arm.name, func(t *testing.T) {
			rt, e, stop := faultRig(t, func(c *cluster.Config) { c.ReplicationFactor = arm.f })
			defer stop()
			insertOrders(t, e, 1, []uint64{1, 2})
			sh := e.w.Obs
			oneSided := func() int64 {
				return sh.Count(obs.EvRDMARead) + sh.Count(obs.EvRDMAWrite) + sh.Count(obs.EvRDMACAS)
			}
			var msgs, shipped, retries, verbs int64
			if err := e.Exec(func(tx *Tx) error {
				if _, err := tx.Erase(tblOrders, era); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					lc.Insert(tblOrders, ins, []uint64{500, 5})
					lc.Delete(tblOrders, del)
					msgs, shipped, retries = sh.Count(obs.EvVerbsMsg), sh.Count(obs.EvShippedOp), sh.Count(obs.EvLockRetry)
					verbs = oneSided()
					if plan := arm.atBody(rt); plan != nil {
						rt.C.Fabric.SetFaultPlan(plan)
					}
					return nil
				})
			}); err != nil {
				t.Fatal(err)
			}
			rt.C.Fabric.SetFaultPlan(nil)
			if got := rt.PendingOps(1); got != arm.parked {
				t.Fatalf("%d steps parked for node 1, want %d", got, arm.parked)
			}
			wantMsgs, wantShipped, wantRetries := int64(1), int64(3), int64(0)
			switch {
			case arm.parked > 0 || arm.f > 0:
				wantMsgs, wantShipped = 0, 0
			case arm.name == "fault on the message":
				wantRetries = 1
			}
			if n, s, r := sh.Count(obs.EvVerbsMsg)-msgs, sh.Count(obs.EvShippedOp)-shipped,
				sh.Count(obs.EvLockRetry)-retries; n != wantMsgs || s != wantShipped || r != wantRetries {
				t.Fatalf("after the body: %d messages, %d shipped ops, %d retries; want %d, %d, %d",
					n, s, r, wantMsgs, wantShipped, wantRetries)
			}
			if v := oneSided() - verbs; arm.name == "one message" && v != 1 {
				t.Fatalf("%d one-sided verbs after the body, want the erase's WRITE alone", v)
			}
			if arm.parked > 0 {
				node, region := rt.C.Serving(1, tblOrders)
				if _, ok := rt.C.Node(node).Ordered(region).Lookup(ins); ok {
					t.Fatal("the insert landed while its host was down")
				}
				rt.Recover(1)
				rt.C.Revive(1)
			}
			nothingParked(t, rt)

			node, region := rt.C.Serving(1, tblOrders)
			if arm.f > 0 && node != 2 {
				t.Fatalf("partition 1 served by node %d after the failover, want 2", node)
			}
			o := rt.C.Node(node).Ordered(region)
			if v, live := liveOrderedVal(rt, node, region, ins); !live || v[0] != 500 {
				t.Errorf("inserted row = %v, live %v; want [500 5]", v, live)
			}
			if _, ok := o.Lookup(del); ok {
				t.Error("the deleted row is still in the tree")
			}
			if _, live := liveOrderedVal(rt, node, region, era); live {
				t.Error("the erased row is live")
			}
			// At f = 1 the unlink, pinned to the dead primary, does not reach the
			// promoted copy, whose tree keeps the dead entry.
			if _, ok := o.Lookup(era); ok && arm.f == 0 {
				t.Error("the erased row's dead entry is still linked")
			}
			if err := rt.AuditQuiescent(); err != nil {
				t.Error(err)
			}
		})
	}
}
