package tx

import (
	"errors"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// Fault semantics of the coalesced messages (make chaos runs these under
// -race): a multi-op message to an unreachable host fails the transaction
// with ErrNodeDown and every lock the earlier batches took released, a
// transient fault retries the whole message, a host that crashes between the
// shipped message and the CAS wave leaves only the slots born held for the
// sender, released on its memory at once, and an undeliverable removal
// message's entries are unlinked there at once too.

// faultRig is three nodes of ordered rows: entity e is homed on node e%3, and
// the executor under test runs on node 0.
func faultRig(t *testing.T, mut func(*cluster.Config)) (*Runtime, *Executor, func()) {
	t.Helper()
	rt, stop := newOrderedRig(t, 3, 1, mut)
	return rt, rt.Executor(0, 0), stop
}

func stateOf(t *testing.T, rt *Runtime, node int, key uint64) uint64 {
	t.Helper()
	o := rt.C.Node(node).Ordered(tblOrders)
	off, ok := o.Lookup(key)
	if !ok {
		t.Fatalf("key %#x not in node %d's tree", key, node)
	}
	return o.Arena().LoadWord(kvs.StateOffset(off))
}

// held stages a write lock on a live row of node 2 and returns the
// transaction holding it — the lock a later failing batch must release.
func held(t *testing.T, rt *Runtime, e *Executor) (*Tx, uint64) {
	t.Helper()
	key := orderedKey(2, 1)
	insertOrders(t, e, 2, []uint64{1})
	tx := e.newTx()
	if err := tx.W(tblOrders, key); err != nil {
		t.Fatal(err)
	}
	if s := stateOf(t, rt, 2, key); s != clock.WLocked(0) {
		t.Fatalf("node 2 row state = %#x, want write-locked by node 0", s)
	}
	return tx, key
}

// batchOnNode1 is a structural batch for node 1: two inserts and a write.
func batchOnNode1() []Access {
	return []Access{
		{Table: tblOrders, Key: orderedKey(1, 1), Insert: []uint64{10, 1}},
		{Table: tblOrders, Key: orderedKey(1, 2), Insert: []uint64{20, 2}},
		{Table: tblOrders, Key: orderedKey(1, 9), Write: true},
	}
}

func TestCoalescedFaultTimeoutMidBatch(t *testing.T) {
	rt, e, stop := faultRig(t, nil)
	defer stop()
	insertOrders(t, e, 1, []uint64{9})
	tx, lockedKey := held(t, rt, e)

	// Persistent timeouts on the 0 -> 1 link: the shipped message exhausts its
	// retries, and the batch aborts with the node-2 lock released.
	plan := rdma.NewFaultPlan(3)
	rt.C.Fabric.SetFaultPlan(plan)
	plan.LinkRule(0, 1, rdma.FaultRule{FailProb: 1})
	retries := e.w.Obs.Count(obs.EvLockRetry)
	if err := tx.Stage(batchOnNode1()...); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Stage over a dead link = %v, want ErrNodeDown", err)
	}
	if got := e.w.Obs.Count(obs.EvLockRetry) - retries; got != verbRetries {
		t.Fatalf("the message was retried %d times, want %d", got, verbRetries)
	}
	if s := stateOf(t, rt, 2, lockedKey); s != clock.Init {
		t.Fatalf("node 2 row state = %#x after the abort, want released", s)
	}
	if !tx.finished {
		t.Fatal("the transaction is still open after ErrNodeDown")
	}

	// Transient timeouts: the whole message goes again until it gets through,
	// and the transaction commits.
	plan.LinkRule(0, 1, rdma.FaultRule{FailProb: 0.4})
	retries = e.w.Obs.Count(obs.EvLockRetry)
	for i := 0; i < 20; i++ {
		err := e.Exec(func(tx *Tx) error {
			if err := tx.Stage(Access{Table: tblOrders, Key: orderedKey(1, uint64(20+i)), Insert: []uint64{1, 1}},
				Access{Table: tblOrders, Key: orderedKey(1, 9), Write: true}); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if err != nil && !errors.Is(err, ErrNodeDown) {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if e.w.Obs.Count(obs.EvLockRetry) == retries {
		t.Fatal("no transient fault was retried: the plan injected nothing")
	}
	plan.Clear()
	if s := stateOf(t, rt, 1, orderedKey(1, 9)); s != clock.Init {
		t.Fatalf("node 1 row state = %#x once the faults cleared, want released", s)
	}
}

// TestCoalescedFaultHostCrashBeforeWave: the host answers the shipped message
// and dies before the CAS wave. Moved on purpose when a remote insert's fresh
// slot came to be born write-locked for its inserter: the two inserts' slots
// are held by node 0 from the reply on, so the abort releases them, on the dead
// host's memory (runOnDead). The written row's CAS never landed, and the node-2
// lock is released too. Every step lands at once: none waits for a repair.
func TestCoalescedFaultHostCrashBeforeWave(t *testing.T) {
	rt, e, stop := faultRig(t, nil)
	defer stop()
	insertOrders(t, e, 1, []uint64{9})
	tx, lockedKey := held(t, rt, e)

	n1 := rt.C.Node(1)
	n1.Handle(msgOrderedOps, func(from int, body any) any {
		resp := rt.execOrderedOps(n1, body.(*orderedOpsMsg).Ops)
		rt.C.Fabric.SetNodeDown(1, true)
		return resp
	})
	if err := tx.Stage(batchOnNode1()...); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Stage across the crash = %v, want ErrNodeDown", err)
	}
	if s := stateOf(t, rt, 2, lockedKey); s != clock.Init {
		t.Fatalf("node 2 row state = %#x after the abort, want released", s)
	}
	for _, a := range batchOnNode1() {
		// The written row: no CAS of the wave landed. An insert's slot: born
		// held, and released on the dead host.
		if s := stateOf(t, rt, 1, a.Key); s != clock.Init {
			t.Fatalf("node 1 key %#x state = %#x after the crash, want Init", a.Key, s)
		}
	}
}

// TestRemovalIsOneWayMessage: a commit's removals go out as one message per
// host, and nothing waits for the host's answer — the worker pays one doorbell
// and a tree operation per entry, the message's flight is left in flight — yet
// every entry is unlinked when applyHostOps returns. A transient fault retries
// the whole message until it gets through.
func TestRemovalIsOneWayMessage(t *testing.T) {
	rt, e, stop := faultRig(t, nil)
	defer stop()
	insertOrders(t, e, 1, []uint64{1, 2, 3})
	insertOrders(t, e, 2, []uint64{1, 2})
	// erased runs one transaction erasing the given entities' rows and
	// returns its removals, withheld from the commit.
	erased := func(keys ...uint64) []hostOp {
		var ops []hostOp
		err := e.Exec(func(tx *Tx) error {
			accs := make([]Access, len(keys))
			for i, k := range keys {
				accs[i] = Access{Table: tblOrders, Key: k, Erase: true}
			}
			if err := tx.Stage(accs...); err != nil {
				return err
			}
			ops = append(ops[:0], tx.removals...)
			tx.removals = tx.removals[:0]
			return tx.Execute(func(lc *Local) error { return nil })
		})
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	linked := func(entity uint64, subs ...uint64) bool {
		for _, s := range subs {
			if _, ok := rt.C.Node(int(entity)).Ordered(tblOrders).Lookup(orderedKey(entity, s)); ok {
				return true
			}
		}
		return false
	}
	m := e.model()
	ops := erased(orderedKey(1, 1), orderedKey(2, 1), orderedKey(1, 2), orderedKey(2, 2))
	msgs, detached, t0 := e.w.Obs.Count(obs.EvVerbsMsg), e.w.Obs.Count(obs.EvDetached), e.w.VClock.Now()
	e.applyHostOps(ops)
	if got := int64(e.w.VClock.Now() - t0); got != 2*m.DoorbellNS+4*m.BTreeOpNS {
		t.Fatalf("removing 4 entries on 2 hosts charged %d ns, want two doorbells and four tree operations, %d",
			got, 2*m.DoorbellNS+4*m.BTreeOpNS)
	}
	if n, d := e.w.Obs.Count(obs.EvVerbsMsg)-msgs, e.w.Obs.Count(obs.EvDetached)-detached; n != 2 || d != 2 {
		t.Fatalf("%d messages, %d left in flight, want one per host, each left in flight", n, d)
	}
	if linked(1, 1, 2) || linked(2, 1, 2) {
		t.Fatal("a dead entry is still linked when applyHostOps returned")
	}

	// Transient timeouts: the first try of the message fails and the second
	// gets through.
	ops = erased(orderedKey(1, 3))
	plan := rdma.NewFaultPlan(5)
	plan.ScriptFaults(0, 1, 1)
	rt.C.Fabric.SetFaultPlan(plan)
	defer rt.C.Fabric.SetFaultPlan(nil)
	retries, msgs := e.w.Obs.Count(obs.EvLockRetry), e.w.Obs.Count(obs.EvVerbsMsg)
	e.applyHostOps(ops)
	if r, n := e.w.Obs.Count(obs.EvLockRetry)-retries, e.w.Obs.Count(obs.EvVerbsMsg)-msgs; r != 1 || n != 1 {
		t.Fatalf("%d retries and %d messages delivered, want the faulted try retried once", r, n)
	}
	if linked(1, 3) {
		t.Fatal("the retried removal left its entry linked")
	}
}

// TestCoalescedFaultRemovalLandsAtOnce: a removal message for a host that died
// after the commit's release wave is never sent, and each of its entries is
// unlinked on the dead host's memory before applyHostOps returns.
func TestCoalescedFaultRemovalLandsAtOnce(t *testing.T) {
	// Removals go out with the commit that erased the rows.
	rt, e, stop := faultRig(t, nil)
	defer stop()
	insertOrders(t, e, 1, []uint64{1, 2, 3})
	// The host dies after the commit's release wave and before the removal
	// message: the commit runs with its removals withheld, and they are then
	// delivered, by hand, to the dead host.
	var ops []hostOp
	err := e.Exec(func(tx *Tx) error {
		if err := tx.Stage(Access{Table: tblOrders, Key: orderedKey(1, 1), Erase: true},
			Access{Table: tblOrders, Key: orderedKey(1, 2), Erase: true},
			Access{Table: tblOrders, Key: orderedKey(1, 3), Erase: true}); err != nil {
			return err
		}
		ops = append(ops[:0], tx.removals...)
		tx.removals = tx.removals[:0]
		return tx.Execute(func(lc *Local) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 3 {
		t.Fatalf("%d removals staged, want 3", len(ops))
	}
	o := rt.C.Node(1).Ordered(tblOrders)
	rt.C.Fabric.SetNodeDown(1, true)
	msgs, detached := e.w.Obs.Count(obs.EvVerbsMsg), e.w.Obs.Count(obs.EvDetached)
	e.applyHostOps(ops)
	if e.w.Obs.Count(obs.EvVerbsMsg) != msgs || e.w.Obs.Count(obs.EvDetached) != detached {
		t.Fatal("a message reached the dead host")
	}
	for s := uint64(1); s <= 3; s++ {
		if _, ok := o.Lookup(orderedKey(1, s)); ok {
			t.Fatalf("dead entry %d still linked on the dead host when applyHostOps returned", s)
		}
	}
}

// TestStartPhaseFaultAtEveryVerb: one transient fault at each position of the
// Start phase's waves in turn — a bucket READ of the lookup wave (the second
// is then flushed behind the first), a lock or lease CAS (its fused READ and
// everything behind it flushed), a fused prefetch READ, a speculative read's
// fetch READ — is re-driven under the bounded retry policy: the transaction
// commits instead of aborting with ErrNodeDown, and a flushed work request is
// never taken for a verdict about its record. Keys 1 and 3 live on node 1.
func TestStartPhaseFaultAtEveryVerb(t *testing.T) {
	for _, p := range []ReadPolicy{PolicyLease, PolicyAdaptive} {
		// Lookup READs 1-2; then CAS, READ, CAS, READ under leases, or the
		// write's CAS, READ and the read's fetch READ under speculation.
		for k := 1; k <= 6; k++ {
			rt, stop := newRig(t, 2, 1, 4, nil)
			rt.ReadPolicy = p
			scriptFault(rt, k)
			err := rt.Executor(0, 0).Exec(func(tx *Tx) error {
				if err := tx.Stage(Access{Table: tblAccounts, Key: 1}, Access{Table: tblAccounts, Key: 3, Write: true}); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					a, err := lc.Read(tblAccounts, 1)
					if err != nil {
						return err
					}
					return lc.Write(tblAccounts, 3, []uint64{a[0] + 1, 0})
				})
			})
			host := rt.C.Node(1).Unordered(tblAccounts)
			off, _ := host.LookupLocal(3)
			v, _ := host.Get(3)
			switch {
			case err != nil:
				t.Errorf("%v, fault at verb %d: %v", p, k, err)
			case rt.C.Obs.Total(obs.EvVerbFault) != 1:
				t.Errorf("%v, fault at verb %d: %d faults drawn, want the scripted one", p, k, rt.C.Obs.Total(obs.EvVerbFault))
			case v[0] != 1001 || host.Arena().LoadWord(kvs.StateOffset(off)) != clock.Init:
				t.Errorf("%v, fault at verb %d: key 3 = %v, state %#x", p, k, v, host.Arena().LoadWord(kvs.StateOffset(off)))
			}
			stop()
		}
	}
}
