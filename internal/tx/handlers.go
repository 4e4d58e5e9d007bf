package tx

import (
	"errors"
	"fmt"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/rdma"
)

// Verbs message types used by the transaction layer.
const (
	// msgStoreOp ships an INSERT/DELETE to the record's host, where it is
	// executed through the host's store (footnote 5 / Section 6.5).
	msgStoreOp = 1
)

// storeOpMsg is the body of a shipped insert/delete.
type storeOpMsg struct {
	Insert bool
	Table  int
	Key    uint64
	Val    []uint64
}

// installStoreHandlers wires the verbs store-op handler on every node, and the
// apply of the redo records a backup's ring drains as it appends (repl.go).
func (rt *Runtime) installStoreHandlers() {
	for i := 0; i < rt.C.Nodes(); i++ {
		n := rt.C.Node(i)
		n.Handle(msgStoreOp, func(from int, body any) any {
			m := body.(storeOpMsg)
			_, err := rt.execStoreOp(n, m, nil)
			return err
		})
	}
	rt.C.HandleRedoDrain(rt.applyBackedUp)
}

// lockCopies is the copy rule of the host-side structural ops (execStoreOp,
// execEnsureEntry, execRemoveDead) on a copy of partition part's table held in
// region. When the table is replicated (part >= 0, f > 0) it takes the
// partition's redo lock and returns its shard, which the caller unlocks: a
// drain must never observe the copies mid-op or interleave with a delete, and a
// delete's generation bump must be atomic with removing the entry so stale redo
// records are recognized (applyRedo's guards). mirror lists the nodes whose
// replica shards the op is mirrored to — the partition's backups when region is
// the home copy and the home still owns the partition, so a later promotion
// sees the record; none otherwise. It is the shard's scratch, valid while the
// lock is held.
func (rt *Runtime) lockCopies(region, table, part int) (sh *redoShard, mirror []int) {
	if part < 0 || rt.C.ReplicationFactor() == 0 {
		return nil, nil
	}
	sh = &rt.redoShards[part]
	sh.mu.Lock()
	sh.bk = sh.bk[:0]
	if region == table && rt.C.OwnerOf(part) == part {
		sh.bk = rt.C.Backups(sh.bk, part)
	}
	return sh, sh.bk
}

// execStoreOp performs an insert/delete on the host node's copy of the record's
// partition — the region that serves it under the current view (a promoted
// owner serves its adopted partition from the replica region) — and mirrors it
// by the copy rule (lockCopies). f is the caller's leaf cache for an ordered
// region (nil on the host side of a shipped op, whose sender priced it
// already); via reports what the index operation did with it.
func (rt *Runtime) execStoreOp(n *cluster.Node, m storeOpMsg, f *kvs.Finger) (via kvs.IndexPath, err error) {
	region, part := m.Table, rt.Part(m.Table, m.Key)
	if part >= 0 {
		_, region = rt.C.Serving(part, m.Table)
	}
	sh, mirror := rt.lockCopies(region, m.Table, part)
	if sh != nil {
		defer sh.mu.Unlock()
	}
	ordered := rt.Meta(m.Table).Kind == Ordered
	if via, err = storeOn(n, region, ordered, m, f); err != nil {
		return via, err
	}
	if sh != nil && !m.Insert {
		sh.delGen[delKey{m.Table, m.Key}]++
	}
	for _, b := range mirror {
		if _, err = storeOn(rt.C.Node(b), cluster.CopyRegion(part, m.Table, b), ordered, m, nil); err != nil {
			return via, err
		}
	}
	return via, nil
}

// storeOn applies a store op to node n's shard of a storage region, an ordered
// one through the leaf cache f.
func storeOn(n *cluster.Node, region int, ordered bool, m storeOpMsg, f *kvs.Finger) (via kvs.IndexPath, err error) {
	if ordered {
		o := n.Ordered(region)
		if m.Insert {
			return o.InsertAt(f, m.Key, m.Val)
		}
		_, via = o.DeleteAt(f, m.Key)
		return via, nil
	}
	t := n.Unordered(region)
	if m.Insert {
		return via, t.Insert(m.Key, m.Val)
	}
	t.Delete(m.Key)
	return via, nil
}

// applyStoreOp applies a deferred insert/delete: directly when the record
// is homed here — an ordered table's through the executor's leaf cache, at
// what the index did; a hash table's at a probe — via verbs otherwise.
func (e *Executor) applyStoreOp(op deferredOp) {
	node, region, _ := e.route(op.table, op.key)
	m := storeOpMsg{Insert: op.insert, Table: op.table, Key: op.key, Val: op.val}
	if node != e.w.Node.ID {
		e.shipStoreOp(node, m)
		return
	}
	ordered := e.rt.Meta(op.table).Kind == Ordered
	var f *kvs.Finger
	if ordered {
		f = e.finger(region)
	}
	via, err := e.rt.execStoreOp(e.w.Node, m, f)
	if err != nil {
		// Duplicate keys indicate a workload bug; surface loudly.
		panic(fmt.Sprintf("tx: deferred store op failed: %v", err))
	}
	if ordered {
		e.chargeIndexOp(via)
	} else {
		e.charge(e.model().HashProbeNS)
	}
}

// shipStoreOp sends a deferred insert/delete to the record's host. It takes
// the message by value: here it is boxed for the envelope and captured by the
// closure defer_ takes, while a local op's (applyStoreOp) stays on the stack.
func (e *Executor) shipStoreOp(node int, m storeOpMsg) {
	sz := (3 + len(m.Val)) * 8
	for attempt := 0; ; attempt++ {
		resp, err := e.call(node, msgStoreOp, m, 1, sz, 8)
		if err == nil {
			if herr, _ := resp.(error); herr != nil {
				// Duplicate keys indicate a workload bug; surface loudly.
				panic(fmt.Sprintf("tx: shipped store op failed: %v", herr))
			}
			return
		}
		if errors.Is(err, rdma.ErrNodeUnreachable) {
			// Post-commit effect on a crashed host (defer_), with a value of
			// its own: the deferred op's is attempt scratch. It runs at the
			// partition's owner then: the crashed host, which mirrors it to
			// the backups, or after a promotion the promoted replica.
			m.Val = append([]uint64(nil), m.Val...)
			e.rt.defer_(node, func(rt *Runtime) {
				owner := rt.C.OwnerOf(rt.Part(m.Table, m.Key))
				if _, aerr := rt.execStoreOp(rt.C.Node(owner), m, nil); aerr != nil {
					panic(fmt.Sprintf("tx: recovered store op failed: %v", aerr))
				}
			})
			return
		}
		e.faultBackoff(attempt)
	}
}
