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

// execStoreOp performs an insert/delete on the host node's store, resolving
// the storage region under the current view (a promoted owner serves its
// adopted partition from the replica region). When the host is the
// partition's home primary, the op is mirrored to every backup's replica
// shard so a later promotion sees the record. f is the caller's leaf cache
// for an ordered region (nil on the host side of a shipped op, whose sender
// priced it already); via reports what the index operation did with it.
func (rt *Runtime) execStoreOp(n *cluster.Node, m storeOpMsg, f *kvs.Finger) (via kvs.IndexPath, err error) {
	meta := rt.Meta(m.Table)
	region := m.Table
	part := rt.Part(m.Table, m.Key)
	if part >= 0 && rt.C.OwnerOf(part) != part {
		region = cluster.ReplicaRegion(part, m.Table)
	}
	var sh *redoShard // the partition's, held, when the record is replicated
	if part >= 0 && rt.C.ReplicationFactor() > 0 {
		// Serialized with redo application to the partition (repl.go): a
		// drain must never observe the copies mid-op or interleave with a
		// delete, and a delete's generation bump must be atomic with removing
		// the entry so stale redo records are recognized (applyRedo's guards).
		sh = &rt.redoShards[part]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if meta.Kind == Ordered {
		return rt.execOrderedStoreOp(n, m, region, part, sh, f)
	}
	t := n.Unordered(region)
	if m.Insert {
		err = t.Insert(m.Key, m.Val)
	} else {
		t.Delete(m.Key)
		if sh != nil {
			sh.delGen[delKey{m.Table, m.Key}]++
		}
	}
	if err == nil && sh != nil && rt.C.OwnerOf(part) == part {
		sh.bk = rt.C.Backups(sh.bk[:0], part)
		for _, b := range sh.bk {
			rep := rt.C.Node(b).Unordered(cluster.ReplicaRegion(part, m.Table))
			if m.Insert {
				err = rep.Insert(m.Key, m.Val)
			} else {
				rep.Delete(m.Key)
			}
			if err != nil {
				return via, err
			}
		}
	}
	return via, err
}

// execOrderedStoreOp is execStoreOp for ordered tables: the host resolves
// its ordered shard under the current view (a promoted owner serves the
// adopted partition from its replica shard), applies the op, and — when it
// is the home primary — mirrors it to every backup's ordered replica shard.
// sh is the partition's redo shard, held, or nil (execStoreOp).
func (rt *Runtime) execOrderedStoreOp(n *cluster.Node, m storeOpMsg,
	region, part int, sh *redoShard, f *kvs.Finger) (via kvs.IndexPath, err error) {
	o, ok := n.OrderedRegion(region)
	if !ok {
		return via, fmt.Errorf("tx: no ordered region %d on node %d", region, n.ID)
	}
	if m.Insert {
		if via, err = o.InsertAt(f, m.Key, m.Val); err != nil {
			return via, err
		}
	} else {
		_, via = o.DeleteAt(f, m.Key)
		if sh != nil {
			sh.delGen[delKey{m.Table, m.Key}]++
		}
	}
	if sh != nil && rt.C.OwnerOf(part) == part {
		sh.bk = rt.C.Backups(sh.bk[:0], part)
		for _, b := range sh.bk {
			rep, ok := rt.C.Node(b).OrderedRegion(cluster.ReplicaRegion(part, m.Table))
			if !ok {
				continue
			}
			if m.Insert {
				if err := rep.Insert(m.Key, m.Val); err != nil {
					return via, err
				}
			} else {
				rep.Delete(m.Key)
			}
		}
	}
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
