package tx

import (
	"fmt"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// msgHostOps carries a committed transaction's post-commit host ops for one
// host (hostOpsMsg); the ordered-store messages are in ordered_ops.go.
const msgHostOps = 1

// hostOp is one post-commit step on a record's host — the release stage's
// structural half, shipped over SEND/RECV verbs to a remote host (footnote 5 /
// Section 6.5): a deferred insert (insert, val) or delete the body scheduled
// (Local.Insert / Delete), or the unlink of a committed erase's dead entry,
// pinned to the incarnation|version the erase's flip published (unlink, never
// 0 for one): an unlink that arrives late — parked for a dead host, say —
// never removes a later death of the same key, and a re-insert in between
// bumps the incarnation, so it no-ops. The handle is the record's route when
// it was declared.
type hostOp struct {
	recHandle
	insert bool
	unlink uint64
	val    []uint64
}

type hostOpsMsg struct{ Ops []hostOp }

// installStoreHandlers wires the host-op handler on every node, and the apply
// of the redo records a backup's ring drains as it appends (repl.go).
func (rt *Runtime) installStoreHandlers() {
	for i := 0; i < rt.C.Nodes(); i++ {
		n := rt.C.Node(i)
		n.Handle(msgHostOps, func(from int, body any) any {
			ops := body.(*hostOpsMsg).Ops
			for j := range ops {
				rt.execHostOp(n, &ops[j], nil)
			}
			return nil
		})
	}
	rt.C.HandleRedoDrain(rt.applyBackedUp)
}

// lockCopies is the copy rule of the host-side structural ops (execHostOp,
// execEnsureEntry) on a copy of partition part's table held in region. When
// the table is replicated (part >= 0, f > 0) it takes the partition's redo
// lock and returns its shard, which the caller unlocks: a drain must never
// observe the copies mid-op or interleave with a delete, and a delete's
// generation bump must be atomic with removing the entry so stale redo records
// are recognized (applyRedo's guards). mirror lists the nodes whose replica
// shards the op is mirrored to — the partition's backups when region is the
// home copy and the home still owns the partition, so a later promotion sees
// the record; none otherwise. It is the shard's scratch, valid while the lock
// is held.
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

// execHostOp runs a host op on node n's copy of the record's partition held in
// op.region — an ordered store op through the leaf cache f (nil on the host
// side of a shipped op, whose sender priced it) — and reports what the index
// did. It mirrors the op by the copy rule (lockCopies); a delete or an unlink
// bumps the key's delete generation under the partition's redo lock, so a
// lagging redo update never lands on a recycled slot (whose version restarts
// at 0). An unlink is best-effort: a busy state word (the slot is being
// resurrected or leased) or a re-inserted key leaves the dead entry for a
// later pass, and scans skip dead entries either way.
func (rt *Runtime) execHostOp(n *cluster.Node, op *hostOp, f *kvs.Finger) (via kvs.IndexPath) {
	sh, mirror := rt.lockCopies(op.region, op.table, op.part)
	if sh != nil {
		defer sh.mu.Unlock()
	}
	if op.unlink == 0 {
		via = storeOn(n, op.region, op, f)
	} else if o, ok := n.OrderedRegion(op.region); !ok || !removeDeadEntry(o, op.key, uint8(n.ID), op.unlink) {
		return via
	}
	if sh != nil && !op.insert {
		sh.delGen[delKey{op.table, op.key}]++
	}
	for _, b := range mirror {
		region := cluster.CopyRegion(op.part, op.table, b)
		if op.unlink == 0 {
			storeOn(rt.C.Node(b), region, op, nil)
			continue
		}
		// The replica lags the primary (it converges via redo) and never
		// leads it: what it holds under the key is this death's entry as of
		// some earlier moment. A still-live row is deleted outright, a dead
		// one unlinked whatever its incarnation|version (the primary's cannot
		// name a lagging copy's). A leftover would outlive the key: its
		// version guard refuses the next life's redo (version 0, fresh slot),
		// and a promotion serves that row dead.
		rep := rt.C.Node(b).Ordered(region)
		if roff, found := rep.Lookup(op.key); found {
			if kvs.Live(kvs.Incarnation(rep.Arena().LoadWord(kvs.IncVerOffset(roff)))) {
				rep.Delete(op.key)
			} else {
				removeDeadEntry(rep, op.key, uint8(b), 0)
			}
		}
	}
	return via
}

// storeOn applies a store op to node n's shard of a storage region, an ordered
// one through the leaf cache f. A store op that fails — a duplicate key, a
// full table — is a workload bug, surfaced loudly.
func storeOn(n *cluster.Node, region int, op *hostOp, f *kvs.Finger) (via kvs.IndexPath) {
	var err error
	switch {
	case op.ordered && op.insert:
		via, err = n.Ordered(region).InsertAt(f, op.key, op.val)
	case op.ordered:
		_, via = n.Ordered(region).DeleteAt(f, op.key)
	case op.insert:
		err = n.Unordered(region).Insert(op.key, op.val)
	default:
		n.Unordered(region).Delete(op.key)
	}
	if err != nil {
		panic(fmt.Sprintf("tx: deferred store op failed: %v", err))
	}
	return via
}

// applyHostOps runs a committed transaction's host ops after every lock has
// dropped: one homed here on this node's shard — an ordered store op through
// the executor's leaf cache, at what the index did, any other at hostOpNS —
// and the rest as one one-way message per host of at most BatchWindow ops. It
// consumes ops (a shipped op's node is overwritten).
func (e *Executor) applyHostOps(ops []hostOp) {
	window := e.window()
	for i := range ops {
		switch op := &ops[i]; {
		case op.node < 0: // went out with an earlier op's message
		case op.node != e.w.Node.ID:
			node, batch := op.node, e.hostMsg.Ops[:0]
			for j := i; j < len(ops) && len(batch) < window; j++ {
				if ops[j].node == node {
					batch = append(batch, ops[j])
					ops[j].node = -1
				}
			}
			e.hostMsg.Ops = batch
			e.shipHostOps(node)
		case op.ordered && op.unlink == 0:
			e.chargeIndexOp(e.rt.execHostOp(e.w.Node, op, e.finger(op.region)))
		default:
			e.rt.execHostOp(e.w.Node, op, nil)
			e.charge(e.hostOpNS(op))
		}
	}
}

// hostOpNS prices a host op by the host's work: a hash table's store op at a
// probe, any other at a tree operation.
func (e *Executor) hostOpNS(op *hostOp) int64 {
	if !op.ordered {
		return e.model().HashProbeNS
	}
	return e.model().BTreeOpNS
}

// shipHostOps sends the executor's host-op message (e.hostMsg) to node as a
// one-way message: nothing the worker does next depends on the host's answer,
// so the worker pays one doorbell and leaves the message in flight
// (rdma.QP.Send), plus the host's work per op (hostOpNS). A crashed host's ops
// go to defer_, each on its own: a store op runs at the partition's owner then
// — the crashed host, which mirrors it to the backups, or after a promotion
// the promoted replica — and an unlink stays pinned to the crashed host's
// entry.
func (e *Executor) shipHostOps(node int) {
	ops, bytes := e.hostMsg.Ops, 8
	for i := range ops {
		e.charge(e.hostOpNS(&ops[i]))
		bytes += 40 + 8*len(ops[i].val)
	}
	e.callMsg = cluster.Msg{Type: msgHostOps, Body: &e.hostMsg}
	if !e.redrive(func() error { return e.w.QP.Send(node, &e.callMsg, bytes) }) {
		e.w.Obs.Add(obs.EvShippedOp, int64(len(ops)))
		return
	}
	for _, op := range ops {
		op.val = append([]uint64(nil), op.val...) // the body's value is attempt scratch
		e.rt.defer_(node, func(rt *Runtime) {
			if op.unlink == 0 {
				op.node, op.region = rt.C.Serving(op.part, op.table)
			}
			rt.execHostOp(rt.C.Node(op.node), &op, nil)
		})
	}
}
