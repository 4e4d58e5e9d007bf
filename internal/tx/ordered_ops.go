package tx

// Transactional inserts, erases and point accesses for ordered tables, plus
// the declared secondary-index maintenance that rides them (see DESIGN.md,
// "Range scans & secondary indexes").
//
// An insert is split DrTM-style: the structural half (making the key
// present in the tree as a DEAD entry) happens at declare time through the
// host's latched store — kvs.Ordered.EnsureDead — and the visible half (the
// incarnation flip to live, plus the value) commits atomically with the
// transaction: inside the HTM region for local entries
// (applyLocalStructural), or as the lock-protected write-back of a staged
// remote record (commitRemotes). An erase mirrors this: the flip to dead
// commits with the transaction and the physical tree removal is deferred to
// removeDead, after every lock has dropped.
//
// Secondary indexes are maintained inside the same commit: WInsert/Erase
// stage the base row AND every declared index row, so the flips land in one
// HTM region (or under one fallback lock set, taken in global (table, key)
// order like every other fallback lock).
//
// Remote ordered accesses have no one-sided lookup path (Section 6.5): the
// index walk ships to the host over SEND/RECV verbs, which returns the entry's
// offset and image; a speculative read is served by that image, while locking,
// the prefetch under a lock or lease, validation and write-back use the same
// one-sided verbs as unordered records, since the entry layout is identical.

import (
	"errors"
	"fmt"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// Verbs message types for ordered-store operations (3..6; 1..2 are in
// handlers.go).
const (
	// msgOrderedOps resolves a batch of keys on the host's B+ trees: point
	// lookups (the shipped half of a remote ordered access) and EnsureDeads
	// (the declare half of a remote transactional insert), answered in place.
	msgOrderedOps = 3
	// msgRangeScan runs a stamped range collection on the host.
	msgRangeScan = 5
	// msgRemoveDead physically unlinks committed erases' dead entries.
	msgRemoveDead = 6
)

// shipOp is one key of a msgOrderedOps message — 32 bytes of request, a lookup
// or an EnsureDead of Key in (Region, Table, Part) — and the host's answer:
// 16 bytes of (Off, Found), or for an EnsureDead that could not be, Err
// (kvs.ErrExists when the key is live, kvs.ErrFull); behind a lookup's, the
// entry it found.
type shipOp struct {
	Region, Table, Part int
	Key                 uint64
	Ensure              bool

	Off   memory.Offset
	Found bool
	Err   error

	// Img is a lookup's reply buffer, the sender's own, kvs.EntryValueWord + the
	// table's value words long: the host copies the found entry's header and
	// value into it with the Arena.Read a one-sided READ of Off performs. Every
	// lookup carries one — the host cannot know which arm asked.
	Img []uint64
}

type orderedOpsMsg struct{ Ops []shipOp }

// removeDeadMsg carries every dead entry one transaction unlinks on one host.
type removeDeadMsg struct{ Ops []removalOp }

// structOp is a local structural half staged by WInsert/Erase: the entry at
// off was observed with exactly (inc, version); the commit flips it live
// (insert) or dead (erase) inside the HTM region after re-verifying that
// observation.
type structOp struct {
	table  int
	region int
	part   int
	key    uint64
	off    memory.Offset
	inc    uint32
	ver    uint32
	// val is the value to publish for inserts; for erases, the value
	// observed at declare (logged to the WAL/redo stream with the flip).
	val []uint64
}

// removalOp schedules the post-commit physical removal of an erased entry.
// deadIncVer is the exact incarnation|version the erase's flip published:
// the unlink verifies it so that a removal that arrives late — parked for a
// dead host, say — can never unlink a LATER death of the same key. (A
// re-insert in between bumps the incarnation, so a stale op simply no-ops.)
type removalOp struct {
	node       int
	region     int
	table      int
	part       int
	key        uint64
	deadIncVer uint64
}

// installOrderedHandlers wires the ordered-store verbs handlers on every
// node (called next to installStoreHandlers).
func (rt *Runtime) installOrderedHandlers() {
	for i := 0; i < rt.C.Nodes(); i++ {
		n := rt.C.Node(i)
		n.Handle(msgOrderedOps, func(from int, body any) any {
			return rt.execOrderedOps(n, body.(*orderedOpsMsg).Ops)
		})
		n.Handle(msgRangeScan, func(from int, body any) any {
			return rt.execRangeScan(n, body.(*rangeScanMsg))
		})
		n.Handle(msgRemoveDead, func(from int, body any) any {
			for _, op := range body.(*removeDeadMsg).Ops {
				rt.execRemoveDead(n, op)
			}
			return nil
		})
	}
}

// execOrderedOps is the host side of a msgOrderedOps message: each op's tree
// lookup or EnsureDead, answered in place, a found entry's image with it.
func (rt *Runtime) execOrderedOps(n *cluster.Node, ops []shipOp) any {
	for i := range ops {
		op := &ops[i]
		if op.Ensure {
			op.Off, op.Err = rt.execEnsureEntry(n, op.Region, op.Table, op.Part, op.Key)
			op.Found = op.Err == nil
			continue
		}
		o, ok := n.OrderedRegion(op.Region)
		if !ok {
			return fmt.Errorf("tx: node %d has no ordered region %d", n.ID, op.Region)
		}
		if op.Off, op.Found = o.Lookup(op.Key); op.Found {
			o.Arena().Read(op.Img, op.Off)
		}
	}
	return nil
}

// execEnsureEntry performs the structural half of an insert on the host's
// shard and, when the host is the partition's home primary, mirrors the
// structural presence to every backup's replica shard (so a promotion sees
// the entry; the incarnation flip itself converges through the redo
// stream). A backup already holding the key is fine — ErrExists there means
// present, which is all the mirror needs — and a full backup degrades to an
// unmirrored entry rather than failing the insert.
func (rt *Runtime) execEnsureEntry(n *cluster.Node, region, table, part int, key uint64) (memory.Offset, error) {
	o, ok := n.OrderedRegion(region)
	if !ok {
		return 0, fmt.Errorf("tx: node %d has no ordered region %d", n.ID, region)
	}
	var sh *redoShard
	if part >= 0 && rt.C.ReplicationFactor() > 0 && region == table &&
		rt.C.OwnerOf(part) == part {
		sh = &rt.redoShards[part]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	off, err := o.EnsureDead(key)
	if err != nil {
		return 0, err
	}
	if sh != nil {
		sh.bk = rt.C.Backups(sh.bk[:0], part)
		for _, b := range sh.bk {
			rep, ok := rt.C.Node(b).OrderedRegion(cluster.ReplicaRegion(part, table))
			if !ok {
				continue
			}
			if _, rerr := rep.EnsureDead(key); rerr != nil &&
				!errors.Is(rerr, kvs.ErrExists) && !errors.Is(rerr, kvs.ErrFull) {
				return 0, rerr
			}
		}
	}
	return off, nil
}

// execRangeScan is the host side of a remote scan: the collection a local
// scan runs, without a finger, answered into the sender's buffers.
func (rt *Runtime) execRangeScan(n *cluster.Node, m *rangeScanMsg) any {
	o, ok := n.OrderedRegion(m.Rec.region)
	if !ok {
		return fmt.Errorf("tx: node %d has no ordered region %d", n.ID, m.Rec.region)
	}
	_, m.Busy = collectRange(o, nil, m.Rec, m.Lo, m.Hi, m.Limit, m.Vals, m.Out)
	return nil
}

// execRemoveDead physically unlinks a dead entry on the host — the deferred
// second half of a committed erase — and mirrors the removal to the backups'
// replica shards. Best-effort by design: a busy state word (the slot is being
// resurrected or leased) or a re-inserted key leaves the dead entry for a later
// pass; scans skip dead entries either way. The delete-generation bump happens
// here, with the removal under the partition's redo lock, so a lagging redo
// update can never land on a recycled slot (whose version restarts at 0).
func (rt *Runtime) execRemoveDead(n *cluster.Node, op removalOp) {
	o, ok := n.OrderedRegion(op.region)
	if !ok {
		return
	}
	var sh *redoShard
	if op.part >= 0 && rt.C.ReplicationFactor() > 0 {
		sh = &rt.redoShards[op.part]
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	if !removeDeadEntry(o, op.key, uint8(n.ID), op.deadIncVer) {
		return
	}
	if sh == nil {
		return
	}
	sh.delGen[delKey{op.table, op.key}]++
	if op.region == op.table && rt.C.OwnerOf(op.part) == op.part {
		sh.bk = rt.C.Backups(sh.bk[:0], op.part)
		for _, b := range sh.bk {
			rep, ok := rt.C.Node(b).OrderedRegion(cluster.ReplicaRegion(op.part, op.table))
			if !ok {
				continue
			}
			// The replica lags the primary (it converges via redo) and never
			// leads it: what it holds under the key is this death's entry as of
			// some earlier moment. A still-live row is deleted outright, a dead
			// one unlinked whatever its incarnation|version (the primary's
			// deadIncVer cannot name a lagging copy's). A leftover would outlive
			// the key: its version guard refuses the next life's redo (version 0,
			// fresh slot), and a promotion serves that row dead.
			if roff, found := rep.Lookup(op.key); found {
				if kvs.Live(kvs.Incarnation(rep.Arena().LoadWord(kvs.IncVerOffset(roff)))) {
					rep.Delete(op.key)
				} else {
					removeDeadEntry(rep, op.key, uint8(b), 0)
				}
			}
		}
	}
}

// removeDeadEntry locks, re-verifies and unlinks one dead entry. A nonzero
// want pins the unlink to one specific death: the entry must still carry
// exactly that incarnation|version, so a stale (queued) removal op can
// never unlink a later death of the same key. The freed slot's state word
// is intentionally left write-locked — an ABA guard against in-flight
// one-sided CASes aimed at the old occupant; Insert and EnsureDead
// re-initialize the state word when the slot is reused.
func removeDeadEntry(o *kvs.Ordered, key uint64, owner uint8, want uint64) bool {
	off, ok := o.Lookup(key)
	if !ok {
		return false
	}
	arena := o.Arena()
	if _, ok := arena.CAS(kvs.StateOffset(off), clock.Init, clock.WLocked(owner)); !ok {
		return false
	}
	incver := arena.LoadWord(kvs.IncVerOffset(off))
	if arena.LoadWord(off+kvs.EntryKeyWord) != key || kvs.Live(kvs.Incarnation(incver)) ||
		(want != 0 && incver != want) {
		arena.StoreWord(kvs.StateOffset(off), clock.Init)
		return false
	}
	if !o.RemoveEntry(key, off) {
		arena.StoreWord(kvs.StateOffset(off), clock.Init)
		return false
	}
	return true
}

// WInsert stages a transactional insert of (key, val) into an ordered base
// table AND of the matching row into every secondary index declared over
// it. All rows become live atomically at commit; on abort the staged dead
// entries simply linger until reused or removed. Returns kvs.ErrExists when
// the base key (or an index key — a workload uniqueness bug) is already
// live. A one-access Stage: the base row and its index rows resolve with one
// shipped message and lock in one wave.
func (t *Tx) WInsert(table int, key uint64, val []uint64) error {
	if val == nil {
		val = []uint64{} // a nil Insert is no insert
	}
	return t.Stage(Access{Table: table, Key: key, Insert: val})
}

// Erase stages a transactional delete of an ordered base row and of its row
// in every declared secondary index (computed from the value observed at
// declare — re-verified at commit, so a racing update retries the whole
// transaction rather than unhooking the wrong index key). Returns the base
// row's value as observed. A remote row's index rows ride the transaction's
// next wave (oweIndexRows). The physical tree removals run after commit
// (removeDead).
func (t *Tx) Erase(table int, key uint64) ([]uint64, error) {
	if err := t.Stage(Access{Table: table, Key: key, Erase: true}); err != nil {
		return nil, err
	}
	if r, ok := t.rIndex[refKey{table, key}]; ok {
		return r.buf, nil
	}
	return findStructOp(t.localErase, table, key).val, nil
}

// carve returns n zeroed words of the transaction's structural scratch (index
// rows' values, local structural ops' values). Growing the scratch leaves
// earlier carvings in the array they were made in.
func (t *Tx) carve(n int) []uint64 {
	lo := len(t.swords)
	t.swords = append(t.swords, make([]uint64, n)...)
	return t.swords[lo:len(t.swords):len(t.swords)]
}

// declareLocalInsert runs the structural half on this node's shard and
// records the flip for applyLocalStructural. The slot is NOT locked between
// declare and commit: the in-region re-verification of (key, inc, version)
// plus HTM enrollment of those words makes the flip atomic anyway, and a
// lost race surfaces as abortCodeStale → whole-transaction retry, whose
// re-staging then reports ErrExists.
func (t *Tx) declareLocalInsert(table, region, part int, key uint64, val []uint64) error {
	e := t.e
	e.charge(e.model().BTreeOpNS)
	off, err := e.rt.execEnsureEntry(e.w.Node, region, table, part, key)
	if err != nil {
		return err // kvs.ErrExists (key live) or kvs.ErrFull
	}
	o := e.w.Node.Ordered(region)
	incver := o.Arena().LoadWord(kvs.IncVerOffset(off))
	if kvs.Live(kvs.Incarnation(incver)) {
		// A remote insert holding the slot's lock flipped it live between
		// EnsureDead's look and this one. What is recorded here is what the
		// commit flips, and it must be the dead slot.
		return kvs.ErrExists
	}
	own := t.carve(len(val))
	copy(own, val)
	t.localIns = append(t.localIns, structOp{table: table, region: region, part: part,
		key: key, off: off, inc: kvs.Incarnation(incver), ver: kvs.Version(incver), val: own})
	return nil
}

// declareLocalErase resolves a live local row, snapshots its value, and
// records the flip-to-dead plus the deferred physical removal, then declares
// the row's index rows, which the value names. A row a commit holds mid-flight
// is a conflict, which an escalated attempt waits out (Executor.waitOut).
func (t *Tx) declareLocalErase(a Access, region, part int) error {
	table, key := a.Table, a.Key
	e := t.e
	e.charge(e.model().BTreeOpNS)
	o := e.w.Node.Ordered(region)
	off, live := o.Lookup(key)
	vals := t.carve(o.ValueWords())[:0]
	var incver uint64
	for stable := !live; !stable; {
		if incver, live, stable = stableScanEntry(o.Arena(), off, o.ValueWords(), &vals); stable {
			break
		}
		if !t.escalated {
			return t.remoteConflict()
		}
		h := recHandle{table: table, node: e.w.Node.ID, region: region, part: part, key: key, ordered: true, off: off}
		moved, err := e.waitOut(&h, o.Arena().LoadWord(kvs.StateOffset(off)))
		if err != nil {
			return err
		}
		if moved {
			return t.fail()
		}
	}
	switch {
	case live:
	case a.ixOf:
		return t.indexRowMissing(table, a.base)
	default:
		return ErrNotFound
	}
	t.localErase = append(t.localErase, structOp{table: table, region: region, part: part,
		key: key, off: off, inc: kvs.Incarnation(incver), ver: kvs.Version(incver),
		val: vals})
	t.removals = append(t.removals, removalOp{node: e.w.Node.ID, region: region,
		table: table, part: part, key: key,
		deadIncVer: kvs.PackIncVer(kvs.Incarnation(incver)+1, kvs.Version(incver)+1)})
	for _, spec := range e.rt.indexesOf(table) {
		if err := t.declare(Access{Table: spec.Table, Key: spec.Key(key, vals), Erase: true,
			ixOf: true, base: refKey{table, key}}); err != nil {
			return err
		}
		e.w.Obs.Inc(obs.EvIndexMaint)
	}
	return nil
}

// applyLocalStructural commits the local structural halves inside the HTM
// region: each staged insert/erase re-verifies its exact declare-time
// observation (key, incarnation|version, unlocked state — all enrolled in
// the read set) and flips the incarnation. Runs after scansValid (the
// flips change incver words scans recorded) and before the WAL write.
func (t *Tx) applyLocalStructural(htx *htm.Txn) {
	if len(t.localIns) == 0 && len(t.localErase) == 0 {
		return
	}
	n := t.e.w.Node
	model := t.e.model()
	for i := range t.localIns {
		op := &t.localIns[i]
		t.flipStructural(htx, n.Ordered(op.region), op, true)
		t.e.charge(model.HTMPerWriteNS * int64(len(op.val)+1))
	}
	for i := range t.localErase {
		op := &t.localErase[i]
		t.flipStructural(htx, n.Ordered(op.region), op, false)
		t.e.charge(model.HTMPerWriteNS)
	}
}

func (t *Tx) flipStructural(htx *htm.Txn, o *kvs.Ordered, op *structOp, insert bool) {
	arena := o.Arena()
	if htx.Read(arena, op.off+kvs.EntryKeyWord) != op.key {
		htx.Abort(abortCodeStale)
	}
	if htx.Read(arena, kvs.IncVerOffset(op.off)) != kvs.PackIncVer(op.inc, op.ver) {
		htx.Abort(abortCodeStale)
	}
	s := htx.Read(arena, kvs.StateOffset(op.off))
	if clock.IsWriteLocked(s) {
		htx.Abort(abortCodeLocked)
	}
	if s != clock.Init {
		// A lease landed on the entry since declare; clear it if expired,
		// else wait it out via whole-transaction retry (Figure 6 logic).
		if !clock.Expired(clock.LeaseEnd(s), t.startSoft, t.e.rt.C.Delta()) {
			htx.Abort(abortCodeLocked)
		}
		htx.Write(arena, kvs.StateOffset(op.off), clock.Init)
	}
	htx.Write(arena, kvs.IncVerOffset(op.off), kvs.PackIncVer(op.inc+1, op.ver+1))
	if insert {
		htx.WriteN(arena, kvs.ValueOffset(op.off), op.val)
	}
	if t.e.rt.C.Config().Durability || (op.part >= 0 && t.e.rt.C.ReplicationFactor() > 0) {
		t.walLocal = append(t.walLocal, walRec{
			node: t.e.w.Node.ID, table: op.region, off: op.off,
			version: op.ver + 1, inc: op.inc + 1,
			val:    op.val, // the transaction's own copy; the body, which may write it, has run
			ltable: op.table, part: op.part, key: op.key,
		})
	}
}

// removeDead physically unlinks committed erases' dead entries, after every
// lock has dropped: directly on this node's shards, with one
// msgRemoveDead message per host — at most BatchWindow entries per message —
// otherwise. It consumes ops (a sent entry's node is overwritten).
func (e *Executor) removeDead(ops []removalOp) {
	e.w.Obs.Add(obs.EvRemoveDead, int64(len(ops)))
	window := e.window()
	for i := range ops {
		node := ops[i].node
		switch {
		case node < 0: // went out with an earlier entry's message
		case node == e.w.Node.ID:
			e.rt.execRemoveDead(e.w.Node, ops[i])
			e.charge(e.model().BTreeOpNS)
		default:
			batch := e.remMsg.Ops[:0]
			for j := i; j < len(ops) && len(batch) < window; j++ {
				if ops[j].node == node {
					batch = append(batch, ops[j])
					ops[j].node = -1
				}
			}
			e.remMsg.Ops = batch
			e.shipRemoveDead(node)
		}
	}
}

// shipRemoveDead sends the executor's removal message (e.remMsg) to node,
// charged for its payload and one tree operation per entry. Release-side:
// transient faults retry the whole message without bound, and a crashed
// host's removals park for recovery, each on its own, like any post-commit
// effect.
func (e *Executor) shipRemoveDead(node int) {
	ops := e.remMsg.Ops
	e.charge(e.model().BTreeOpNS * int64(len(ops)))
	for attempt := 0; ; attempt++ {
		_, err := e.call(node, msgRemoveDead, &e.remMsg, len(ops), 8+40*len(ops), 8)
		if err == nil {
			return
		}
		if errors.Is(err, rdma.ErrNodeUnreachable) {
			for _, op := range ops {
				e.rt.defer_(node, func(rt *Runtime) {
					rt.execRemoveDead(rt.C.Node(node), op)
				})
			}
			return
		}
		e.faultBackoff(attempt)
	}
}
