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
// applyRemovals, after every lock has dropped.
//
// Secondary indexes are maintained inside the same commit: WInsert/Erase
// stage the base row AND every declared index row, so the flips land in one
// HTM region (or under one fallback lock set, taken in global (table, key)
// order like every other fallback lock).
//
// Remote ordered accesses have no one-sided lookup path (Section 6.5): the
// index walk ships to the host over SEND/RECV verbs, which returns the
// entry offset; locking, prefetching, validation and write-back then use
// the same one-sided verbs as unordered records, since the entry layout is
// identical.

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
	// msgOrderedLookup resolves a key to its entry offset via the host's
	// B+ tree (the shipped half of a remote ordered point access).
	msgOrderedLookup = 3
	// msgEnsureEntry makes a key structurally present as a DEAD entry on
	// the host (the declare half of a remote transactional insert).
	msgEnsureEntry = 4
	// msgRangeScan runs a stamped range collection on the host.
	msgRangeScan = 5
	// msgRemoveDead physically unlinks a committed erase's dead entry.
	msgRemoveDead = 6
	// msgMVCCScan runs a snapshot-stamped range resolution on the host
	// (the MVCC read arm's remote scan; see mvcc.go).
	msgMVCCScan = 7
)

type orderedLookupMsg struct {
	Region int
	Key    uint64
}

type orderedLookupResp struct {
	Off   memory.Offset
	Found bool
}

type ensureEntryMsg struct {
	Region int
	Table  int
	Part   int
	Key    uint64
}

type rangeScanMsg struct {
	Region int
	Lo, Hi uint64
	Limit  int
}

// scanRowWire is one in-range entry in a range-scan reply. Val is nil for
// dead entries (returned only as validation anchors).
type scanRowWire struct {
	Key    uint64
	Off    memory.Offset
	IncVer uint64
	Val    []uint64
}

type rangeScanResp struct {
	Segs   []int
	Stamps []uint64
	Rows   []scanRowWire
	Busy   bool // a row stayed write-locked through the stability retries
}

type removeDeadMsg struct {
	Region int
	Table  int
	Part   int
	Key    uint64
	// DeadIncVer is the erased entry's expected incarnation|version (see
	// removalOp); 0 accepts any dead entry (legacy callers).
	DeadIncVer uint64
}

func clusterMsg(typ int, body any) cluster.Msg { return cluster.Msg{Type: typ, Body: body} }

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
// the unlink verifies it so that a removal deferred behind the MVCC
// snapshot floor can never unlink a LATER death of the same key — one whose
// stamp exceeds the floor the op was admitted under, and whose chain an
// in-flight snapshot read may still owe. (A re-insert between queue and
// drain bumps the incarnation, so a stale op simply no-ops.)
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
		n.Handle(msgOrderedLookup, func(from int, body any) any {
			m := body.(orderedLookupMsg)
			o, ok := n.OrderedRegion(m.Region)
			if !ok {
				return fmt.Errorf("tx: node %d has no ordered region %d", n.ID, m.Region)
			}
			off, found := o.Lookup(m.Key)
			return orderedLookupResp{Off: off, Found: found}
		})
		n.Handle(msgEnsureEntry, func(from int, body any) any {
			m := body.(ensureEntryMsg)
			off, err := rt.execEnsureEntry(n, m)
			if err != nil {
				return err
			}
			return off
		})
		n.Handle(msgRangeScan, func(from int, body any) any {
			m := body.(rangeScanMsg)
			return rt.execRangeScan(n, m)
		})
		n.Handle(msgRemoveDead, func(from int, body any) any {
			m := body.(removeDeadMsg)
			rt.execRemoveDead(n, m)
			return nil
		})
		n.Handle(msgMVCCScan, func(from int, body any) any {
			m := body.(mvccScanMsg)
			return rt.execMVCCScan(n, m)
		})
	}
}

// execEnsureEntry performs the structural half of an insert on the host's
// shard and, when the host is the partition's home primary, mirrors the
// structural presence to every backup's replica shard (so a promotion sees
// the entry; the incarnation flip itself converges through the redo
// stream). A backup already holding the key is fine — ErrExists there means
// present, which is all the mirror needs — and a full backup degrades to an
// unmirrored entry rather than failing the insert.
func (rt *Runtime) execEnsureEntry(n *cluster.Node, m ensureEntryMsg) (memory.Offset, error) {
	o, ok := n.OrderedRegion(m.Region)
	if !ok {
		return 0, fmt.Errorf("tx: node %d has no ordered region %d", n.ID, m.Region)
	}
	repl := m.Part >= 0 && rt.C.ReplicationFactor() > 0 && m.Region == m.Table &&
		rt.C.OwnerOf(m.Part) == m.Part
	if repl {
		rt.redoMu.Lock()
		defer rt.redoMu.Unlock()
	}
	off, err := o.EnsureDead(m.Key)
	if err != nil {
		return 0, err
	}
	if repl {
		rt.bkScr = rt.C.Backups(rt.bkScr[:0], m.Part)
		for _, b := range rt.bkScr {
			rep, ok := rt.C.Node(b).OrderedRegion(cluster.ReplicaRegion(m.Part, m.Table))
			if !ok {
				continue
			}
			if _, rerr := rep.EnsureDead(m.Key); rerr != nil &&
				!errors.Is(rerr, kvs.ErrExists) && !errors.Is(rerr, kvs.ErrFull) {
				return 0, rerr
			}
		}
	}
	return off, nil
}

// execRangeScan is the host side of a remote scan: the same stamped
// collection collectScanLocal runs locally.
func (rt *Runtime) execRangeScan(n *cluster.Node, m rangeScanMsg) any {
	o, ok := n.OrderedRegion(m.Region)
	if !ok {
		return fmt.Errorf("tx: node %d has no ordered region %d", n.ID, m.Region)
	}
	arena := o.Arena()
	var resp rangeScanResp
	resp.Segs = o.SegSpan(nil, m.Lo, m.Hi)
	resp.Stamps = make([]uint64, 0, len(resp.Segs))
	for _, s := range resp.Segs {
		resp.Stamps = append(resp.Stamps, arena.LoadWord(kvs.SegStampOffset(s)))
	}
	vw := o.ValueWords()
	live := 0
	var vals []uint64
	o.Scan(m.Lo, m.Hi, func(k uint64, off memory.Offset) bool {
		vals = vals[:0]
		incver, isLive, ok := stableScanEntry(arena, off, vw, &vals)
		if !ok {
			resp.Busy = true
			return false
		}
		row := scanRowWire{Key: k, Off: off, IncVer: incver}
		if isLive {
			row.Val = append([]uint64(nil), vals...)
			live++
		}
		resp.Rows = append(resp.Rows, row)
		return m.Limit <= 0 || live < m.Limit
	})
	return resp
}

// execRemoveDead physically unlinks a dead entry on the host — the deferred
// second half of a committed erase — and mirrors the removal to the
// backups' replica shards. Best-effort by design: a busy state word (the
// slot is being resurrected or leased) or a re-inserted key simply leaves
// the dead entry for a later pass; scans skip dead entries either way. The
// delete-generation bump happens here, atomically with the removal under
// redoMu, so a lagging redo update can never land on a recycled slot (whose
// version restarts at 0).
func (rt *Runtime) execRemoveDead(n *cluster.Node, m removeDeadMsg) {
	o, ok := n.OrderedRegion(m.Region)
	if !ok {
		return
	}
	repl := m.Part >= 0 && rt.C.ReplicationFactor() > 0
	if repl {
		rt.redoMu.Lock()
		defer rt.redoMu.Unlock()
	}
	if !removeDeadEntry(o, m.Key, uint8(n.ID), m.DeadIncVer) {
		return
	}
	if repl {
		rt.delGen[delKey{m.Part, m.Table, m.Key}]++
	}
	if repl && m.Region == m.Table && rt.C.OwnerOf(m.Part) == m.Part {
		rt.bkScr = rt.C.Backups(rt.bkScr[:0], m.Part)
		for _, b := range rt.bkScr {
			rep, ok := rt.C.Node(b).OrderedRegion(cluster.ReplicaRegion(m.Part, m.Table))
			if !ok {
				continue
			}
			// The replica's own parity may lag the primary's (it converges
			// via redo): a still-live replica row is deleted outright, a
			// dead one unlinked like the primary's.
			if roff, found := rep.Lookup(m.Key); found {
				if kvs.Live(kvs.Incarnation(rep.Arena().LoadWord(kvs.IncVerOffset(roff)))) {
					rep.Delete(m.Key)
				} else {
					removeDeadEntry(rep, m.Key, uint8(b), m.DeadIncVer)
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
// live.
func (t *Tx) WInsert(table int, key uint64, val []uint64) error {
	if err := t.insertOne(table, key, val); err != nil {
		return err
	}
	for _, spec := range t.e.rt.indexesOf(table) {
		ival := make([]uint64, t.e.rt.Meta(spec.Table).ValueWords)
		ival[0] = key
		if err := t.insertOne(spec.Table, spec.Key(key, val), ival); err != nil {
			return err
		}
		t.e.w.Obs.Inc(obs.EvIndexMaint)
	}
	return nil
}

// Erase stages a transactional delete of an ordered base row and of its row
// in every declared secondary index (computed from the value observed at
// declare — re-verified at commit, so a racing update retries the whole
// transaction rather than unhooking the wrong index key). Returns the base
// row's value as observed. The physical tree removals run after commit
// (applyRemovals).
func (t *Tx) Erase(table int, key uint64) ([]uint64, error) {
	old, err := t.eraseOne(table, key)
	if err != nil {
		return nil, err
	}
	for _, spec := range t.e.rt.indexesOf(table) {
		if _, ierr := t.eraseOne(spec.Table, spec.Key(key, old)); ierr != nil {
			if errors.Is(ierr, ErrNotFound) {
				if t.baseEraseMoved(table, key) {
					return nil, t.fail()
				}
				// The base row is live, unchanged since we staged it, and its
				// index row is gone: the index diverged from the base table.
				// Surface loudly — the divergence audit pins this.
				panic(fmt.Sprintf("tx: index table %d missing row for base table %d key %d",
					spec.Table, table, key))
			}
			return nil, ierr
		}
		t.e.w.Obs.Inc(obs.EvIndexMaint)
	}
	return old, nil
}

// baseEraseMoved reports whether the base row of a local Erase changed after
// it was staged. A local row is staged unlocked, so a racing erase of the same
// row may have committed its base and index flips in between: the missing
// index row is then that lost race, not a divergence. (A remote base row is
// staged under our lock and cannot move.)
func (t *Tx) baseEraseMoved(table int, key uint64) bool {
	op := findStructOp(t.localErase, table, key)
	return op != nil && t.e.w.Node.Ordered(op.region).Arena().
		LoadWord(kvs.IncVerOffset(op.off)) != kvs.PackIncVer(op.inc, op.ver)
}

func (t *Tx) insertOne(table int, key uint64, val []uint64) error {
	meta := t.e.rt.Meta(table)
	if meta.Kind != Ordered {
		panic(fmt.Sprintf("tx: WInsert into unordered table %d (use Local.Insert)", table))
	}
	if len(val) != meta.ValueWords {
		panic(fmt.Sprintf("tx: WInsert value length %d, want %d", len(val), meta.ValueWords))
	}
	node, region, part := t.e.route(table, key)
	t.stampView(part)
	if node == t.e.w.Node.ID {
		return t.declareLocalInsert(table, region, part, key, val)
	}
	s, err := t.gatherInsert(table, key, node, region, part, val)
	if err != nil {
		return err
	}
	return t.stageOne(s)
}

func (t *Tx) eraseOne(table int, key uint64) ([]uint64, error) {
	meta := t.e.rt.Meta(table)
	if meta.Kind != Ordered {
		panic(fmt.Sprintf("tx: Erase from unordered table %d (use Local.Delete)", table))
	}
	node, region, part := t.e.route(table, key)
	t.stampView(part)
	if node == t.e.w.Node.ID {
		return t.declareLocalErase(table, region, part, key)
	}
	// A remote erase is a write stage with the erase flag: Figure 5
	// acquisition (rows previously read under the RO scheme keep their expired
	// lease stamp in the state word, which an erase takes over like any other
	// writer), then the fused image check requires the row live.
	s, err := t.gatherRemote(table, key, node, region, part, true)
	if err != nil {
		return nil, err
	}
	if s == nil {
		panic(fmt.Sprintf("tx: Erase of table %d key %d, already write-staged by this transaction", table, key))
	}
	s.erase = true
	if err := t.stageOne(s); err != nil {
		return nil, err
	}
	return t.rIndex[refKey{table, key}].buf, nil
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
	off, err := e.rt.execEnsureEntry(e.w.Node, ensureEntryMsg{
		Region: region, Table: table, Part: part, Key: key})
	if err != nil {
		return err // kvs.ErrExists (key live) or kvs.ErrFull
	}
	o := e.w.Node.Ordered(region)
	incver := o.Arena().LoadWord(kvs.IncVerOffset(off))
	t.localIns = append(t.localIns, structOp{table: table, region: region, part: part,
		key: key, off: off, inc: kvs.Incarnation(incver), ver: kvs.Version(incver),
		val: append([]uint64(nil), val...)})
	return nil
}

// declareLocalErase resolves a live local row, snapshots its value, and
// records the flip-to-dead plus the deferred physical removal.
func (t *Tx) declareLocalErase(table, region, part int, key uint64) ([]uint64, error) {
	e := t.e
	e.charge(e.model().BTreeOpNS)
	o := e.w.Node.Ordered(region)
	off, ok := o.Lookup(key)
	if !ok {
		return nil, ErrNotFound
	}
	arena := o.Arena()
	vals := make([]uint64, 0, o.ValueWords())
	incver, live, stable := stableScanEntry(arena, off, o.ValueWords(), &vals)
	if !stable {
		return nil, t.remoteConflict()
	}
	if !live {
		return nil, ErrNotFound
	}
	t.localErase = append(t.localErase, structOp{table: table, region: region, part: part,
		key: key, off: off, inc: kvs.Incarnation(incver), ver: kvs.Version(incver),
		val: vals})
	t.removals = append(t.removals, removalOp{node: e.w.Node.ID, region: region,
		table: table, part: part, key: key,
		deadIncVer: kvs.PackIncVer(kvs.Incarnation(incver)+1, kvs.Version(incver)+1)})
	return vals, nil
}

// applyLocalStructural commits the local structural halves inside the HTM
// region: each staged insert/erase re-verifies its exact declare-time
// observation (key, incarnation|version, unlocked state — all enrolled in
// the read set) and flips the incarnation. Runs after validateScans (the
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
	// Retire the superseded version — the dead pre-insert slot or the live
	// pre-erase row — into the ring before the flip; sealChains publishes the
	// tail pair with the commit's uniform stamp.
	if depth := o.ChainDepth(); depth > 0 {
		t.retireLocalChain(htx, arena, op.off, o.ValueWords(), depth)
	}
	htx.Write(arena, kvs.IncVerOffset(op.off), kvs.PackIncVer(op.inc+1, op.ver+1))
	if insert {
		htx.WriteN(arena, kvs.ValueOffset(op.off), op.val)
	}
	if t.e.rt.C.Config().Durability || (op.part >= 0 && t.e.rt.C.ReplicationFactor() > 0) {
		t.walLocal = append(t.walLocal, walRec{
			node: t.e.w.Node.ID, table: op.region, off: op.off,
			version: op.ver + 1, inc: op.inc + 1,
			val:    append([]uint64(nil), op.val...),
			ltable: op.table, part: op.part, key: op.key,
		})
	}
}

// applyRemovals physically unlinks every committed erase's dead entry after
// all locks have dropped: directly for local shards, via verbs otherwise; a
// crashed host's removal parks for recovery like any post-commit effect.
// Under MVCC (ChainDepth > 0) the unlink is instead queued behind the
// snapshot floor — a snapshot read below the erase's commit stamp must still
// resolve the dead version from the chain — and drained opportunistically on
// every commit.
func (t *Tx) applyRemovals() {
	mvcc := t.e.rt.C.Config().MVCCDepth > 0
	for _, op := range t.removals {
		if mvcc {
			t.e.rt.queueRemoval(op, t.commitStamp)
		} else {
			t.e.applyRemoveDead(op)
		}
	}
	if mvcc {
		t.e.rt.drainRemovals(t.e)
	}
}

func (e *Executor) applyRemoveDead(op removalOp) {
	m := removeDeadMsg{Region: op.region, Table: op.table, Part: op.part, Key: op.key,
		DeadIncVer: op.deadIncVer}
	e.w.Obs.Inc(obs.EvRemoveDead)
	if op.node == e.w.Node.ID {
		e.rt.execRemoveDead(e.w.Node, m)
		e.charge(e.model().BTreeOpNS)
		return
	}
	for attempt := 0; ; attempt++ {
		_, err := e.w.QP.Call(op.node, clusterMsg(msgRemoveDead, m), 40, 8)
		if err == nil {
			return
		}
		if errors.Is(err, rdma.ErrNodeUnreachable) {
			e.rt.defer_(op.node, func(rt *Runtime) {
				rt.execRemoveDead(rt.C.Node(op.node), m)
			})
			return
		}
		e.faultBackoff(attempt)
	}
}
