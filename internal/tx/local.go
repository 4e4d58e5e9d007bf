package tx

import (
	"fmt"

	"drtm/internal/clock"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// Local is the transaction body's view during the LocalTX phase. It serves
// reads and writes of local records through the HTM transaction (with the
// Figure 6 state-word checks) and of staged records through the
// transaction-private buffers filled during the Start phase. On the software
// fallback path (Section 6.2) there is no region — htx is nil — and every
// declared record, local ones included, is a staged record held under its
// protocol lock or lease.
type Local struct {
	t   *Tx
	htx *htm.Txn
}

// now returns the timestamp local operations use for lease checks,
// honoring the configured softtime strategy (Figure 11).
func (lc *Local) now() uint64 {
	cfg := lc.t.e.rt.C.Config()
	if cfg.Strategy != clock.StrategyReuseConfirm {
		// Figure 11(a)/(b): a transactional softtime read per operation —
		// exposed to timer-thread false aborts (frequency depends on the
		// deployment's update interval).
		return lc.t.e.w.Node.Clock.ReadTx(lc.htx)
	}
	// Figure 11(c): reuse the Start-phase softtime.
	return lc.t.startSoft
}

// resolve returns the declared local record's entry location in this node's
// shard — from the record's memo when this attempt has found it before (no
// lookup, no charge), else through the store's index at the store's lookup
// cost. l.region is the storage region the record was declared under: the
// table itself, or a replica region when this node was promoted to own the
// partition (hot failover).
func (lc *Local) resolve(l *localRec) (*memory.Arena, memory.Offset, bool) {
	if l.arena != nil {
		return l.arena, l.off, true
	}
	e := lc.t.e
	var (
		arena *memory.Arena
		off   memory.Offset
		ok    bool
	)
	if e.rt.Meta(l.table).Kind == Ordered {
		var o *kvs.Ordered
		o, off, ok = e.lookupOrdered(l.region, l.key)
		arena = o.Arena()
	} else {
		e.charge(e.model().HashProbeNS)
		tbl := e.w.Node.Unordered(l.region)
		off, ok = tbl.LookupTx(lc.htx, l.key)
		arena = tbl.Arena()
	}
	if ok {
		l.arena, l.off = arena, off
	}
	return arena, off, ok
}

// Read returns the record's value. Remote records must have been staged
// with Tx.R or Tx.W; local records must have been declared. The slice belongs
// to the transaction — a staged record's buffer, or scratch of this run of
// the body — and is invalid once the body returns: copy what must outlive it.
func (lc *Local) Read(table int, key uint64) ([]uint64, error) {
	k := refKey{table, key}
	if r, ok := lc.t.rIndex[k]; ok {
		if r.erase || r.absent {
			return nil, ErrNotFound
		}
		return r.buf, nil
	}
	// Rows this transaction structurally staged read their own effects.
	if op := findStructOp(lc.t.localErase, table, key); op != nil {
		return nil, ErrNotFound
	}
	if op := findStructOp(lc.t.localIns, table, key); op != nil {
		return op.val, nil
	}
	li, ok := lc.t.lIndex[k]
	if !ok {
		panic(fmt.Sprintf("tx: undeclared access to table %d key %d", table, key))
	}
	arena, off, ok := lc.resolve(&lc.t.locals[li])
	if !ok {
		return nil, ErrNotFound
	}
	if lc.t.e.rt.C.Config().Strategy != clock.StrategyReuseConfirm {
		_ = lc.now() // per-op softtime read (Figure 11(a)/(b) strategies)
	}
	// LOCAL_READ (Figure 6): the state word joins the HTM read set; if a
	// remote transaction locks the record later, this transaction aborts.
	s := lc.htx.Read(arena, kvs.StateOffset(off))
	if clock.IsWriteLocked(s) {
		lc.htx.Abort(abortCodeLocked)
	}
	// Ordered entries can be structurally present but dead (the staged half
	// of an insert, or a committed erase awaiting removal); the incarnation
	// word joins the read set, so a concurrent flip aborts this region.
	if lc.t.e.rt.Meta(table).Kind == Ordered &&
		!kvs.Live(kvs.Incarnation(lc.htx.Read(arena, kvs.IncVerOffset(off)))) {
		return nil, ErrNotFound
	}
	// Leases are ignored by local reads: HTM protects read-read sharing.
	vw := lc.t.e.rt.Meta(table).ValueWords
	val := lc.t.attemptWords(vw)
	lc.htx.ReadN(arena, kvs.ValueOffset(off), val)
	lc.t.e.charge(lc.t.e.model().HTMPerReadNS * int64(vw+1))
	return val, nil
}

// Write replaces the record's value. Staged remote writes update the
// private buffer (written back after commit); local writes go through the
// HTM region with the Figure 6 checks. val is copied on every path and not
// retained: the caller may reuse it — a scratch array it owns — for its next
// write.
func (lc *Local) Write(table int, key uint64, val []uint64) error {
	k := refKey{table, key}
	if r, ok := lc.t.rIndex[k]; ok {
		if r.absent {
			return ErrNotFound
		}
		if !r.write {
			panic(fmt.Sprintf("tx: write to read-staged record table %d key %d", table, key))
		}
		if r.erase {
			panic(fmt.Sprintf("tx: write to erased record table %d key %d", table, key))
		}
		lc.t.checkIndexKeys(table, key, r.buf, val)
		copy(r.buf, val)
		r.dirty = true
		return nil
	}
	if op := findStructOp(lc.t.localIns, table, key); op != nil {
		lc.t.checkIndexKeys(table, key, op.val, val)
		copy(op.val, val)
		return nil
	}
	if findStructOp(lc.t.localErase, table, key) != nil {
		panic(fmt.Sprintf("tx: write to erased record table %d key %d", table, key))
	}
	li, ok := lc.t.lIndex[k]
	if !ok || !lc.t.locals[li].write {
		panic(fmt.Sprintf("tx: undeclared write to table %d key %d", table, key))
	}
	l := &lc.t.locals[li]
	arena, off, ok := lc.resolve(l)
	if !ok {
		return ErrNotFound
	}
	if lc.t.e.rt.C.Config().Strategy != clock.StrategyReuseConfirm {
		_ = lc.now() // per-op softtime read (Figure 11(a)/(b) strategies)
	}
	// LOCAL_WRITE (Figure 6): abort when exclusively locked or covered by
	// an unexpired lease; actively clear an expired lease (the
	// optimization that saves remote lockers an extra RDMA CAS — with the
	// side effect of adding the state to the HTM write set).
	s := lc.htx.Read(arena, kvs.StateOffset(off))
	if clock.IsWriteLocked(s) {
		lc.htx.Abort(abortCodeLocked)
	}
	if s != clock.Init {
		if !clock.Expired(clock.LeaseEnd(s), lc.now(), lc.t.e.rt.C.Delta()) {
			lc.htx.Abort(abortCodeLocked)
		}
		lc.t.e.w.Obs.Inc(obs.EvLeaseExpire)
		lc.htx.Write(arena, kvs.StateOffset(off), clock.Init)
	}
	incver := lc.htx.Read(arena, kvs.IncVerOffset(off))
	ordered := lc.t.e.rt.Meta(table).Kind == Ordered
	if ordered {
		if !kvs.Live(kvs.Incarnation(incver)) {
			return ErrNotFound
		}
		if len(lc.t.e.rt.indexesOf(table)) > 0 {
			old := lc.t.attemptWords(len(val))
			lc.htx.ReadN(arena, kvs.ValueOffset(off), old)
			lc.t.checkIndexKeys(table, key, old, val)
		}
	}
	newVer := kvs.Version(incver) + 1
	lc.htx.Write(arena, kvs.IncVerOffset(off), kvs.PackIncVer(kvs.Incarnation(incver), newVer))
	lc.htx.WriteN(arena, kvs.ValueOffset(off), val)
	lc.t.e.charge(lc.t.e.model().HTMPerWriteNS * int64(len(val)+2))

	// Captured for the write-ahead log (durability) and for the redo records
	// shipped to the partition's backups (replication); the storage region —
	// not the logical table — addresses the copy this write landed in.
	if lc.t.e.rt.C.Config().Durability || (l.part >= 0 && lc.t.e.rt.C.ReplicationFactor() > 0) {
		var inc uint32
		if ordered {
			inc = kvs.Incarnation(incver)
		}
		own := lc.t.attemptWords(len(val))
		copy(own, val)
		lc.t.walLocal = append(lc.t.walLocal, walRec{
			node: lc.t.e.w.Node.ID, table: l.region, off: off,
			version: newVer, inc: inc, val: own,
			ltable: table, part: l.part, key: key,
		})
	}
	return nil
}

// findStructOp locates this transaction's staged structural op for a key.
func findStructOp(ops []structOp, table int, key uint64) *structOp {
	for i := range ops {
		if ops[i].table == table && ops[i].key == key {
			return &ops[i]
		}
	}
	return nil
}

// checkIndexKeys enforces the index-maintenance contract: a plain Write may
// not change any declared index's key for the row — such updates must go
// through Erase + WInsert so the index rows move inside the same commit.
func (t *Tx) checkIndexKeys(table int, key uint64, old, val []uint64) {
	for _, spec := range t.e.rt.indexesOf(table) {
		if spec.Key(key, old) != spec.Key(key, val) {
			panic(fmt.Sprintf("tx: Write changes index table %d key for base table %d key %d (use Erase + WInsert)",
				spec.Table, table, key))
		}
	}
}

// Insert schedules a record insertion, applied right after the transaction
// commits (local stores directly, remote stores shipped over verbs as in
// footnote 5 / Section 6.5).
func (lc *Local) Insert(table int, key uint64, val []uint64) {
	own := lc.t.attemptWords(len(val))
	copy(own, val)
	lc.t.deferred = append(lc.t.deferred, deferredOp{insert: true, table: table,
		key: key, val: own})
}

// Delete schedules a record deletion, applied right after commit.
func (lc *Local) Delete(table int, key uint64) {
	lc.t.deferred = append(lc.t.deferred, deferredOp{insert: false, table: table, key: key})
}

// KeyOff is a scan result: a key and its entry offset.
type KeyOff struct {
	Key uint64
	Off memory.Offset
}

// ScanLocal returns up to limit index entries of a local ordered table in
// [lo, hi] ascending (limit <= 0 means unbounded). The index itself is
// latched, not HTM-tracked, and the result carries no phantom protection —
// use Tx.Scan (declared before Execute) for validated transactional range
// reads; ScanLocal remains for non-transactional walks over entry offsets.
// The result is the executor's scratch, valid until its next ScanLocal (of
// any transaction).
func (lc *Local) ScanLocal(table int, lo, hi uint64, limit int) []KeyOff {
	return lc.t.e.scanLocal(table, lo, hi, limit, false)
}

// ScanLocalDesc is ScanLocal in descending order.
func (lc *Local) ScanLocalDesc(table int, lo, hi uint64, limit int) []KeyOff {
	return lc.t.e.scanLocal(table, lo, hi, limit, true)
}

// scanLocal walks this node's shard of an ordered table over [lo, hi], in
// either direction, for up to limit entries (limit <= 0 means unbounded). The
// result is backed by e.scanOut: valid until the executor's next scanLocal.
func (e *Executor) scanLocal(table int, lo, hi uint64, limit int, desc bool) []KeyOff {
	o := e.w.Node.Ordered(table)
	out := e.scanOut[:0]
	collect := func(k uint64, off memory.Offset) bool {
		out = append(out, KeyOff{k, off})
		return limit <= 0 || len(out) < limit
	}
	var via kvs.IndexPath
	if desc {
		via = o.ScanDescAt(e.finger(table), lo, hi, collect)
	} else {
		via = o.ScanAt(e.finger(table), lo, hi, collect)
	}
	e.chargeIndexOp(via)
	e.scanOut = out
	return out
}
