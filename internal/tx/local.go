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
// cost. r.region is the storage region the record was declared under: the
// table itself, or a replica region when this node was promoted to own the
// partition (hot failover).
func (lc *Local) resolve(r *remoteRec) (*memory.Arena, memory.Offset, bool) {
	if r.arena != nil {
		return r.arena, r.off, true
	}
	e := lc.t.e
	var (
		arena *memory.Arena
		off   memory.Offset
		ok    bool
	)
	if r.ordered {
		var o *kvs.Ordered
		o, off, ok = e.lookupOrdered(r.region, r.key)
		arena = o.Arena()
	} else {
		e.charge(e.model().HashProbeNS)
		tbl := e.w.Node.Unordered(r.region)
		off, ok = tbl.LookupTx(lc.htx, r.key)
		arena = tbl.Arena()
	}
	if ok {
		r.arena, r.off = arena, off
	}
	return arena, off, ok
}

// Read returns the record's value, which must have been declared: a row
// erased by this transaction, or found missing by the fallback, is not there;
// a staged record's value, or a staged insert's, is its buffer; a local row is
// read inside the HTM region. The slice belongs to the transaction — a buffer,
// or scratch of this run of the body — and is invalid once the body returns:
// copy what must outlive it.
func (lc *Local) Read(table int, key uint64) ([]uint64, error) {
	r, ok := lc.t.index[refKey{table, key}]
	switch {
	case !ok:
		panic(fmt.Sprintf("tx: undeclared access to table %d key %d", table, key))
	case r.erase || r.absent:
		return nil, ErrNotFound
	case !r.local || r.insert:
		return r.buf, nil
	}
	arena, off, ok := lc.resolve(r)
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
	if r.ordered && !kvs.Live(kvs.Incarnation(lc.htx.Read(arena, kvs.IncVerOffset(off)))) {
		return nil, ErrNotFound
	}
	// Leases are ignored by local reads: HTM protects read-read sharing.
	vw := lc.t.e.rt.Meta(table).ValueWords
	val := lc.t.attemptWords(vw)
	lc.htx.ReadN(arena, kvs.ValueOffset(off), val)
	lc.t.e.charge(lc.t.e.model().HTMPerReadNS * int64(vw+1))
	return val, nil
}

// Write replaces the record's value, which must have been declared for write.
// A staged record's or a staged insert's buffer takes it (a staged remote
// record is written back after commit); a local row is written through the HTM
// region with the Figure 6 checks. val is copied on every path and not
// retained: the caller may reuse it — a scratch array it owns — for its next
// write.
func (lc *Local) Write(table int, key uint64, val []uint64) error {
	r, ok := lc.t.index[refKey{table, key}]
	switch {
	case !ok || r.local && !r.write:
		panic(fmt.Sprintf("tx: undeclared write to table %d key %d", table, key))
	case r.absent:
		return ErrNotFound
	case !r.write:
		panic(fmt.Sprintf("tx: write to read-staged record table %d key %d", table, key))
	case r.erase:
		panic(fmt.Sprintf("tx: write to erased record table %d key %d", table, key))
	case !r.local || r.insert:
		lc.t.checkIndexKeys(table, key, r.buf, val)
		copy(r.buf, val)
		r.dirty = true
		return nil
	}
	arena, off, ok := lc.resolve(r)
	if !ok {
		return ErrNotFound
	}
	lc.t.claimLocal(lc.htx, arena, off, lc.now())
	incver := lc.htx.Read(arena, kvs.IncVerOffset(off))
	if r.ordered {
		if !kvs.Live(kvs.Incarnation(incver)) {
			return ErrNotFound
		}
		if len(lc.t.e.rt.indexesOf(table)) > 0 {
			old := lc.t.attemptWords(len(val))
			lc.htx.ReadN(arena, kvs.ValueOffset(off), old)
			lc.t.checkIndexKeys(table, key, old, val)
		}
	}
	// The record keeps what the write found and installs, as a staged one
	// does: its update() is what the install, the log, the redo record and
	// the hold read.
	r.inc, r.version = kvs.Incarnation(incver), kvs.Version(incver)
	r.buf = append(r.buf[:0], val...)
	r.dirty = true
	lc.htx.Write(arena, kvs.IncVerOffset(off), r.commitWord())
	lc.htx.WriteN(arena, kvs.ValueOffset(off), val)
	lc.t.e.charge(lc.t.e.model().HTMPerWriteNS * int64(len(val)+2))
	return nil
}

// claimLocal is LOCAL_WRITE's rule for a local row's state word (Figure 6),
// which the region's writes and structural flips share: abort when the row is
// write-locked or covered by a lease unexpired at soft-time now; clear an
// expired lease — which saves a remote locker an RDMA CAS, and puts the state
// word in the HTM write set.
func (t *Tx) claimLocal(htx *htm.Txn, arena *memory.Arena, off memory.Offset, now uint64) {
	s := htx.Read(arena, kvs.StateOffset(off))
	if clock.IsWriteLocked(s) {
		htx.Abort(abortCodeLocked)
	}
	if s != clock.Init {
		if !clock.Expired(clock.LeaseEnd(s), now, t.e.rt.C.Delta()) {
			htx.Abort(abortCodeLocked)
		}
		t.e.w.Obs.Inc(obs.EvLeaseExpire)
		htx.Write(arena, kvs.StateOffset(off), clock.Init)
	}
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
