package tx

import (
	"fmt"
	"sort"

	"drtm/internal/clock"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// fbRec is a record under fallback protection: a staged record (for an
// insert, the buffer carries the value to publish from the start) plus the
// version-chain state captured at fetch under our lock (write records of
// chained tables): the store's chain depth and a pristine copy of the
// pre-commit value (the body mutates buf in place).
type fbRec struct {
	remoteRec
	depth   int
	prevVal []uint64
	// declared is the incarnation|version an erase observed when it was
	// declared. What the erase took with it — its index rows, whatever the
	// caller declared from the value Erase returned — was named by that
	// version of the row, so the fallback may only flip that same version.
	declared uint64
}

// fallbackCtx carries the state of a fallback execution.
type fallbackCtx struct {
	t     *Tx
	recs  []*fbRec
	index map[refKey]*fbRec
}

// runFallback executes the transaction body on the software path
// (Section 6.2): release everything, re-acquire protocol locks for ALL
// records — local ones included — in the global <table, key> order, run the
// body against private buffers, confirm leases, then publish and unlock.
// Because local records are locked through the same state words, in-flight
// local HTM transactions abort on their state checks, preserving strict
// serializability.
func (t *Tx) runFallback(fn func(lc *Local) error) error {
	rt := t.e.rt
	sh := t.e.w.Obs
	sh.Inc(obs.EvFallback)
	t.usedFallback = true

	// To avoid deadlock, first release all owned remote locks (Section 6.2).
	// The staging index must go too: in fallback mode every access routes
	// through the fallback record set, not the Start-phase buffers.
	prevRemotes := t.remotes
	for _, r := range prevRemotes {
		if r.write {
			t.unlockRemote(r)
		}
	}
	t.remotes = nil
	clear(t.rIndex)

	// Note: speculative records arrive here with write=false and are
	// re-acquired below as leases. The fallback path never reads
	// optimistically — its in-place updates cannot be rolled back, so a
	// stale read could not be retried away.
	fb := &fallbackCtx{t: t, index: make(map[refKey]*fbRec)}
	for _, r := range prevRemotes {
		nr := &fbRec{remoteRec: remoteRec{recHandle: r.recHandle, write: r.write,
			insert: r.insert, erase: r.erase}, declared: kvs.PackIncVer(r.inc, r.version)}
		if r.insert {
			nr.buf = append([]uint64(nil), r.buf...)
		}
		fb.add(nr)
	}
	t.e.putRecs(prevRemotes)
	me := t.e.w.Node.ID
	for _, l := range t.locals {
		fb.add(&fbRec{remoteRec: remoteRec{recHandle: recHandle{table: l.table, node: me,
			region: l.region, part: l.part, key: l.key,
			ordered: rt.Meta(l.table).Kind == Ordered}, write: l.write}})
	}
	// Structural halves staged for the HTM path convert to fallback insert /
	// erase records: the dead entries already exist (EnsureDead at declare),
	// so the fallback locks and flips them like any other write.
	structural := func(op *structOp) *fbRec {
		return &fbRec{remoteRec: remoteRec{recHandle: recHandle{table: op.table, node: me,
			region: op.region, part: op.part, key: op.key, ordered: true}, write: true}}
	}
	for i := range t.localIns {
		r := structural(&t.localIns[i])
		r.insert, r.buf = true, append([]uint64(nil), t.localIns[i].val...)
		fb.add(r)
	}
	for i := range t.localErase {
		r := structural(&t.localErase[i])
		r.erase, r.declared = true, kvs.PackIncVer(t.localErase[i].inc, t.localErase[i].ver)
		fb.add(r)
	}
	sort.Slice(fb.recs, func(i, j int) bool {
		if fb.recs[i].table != fb.recs[j].table {
			return fb.recs[i].table < fb.recs[j].table
		}
		return fb.recs[i].key < fb.recs[j].key
	})

	// Acquire locks in the global order and prefetch values. This re-lock +
	// prefetch pass is the fallback's Start phase, so it accrues to the
	// lock-remote histogram.
	astart := int64(t.e.w.VClock.Now())
	for i, r := range fb.recs {
		if err := fb.acquire(r); err != nil {
			fb.release(i)
			t.finished = true
			t.vLock += int64(t.e.w.VClock.Now()) - astart
			if err == ErrNotFound || err == ErrNodeDown {
				return err
			}
			return ErrRetry
		}
	}
	for _, r := range fb.recs {
		if err := fb.fetch(r); err != nil {
			fb.release(len(fb.recs))
			t.finished = true
			t.vLock += int64(t.e.w.VClock.Now()) - astart
			return err
		}
	}
	t.vLock += int64(t.e.w.VClock.Now()) - astart

	// The aborted HTM attempt's deferred inserts/deletes were discarded with
	// its region; the body re-declares them below.
	t.deferred = t.deferred[:0]
	lc := &Local{t: t, fallback: fb}
	bstart := int64(t.e.w.VClock.Now())
	err := fn(lc)
	t.vHTM += int64(t.e.w.VClock.Now()) - bstart
	if err != nil {
		fb.release(len(fb.recs))
		t.finished = true
		t.lastAbort = obs.CauseUser
		return err
	}

	// Confirm leases before any in-place update: fallback updates cannot be
	// rolled back by HTM.
	now := t.e.w.Node.Clock.Read()
	delta := rt.C.Delta()
	for _, r := range fb.recs {
		if r.write {
			continue
		}
		if !clock.Valid(r.leaseEnd, now, delta) {
			fb.release(len(fb.recs))
			t.finished = true
			sh.Inc(obs.EvLeaseConfirmFail)
			t.lastAbort = obs.CauseLease
			return ErrRetry
		}
		sh.Inc(obs.EvLeaseConfirm)
	}

	// Confirm no touched partition's view changed since staging (the
	// fallback's analogue of confirmViews): the in-place updates below must
	// not publish under a stale ownership view.
	for part, w := range t.views {
		if rt.C.View(part) != w {
			fb.release(len(fb.recs))
			t.finished = true
			sh.Inc(obs.EvViewAbort)
			t.lastAbort = obs.CauseRemote
			return ErrRetry
		}
	}

	// Re-validate collected range scans (stamps + row headers) while every
	// declared record is locked — the fallback's phantom check.
	if !t.fbValidateScans(fb) {
		fb.release(len(fb.recs))
		t.finished = true
		t.lastAbort = obs.CauseScan
		return ErrRetry
	}

	// Seal the commit's uniform chain stamp before replication and publish
	// consume it (same rule as sealChains on the HTM path: one stamp per
	// commit, above every written entry's previous tail stamp).
	t.sealFallbackChains(fb)

	// Log ahead of in-place updates (Section 6.2, last paragraph).
	if rt.C.Config().Durability {
		t.logFallbackWAL(fb)
	}

	// Commit-backup: append the write-set to every backup while the locks
	// are still held, before any in-place update becomes visible.
	if err := t.replicateFallback(fb); err != nil {
		fb.release(len(fb.recs))
		t.finished = true
		return err
	}

	// Publish writes and unlock: the fallback's Commit phase.
	cstart := int64(t.e.w.VClock.Now())
	fb.publish()
	t.vCommit += int64(t.e.w.VClock.Now()) - cstart
	t.applyDeferred()
	t.applyRemovals()
	t.finished = true
	return nil
}

func (fb *fallbackCtx) add(r *fbRec) {
	k := refKey{r.table, r.key}
	if prev, ok := fb.index[k]; ok {
		if r.write {
			prev.write = true
		}
		if r.insert {
			prev.insert, prev.buf = true, r.buf
		}
		if r.erase {
			prev.erase, prev.declared = true, r.declared
		}
		prev.ordered = prev.ordered || r.ordered
		return
	}
	fb.index[k] = r
	fb.recs = append(fb.recs, r)
}

// acquire resolves the record and takes its lock or lease through the
// Figure 5 state machine. Remote records are always CASed one-sided; for
// local records a cheap CPU CAS is only legal under IBV_ATOMIC_GLOB
// (Section 6.3) — under HCA-level atomicity the local record must also be
// locked with RDMA CAS, which is what costs the paper ~15% fallback
// throughput. An insert record whose dead entry vanished between declare and
// fallback (a scavenged abort leftover) re-runs EnsureDead.
func (fb *fallbackCtx) acquire(r *fbRec) error {
	t := fb.t
	e := t.e
	found, err := e.resolve(&r.recHandle)
	if err == nil && !found {
		if !r.insert {
			return ErrNotFound
		}
		if err = e.ensureEntry(&r.recHandle); err != nil && err != ErrNodeDown {
			// Live again (ErrExists) or full: whole-txn retry resolves.
			t.lastAbort = obs.CauseRemote
			return ErrRetry
		}
	}
	if err != nil {
		return err
	}
	e.charge(e.model().FallbackLockNS)
	var a acquirer
	if r.write {
		a.arm(acqLock, uint8(e.w.Node.ID), 0)
	} else {
		a.arm(acqLease, 0, t.leaseEnd)
	}
	v, end, err := e.acquire(&a, &r.recHandle, e.rt.C.Fabric.Atomicity() == rdma.AtomicGLOB)
	if err != nil {
		return err
	}
	if v == acqConflict {
		e.w.Obs.Inc(obs.EvRemoteLockConflict)
		t.lastAbort = obs.CauseRemote
		return ErrRetry
	}
	r.leaseEnd = end
	return nil
}

// fetch reads the record's entry under the protection just acquired — the
// full image for write records of chained tables, whose tail stamp the
// publish-time chain retire needs — and checks it is still this record, with
// the liveness the record expects (insert records hold a dead entry,
// everything else a live one; an erase record, the very version its erase
// was declared against). The incarnation observed here is what publish flips.
func (fb *fallbackCtx) fetch(r *fbRec) error {
	t := fb.t
	vw := t.e.rt.Meta(r.table).ValueWords
	if r.write {
		r.depth = t.e.chainDepth(&r.recHandle)
	}
	words, err := t.e.readEntry(&r.recHandle, vw, r.depth)
	if err != nil {
		return err
	}
	switch r.check(words, &r.recImage, vw, r.insert, false) {
	case imgNotFound:
		return ErrNotFound // the row was erased under a committed delete
	case imgStale:
		t.e.invalidate(&r.recHandle)
		fallthrough
	case imgExists:
		t.lastAbort = obs.CauseRemote
		return ErrRetry
	}
	if r.erase && kvs.PackIncVer(r.inc, r.version) != r.declared {
		// Deleted and re-created since the erase was declared (the locks were
		// dropped in between): restage against the row as it is now.
		t.lastAbort = obs.CauseRemote
		return ErrRetry
	}
	if r.insert {
		r.dirty = true
	} else if r.depth > 0 {
		r.prevVal = append(r.prevVal[:0], r.buf...)
	}
	return nil
}

func (fb *fallbackCtx) arenaOf(r *fbRec) *memory.Arena {
	return fb.t.e.arenaAt(r.node, r.region)
}

func (fb *fallbackCtx) read(table int, key uint64) ([]uint64, error) {
	r, ok := fb.index[refKey{table, key}]
	if !ok || r.erase {
		return nil, ErrNotFound
	}
	return r.buf, nil
}

func (fb *fallbackCtx) write(table int, key uint64, val []uint64) error {
	r, ok := fb.index[refKey{table, key}]
	if !ok || !r.write {
		return ErrNotFound
	}
	if r.erase {
		panic(fmt.Sprintf("tx: write to erased record table %d key %d", table, key))
	}
	fb.t.checkIndexKeys(table, key, r.buf, val)
	copy(r.buf, val)
	r.dirty = true
	return nil
}

// sealFallbackChains computes the fallback commit's uniform chain stamp —
// above the bracket soft-time and every locked write record's previous tail
// stamp — before replicateFallback and publish consume it.
func (t *Tx) sealFallbackChains(fb *fallbackCtx) {
	s := t.stampBase
	for _, r := range fb.recs {
		if r.write && r.depth > 0 && r.prevTail >= s {
			s = r.prevTail + 1
		}
	}
	if s == 0 {
		s = 1
	}
	t.commitStamp = s
}

// publish applies dirty buffers in place and releases all exclusive locks.
// The unlock is carried by the same WRITE that updates version + state for
// single-line entries, value-first then unlock for larger ones. On chained
// tables each written entry's retire precedes its value/head writes in the
// tail-first order of layout.go: tail pair (dirty marker), retired slot,
// value, then head+state — each a synchronous mustWrite, so the ordering the
// one-READ snapshot protocol needs holds trivially.
func (fb *fallbackCtx) publish() {
	t := fb.t
	chain := func(r *fbRec, newIncVer, prevHead uint64, withVal bool) {
		if r.depth <= 0 {
			return
		}
		vw := len(r.buf)
		t.e.mustWrite(r.node, r.region, kvs.TailOffset(r.off, vw, r.depth),
			[]uint64{t.commitStamp, newIncVer})
		if r.prevTail == 0 {
			return
		}
		slot := []uint64{r.prevTail, prevHead}
		if withVal {
			slot = append(slot, r.prevVal...)
		}
		t.e.mustWrite(r.node, r.region,
			kvs.ChainSlotOffset(r.off, vw, kvs.ChainSlotIndex(r.version, r.depth)), slot)
		t.e.w.Obs.Inc(obs.EvChainRetire)
	}
	for _, r := range fb.recs {
		if !r.write {
			continue // leases expire on their own
		}
		arena := fb.arenaOf(r)
		inc := kvs.Incarnation(arena.LoadWord(kvs.IncVerOffset(r.off)))
		incverOff := kvs.IncVerOffset(r.off)
		if r.erase {
			// Flip to dead and unlock; the value stays for the dead entry
			// (physical removal is deferred until no snapshot can need it).
			deadIncVer := kvs.PackIncVer(inc+1, r.version+1)
			chain(r, deadIncVer, kvs.PackIncVer(inc, r.version), true)
			t.e.mustWrite(r.node, r.region, incverOff,
				[]uint64{deadIncVer, clock.Init})
			continue
		}
		if !r.dirty {
			t.e.mustUnlock(r.node, r.region, kvs.StateOffset(r.off))
			continue
		}
		newIncVer := kvs.PackIncVer(inc, r.version+1)
		if r.insert {
			newIncVer = kvs.PackIncVer(inc+1, r.version+1) // dead → live
		}
		// An insert retires the staged DEAD entry as a 2-word slot (no value):
		// snapshots older than the insert resolve the key to not-found.
		chain(r, newIncVer, kvs.PackIncVer(inc, r.version), !r.insert)
		span := 2 + len(r.buf)
		if memory.LineOf(incverOff) == memory.LineOf(incverOff+memory.Offset(span-1)) {
			words := make([]uint64, span)
			words[0] = newIncVer
			words[1] = clock.Init
			copy(words[2:], r.buf)
			t.e.mustWrite(r.node, r.region, incverOff, words)
		} else {
			t.e.mustWrite(r.node, r.region, kvs.ValueOffset(r.off), r.buf)
			t.e.mustWrite(r.node, r.region, incverOff, []uint64{newIncVer, clock.Init})
		}
	}
}

// release unlocks the first n acquired records without publishing (abort).
func (fb *fallbackCtx) release(n int) {
	for i := 0; i < n; i++ {
		r := fb.recs[i]
		if r.write {
			fb.t.e.mustUnlock(r.node, r.region, kvs.StateOffset(r.off))
		}
	}
}
