package tx

import (
	"cmp"
	"slices"

	"drtm/internal/clock"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// runFallback executes the transaction on the software path (Section 6.2):
// the normal transaction with one thing swapped. Instead of an HTM region,
// EVERY record — local ones too — is protected by its Figure 5 lock or lease,
// taken in the global <table, key> order after everything the Start phase held
// was released. The order makes it deadlock-free, so an escalated attempt's
// take waits for a held record where any other attempt aborts on it. The
// declared records are restaged into the transaction's own staged set
// (restage, take), the body runs against their buffers — a declared row found
// missing reads as missing, as in the region — and the commit is the region
// path's, called with the held lock set where the region was: the same lease,
// view and scan checks, write-ahead log, replication and publish.
// Because local records are locked through the same state words, in-flight
// local HTM transactions abort on their state checks, preserving strict
// serializability.
func (t *Tx) runFallback(fn func(lc *Local) error) error {
	e := t.e
	sh := e.w.Obs
	sh.Inc(obs.EvFallback)
	t.usedFallback = true

	// What the aborted attempt left behind goes first: its writes to the
	// buffers of the transaction's own inserts, its captured local updates,
	// and its deferred inserts / deletes, which were
	// discarded with its region (the body re-declares them below).
	t.restoreWriteBufs()
	t.beginAttempt()

	// Lock in the global order and prefetch. This pass is the fallback's Start
	// phase, so it accrues to the lock-remote histogram.
	astart := int64(e.w.VClock.Now())
	recs := t.restage()
	t.remotes = recs[:0]
	var err error
	for i := 0; i < len(recs) && err == nil; i++ {
		err = t.take(recs[i])
	}
	t.vLock += int64(e.w.VClock.Now()) - astart
	if err != nil {
		// The staged set holds exactly what was acquired, in place at the
		// front of recs; the rest was never locked.
		e.putRecs(recs[len(t.remotes):])
		t.releaseLocks()
		return err
	}
	t.snapshotWriteBufs() // the values the commit retires as superseded
	durable := e.rt.C.Config().Durability
	if durable {
		t.logLockAhead()
	}

	lc := &t.lcScratch
	*lc = Local{t: t}
	bstart := int64(e.w.VClock.Now())
	err = fn(lc)
	t.vHTM += int64(e.w.VClock.Now()) - bstart
	if err != nil {
		t.lastAbort = obs.CauseUser
		t.releaseLocks()
		return err
	}

	// The region's pre-XEND checks, before any in-place update (which no HTM
	// could roll back): the reads (readsHold), then the touched partitions' views — nothing
	// may publish under a stale ownership view — then the collected scans,
	// the fallback's phantom check.
	switch {
	case !t.readsHold():
		sh.Inc(obs.EvLeaseConfirmFail)
		t.lastAbort = obs.CauseLease
		return t.fail()
	case e.viewsMoved(t.views):
		t.lastAbort = obs.CauseRemote
		return t.fail()
	case !t.scansValid(nil):
		t.lastAbort = obs.CauseScan
		return t.fail()
	}
	if durable {
		t.logWAL(nil)
	}
	return t.publish()
}

// restage releases the Start phase's exclusive locks (to avoid deadlock,
// Section 6.2) and turns every declared record — the staged remote ones,
// their structs reused; the declared local ones; the local structural ops —
// into a staged record, sorted and merged by <table, key>. An insert carries
// the value it publishes in its buffer; a structural record carries, as its
// image, the incarnation|version it was declared against until take replaces
// it with what it fetched. Speculative records come back as plain reads and
// are leased: the fallback never reads optimistically — its in-place updates
// cannot be rolled back, so a stale read could not be retried away.
func (t *Tx) restage() []*remoteRec {
	e := t.e
	recs := t.remotes
	t.cops = t.cops[:0]
	for _, r := range recs {
		if r.locked() {
			t.unlock(r)
		}
		r.spec = false // take sets the rest of what the Start phase left in it
	}
	t.postWave(obs.StageRelease)
	clear(t.rIndex)
	local := func(table, region, part int, key uint64, ordered, write bool) *remoteRec {
		r := e.getRec()
		r.recHandle = recHandle{table: table, node: e.w.Node.ID, region: region, part: part,
			key: key, ordered: ordered}
		r.write = write
		recs = append(recs, r)
		return r
	}
	for _, l := range t.locals {
		local(l.table, l.region, l.part, l.key, e.rt.Meta(l.table).Kind == Ordered, l.write)
	}
	// The structural halves' dead entries already exist (EnsureDead at
	// declare), so the fallback locks and flips them like any other write.
	for _, op := range t.localIns {
		r := local(op.table, op.region, op.part, op.key, true, true)
		r.insert, r.buf = true, append(r.buf, op.val...)
	}
	for _, op := range t.localErase {
		r := local(op.table, op.region, op.part, op.key, true, true)
		r.erase, r.inc, r.version = true, op.inc, op.ver
	}
	t.localIns, t.localErase = t.localIns[:0], t.localErase[:0]

	slices.SortFunc(recs, func(a, b *remoteRec) int {
		return cmp.Or(cmp.Compare(a.table, b.table), cmp.Compare(a.key, b.key))
	})
	merged := recs[:0]
	for _, r := range recs {
		n := len(merged)
		if n == 0 || merged[n-1].table != r.table || merged[n-1].key != r.key {
			merged = append(merged, r)
			continue
		}
		// Declared twice (a read, then an erase of the row): one record.
		m := merged[n-1]
		m.write = m.write || r.write
		if r.insert {
			m.insert, m.buf, r.buf = true, r.buf, m.buf
		}
		if r.erase {
			m.erase, m.inc, m.version = true, r.inc, r.version
		}
		e.recFree = append(e.recFree, r)
	}
	return merged
}

// take acquires one restaged record and fetches it under that protection.
// Resolve: an insert whose dead entry vanished between declare and fallback
// (a scavenged abort leftover) re-runs EnsureDead. Acquire, through the Figure
// 5 state machine: remote records are always CASed one-sided; for local
// records a cheap CPU CAS is only legal under IBV_ATOMIC_GLOB (Section 6.3) —
// under HCA-level atomicity the local record must also be locked with RDMA
// CAS, which is what costs the paper ~15% fallback throughput. The record
// joins the staged set the moment its lock or lease is held, so releaseLocks
// frees exactly what was acquired; an escalated attempt waits for a held
// record (Executor.acquire). Fetch: the entry image, checked to be still this
// record with the liveness it expects (an insert holds a dead
// entry, everything else a live one) and, for an erase, at the very version
// the erase was declared against — what the erase took with it, its index
// rows, whatever the caller declared from the value Erase returned, was named
// by that version of the row.
func (t *Tx) take(r *remoteRec) error {
	e := t.e
	h := &r.recHandle
	found, err := e.resolve(h)
	if err == nil && !found {
		if !r.insert && !r.erase {
			// Nothing to lock: the body learns the row is missing.
			r.absent, r.write, r.spec = true, false, true
			t.remotes = append(t.remotes, r)
			t.rIndex[refKey{r.table, r.key}] = r
			return nil
		}
		if !r.insert {
			return ErrNotFound
		}
		if err = e.ensureEntry(h); err != nil && err != ErrNodeDown {
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
		// From now on: waits may have outlasted the lease the attempt began with.
		t.leaseEnd = e.w.Node.Clock.Read() + e.rt.C.Config().LeaseMicros
		a.arm(acqLease, 0, t.leaseEnd)
	}
	if a.waits = t.escalated; a.waits && !r.write && t.policy == PolicyAdaptive {
		e.w.Obs.Inc(obs.EvAdaptLease)
	}
	v, end, err := e.acquire(&a, h, e.rt.C.Fabric.Atomicity() == rdma.AtomicGLOB)
	if err != nil {
		return err
	}
	if v == acqConflict {
		e.w.Obs.Inc(obs.EvRemoteLockConflict)
		t.lastAbort = obs.CauseRemote
		return ErrRetry
	}
	r.leaseEnd = end
	t.remotes = append(t.remotes, r)
	t.rIndex[refKey{r.table, r.key}] = r

	vw := e.rt.Meta(r.table).ValueWords
	words, err := e.readEntry(h, vw)
	if err != nil {
		return err
	}
	declared := kvs.PackIncVer(r.inc, r.version)
	switch h.check(words, &r.recImage, vw, r.insert, false) {
	case imgNotFound:
		return ErrNotFound // the row was erased under a committed delete
	case imgStale:
		e.invalidate(h)
		fallthrough
	case imgExists:
		t.lastAbort = obs.CauseRemote
		return ErrRetry
	}
	if r.erase && kvs.PackIncVer(r.inc, r.version) != declared {
		// Deleted and re-created since the erase was declared (the locks were
		// dropped in between): restage against the row as it is now.
		t.lastAbort = obs.CauseRemote
		return ErrRetry
	}
	r.dirty = r.insert
	return nil
}

// readsHold is the fallback's confirmation of its leases, leasesValid's
// without a region. A lease that ran out while the attempt waited further on
// is re-validated by header instead: the record was read under it, so an
// unchanged version and incarnation and no lock vouch for the value now, as
// for a speculative read's at a read-only confirmation. A row take found
// missing holds no lock or lease, and the records after it in the global order
// were taken later: a transaction could insert it, then write one of those
// and commit before this one took it, which would see that write but not the
// insert. So the key is resolved again, and found now it fails the attempt.
// Here every write is locked and every other read confirmed, so the absence
// holds at this one instant, where the transaction serializes.
func (t *Tx) readsHold() bool {
	e := t.e
	now, delta := e.w.Node.Clock.Read(), e.rt.C.Delta()
	for _, r := range t.remotes {
		switch {
		case r.absent:
			h := r.recHandle
			if found, err := e.resolve(&h); found || err != nil {
				return false
			}
		case r.write:
		case clock.Valid(r.leaseEnd, now, delta):
			e.w.Obs.Inc(obs.EvLeaseConfirm)
		default:
			words, err := e.readEntry(&r.recHandle, len(r.buf))
			if err != nil || r.moved(words[kvs.EntryKeyWord], words[kvs.EntryIncVerWord], words[kvs.EntryStateWord]) {
				return false
			}
		}
	}
	return true
}
