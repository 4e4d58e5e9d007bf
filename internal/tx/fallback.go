package tx

import (
	"cmp"
	"slices"

	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// runFallback executes the transaction on the software path (Section 6.2):
// the normal transaction with one thing swapped. Instead of an HTM region,
// EVERY record — local ones too — is protected by its Figure 5 lock or lease,
// taken in the global <table, key> order after everything the Start phase held
// was released: deadlock-free, so an escalated attempt's take waits for a held
// record where any other attempt aborts on it. Every declared record joins the
// transaction's own staged set (restage, take); the body runs against their
// buffers, a declared row found missing reading as missing, as in the region;
// and the commit is the region path's, with the held lock set where the region
// was: the same validate, commit record and publish. Local HTM transactions
// abort on the same state words, preserving strict serializability.
func (t *Tx) runFallback(fn func(lc *Local) error) error {
	e := t.e
	e.w.Obs.Inc(obs.EvFallback)
	t.usedFallback = true

	// What the aborted attempt left behind goes first: its writes to the
	// buffers of the transaction's own inserts, its local records' writes,
	// and its deferred inserts / deletes, which were
	// discarded with its region (the body re-declares them below).
	t.restoreWriteBufs()
	t.beginAttempt()

	// Lock in the global order and prefetch. This pass is the fallback's Start
	// phase, so it accrues to the lock-remote histogram.
	astart := int64(e.w.VClock.Now())
	recs := t.restage()
	t.recs = recs[:0]
	var err error
	for i := 0; i < len(recs) && err == nil; i++ {
		err = t.take(recs[i])
	}
	t.vLock += int64(e.w.VClock.Now()) - astart
	if err != nil {
		// The staged set holds exactly what was acquired, in place at the
		// front of recs; the rest was never locked.
		e.putRecs(recs[len(t.recs):])
		t.releaseLocks()
		return err
	}
	t.snapshotWriteBufs() // the values the commit retires as superseded
	if e.rt.C.Config().Durability {
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

	// The region's pre-XEND validation, before any in-place update (which no
	// HTM could roll back). The attempt may have waited for a record further
	// on, so a lease that ran out meanwhile is re-validated by its header; a
	// host validate cannot reach fails the attempt, which retries.
	if code, _ := t.validate(nil, true); code != 0 {
		t.lastAbort = causeOf(code)
		return t.fail()
	}
	t.logWAL(nil)
	return t.publish()
}

// restage releases the Start phase's exclusive locks (to avoid deadlock,
// Section 6.2) and returns every declared record — the staged remote ones and
// the local ones, which stop being the region's — sorted by <table, key>. Each
// key has one record since its first declaration: an insert carries the value
// it publishes in its buffer, an erase, as its image, the incarnation|version
// it was declared against until take replaces it with what it fetched.
// Speculative records come back as plain reads and are leased: the fallback
// never reads optimistically — its in-place updates cannot be rolled back, so
// a stale read could not be retried away.
func (t *Tx) restage() []*remoteRec {
	t.cops = t.cops[:0]
	for _, r := range t.recs {
		if r.locked() {
			t.unlock(r)
		}
		r.spec = false // take sets the rest of what the Start phase left in it
	}
	t.postWave(obs.StageRelease)
	clear(t.index)
	for _, r := range t.locals {
		r.local = false
	}
	recs := append(t.recs, t.locals...)
	t.locals = t.locals[:0]
	slices.SortFunc(recs, func(a, b *remoteRec) int {
		return cmp.Or(cmp.Compare(a.table, b.table), cmp.Compare(a.key, b.key))
	})
	return recs
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
			t.recs = append(t.recs, r)
			t.index[refKey{r.table, r.key}] = r
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
	t.recs = append(t.recs, r)
	t.index[refKey{r.table, r.key}] = r

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
