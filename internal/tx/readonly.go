package tx

import (
	"errors"

	"drtm/internal/clock"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// RO is a read-only transaction (Section 4.5 / Figure 8). Read-only
// transactions have read sets far beyond HTM capacity, so they never enter
// an HTM region: every record (local or remote) is locked in shared mode
// with one common lease end time and prefetched; a final confirmation that
// the common end time is still valid guarantees that no conflicting writer
// was in flight anywhere. That is PolicyLease, and what any attempt gets after
// escalateAfter failed ones; a record routed to the speculative arm — local or
// remote, hash or ordered — is fetched unprotected instead and its header
// re-validated by the same confirmation, leaving no lease for the next writer
// to wait out.
//
// The executor recycles the shell, its index, its staged records and their
// value buffers across attempts and transactions: a value handed to the body —
// by Read, ReadAtLocal or in a Scan's rows — is scratch of the attempt, as
// Local.Read's is, and the executor's next transaction reuses it. A body that
// keeps a value copies it.
type RO struct {
	e     *Executor
	end   uint64 // the transaction's common lease end time
	recs  []*remoteRec
	index map[refKey]*remoteRec

	// cause is why the attempt must retry, when a lock or a lease is the
	// reason: it tells the backoff that waiting can help.
	cause obs.AbortCause

	// views records the packed view word per touched partition (replication
	// only); confirm re-checks them so a failover mid-transaction fails the
	// confirmation instead of mixing views.
	views map[int]uint64

	// policy is the effective read policy (see policy.go). PolicyExclusive
	// behaves as PolicyLease here: read-only transactions never take write
	// locks.
	policy ReadPolicy

	// scans holds collected range scans; confirm re-validates their segment
	// stamps and row headers (leaseless, like the speculative arm — sound
	// because a read-only transaction writes nothing, so unchanged words at
	// confirm make that instant the serialization point).
	scans    []scanRec
	scanVals []uint64

	// mvcc marks this attempt as running the snapshot arm: every read
	// resolves against version chains at stamp snap and skips lease and
	// confirm entirely (see mvcc.go). Entered up front under PolicyMVCC, or
	// by the first wide Scan under PolicyAdaptive — never after a
	// confirm-wave read has been collected, so one attempt always has a
	// single serialization point (snap for MVCC attempts, the confirm
	// instant otherwise).
	mvcc      bool
	snap      uint64
	noMVCC    bool // a prior attempt's chain fallback poisons adaptive MVCC entry
	escalated bool // attempt escalateAfter or later: reads leased, scanned entries pinned (pinScan)
}

// ExecRO runs a read-only transaction to completion with retries.
func (e *Executor) ExecRO(build func(ro *RO) error) error {
	ro := e.freeRO
	e.freeRO = nil // a nested ExecRO builds a shell of its own
	if ro == nil {
		ro = &RO{e: e, index: make(map[refKey]*remoteRec)}
	}
	defer func() {
		ro.release()
		e.freeRO = ro
	}()
	// chainFellBack poisons the MVCC arm for the rest of this Exec once a
	// chain proved unresolvable (truncated below the snapshot, or a torn
	// image): re-reading the same chain would mostly re-truncate, so later
	// attempts run the confirm-wave scheme instead.
	chainFellBack := false
	e.wasted = 0 // not an earlier Exec's losses: a read-only transaction escalates by attempts
	for attempt := 0; attempt < e.rt.MaxAttempts; attempt++ {
		ro.release()
		ro.end = e.w.Node.Clock.Read() + e.rt.C.Config().ROLeaseMicros
		ro.policy = e.resolvePolicy()
		if attempt >= escalateAfter {
			ro.policy, ro.noMVCC, ro.escalated = PolicyLease, true, true
			e.w.Obs.Inc(obs.EvROEscalate)
		} else if ro.policy == PolicyMVCC {
			if chainFellBack || !ro.enterMVCC() {
				// Chains unavailable or already proven unresolvable: the
				// confirm-wave speculative arm is the MVCC arm's fallback.
				ro.policy = PolicySpeculative
			}
		} else if chainFellBack {
			ro.noMVCC = true // keep an adaptive Scan from re-entering MVCC
		}
		err := build(ro)
		if ro.mvcc {
			e.w.EndSnapshotRead()
		}
		if err == nil && ro.confirm() {
			e.w.Obs.Inc(obs.EvROCommit)
			return nil
		}
		if errors.Is(err, errMVCCFallback) {
			e.w.Obs.Inc(obs.EvMVCCFallback)
			chainFellBack = true
			err = ErrRetry
		}
		if err != nil && err != ErrRetry {
			if errors.Is(err, ErrNodeDown) {
				e.w.Obs.Inc(obs.EvNodeDownAbort)
			}
			return err
		}
		e.w.Obs.Inc(obs.EvRORetry)
		e.backoff(attempt, ro.cause)
	}
	return ErrRetry
}

// release empties the shell after an attempt: the staged records go back to
// the executor's pool with the value buffers the body was reading.
func (ro *RO) release() {
	ro.e.putRecs(ro.recs)
	ro.recs = ro.recs[:0]
	clear(ro.index)
	clear(ro.views)
	ro.scans, ro.scanVals = ro.scans[:0], ro.scanVals[:0]
	ro.cause = obs.CauseNone
	ro.mvcc, ro.snap, ro.noMVCC, ro.escalated = false, 0, false, false
}

// lockConflict fails the attempt on a record held by a conflicting writer.
func (ro *RO) lockConflict() error {
	ro.e.w.Obs.Inc(obs.EvRemoteLockConflict)
	ro.cause = obs.CauseRemote
	return ErrRetry
}

// moved reports whether a speculative record's entry header — the key word
// its slot holds now, its incarnation|version word and its state word — no
// longer vouches for the image fetched: another key took the slot, a write
// committed, or one is mid-commit.
func (r *remoteRec) moved(key, incver, state uint64) bool {
	return key != r.key || kvs.Version(incver) != r.version ||
		kvs.Incarnation(incver) != r.inc || clock.IsWriteLocked(state)
}

// confirm validates every lease against a fresh softtime read (the COMMIT
// step of Figure 8) and re-validates every speculative record's header: a
// local record's by loading it, the remote ones' in one doorbell-batched READ
// wave. All checks pass ⇒ all reads were valid at this instant, the
// transaction's serialization point.
func (ro *RO) confirm() bool {
	e := ro.e
	now := e.w.Node.Clock.Read()
	delta := e.rt.C.Delta()
	sh := e.w.Obs
	if e.viewsMoved(ro.views) {
		return false
	}
	if ro.mvcc {
		return true // every read resolved at the snapshot stamp
	}
	nlocal, nremote := 0, 0
	for _, r := range ro.recs {
		switch {
		case !r.spec:
			if !clock.Valid(r.leaseEnd, now, delta) {
				// A shared lease about to run out: the retry shares it again
				// until it has expired, so it waits.
				sh.Inc(obs.EvLeaseConfirmFail)
				ro.cause = obs.CauseLease
				return false
			}
			sh.Inc(obs.EvLeaseConfirm)
		case r.node == e.w.Node.ID:
			nlocal++
		default:
			nremote++
		}
	}
	if ro.single() {
		sh.Inc(obs.EvROSingle)
		return true
	}
	ok := true
	if nlocal+nremote > 0 {
		vstart := int64(e.w.VClock.Now())
		ok = (nlocal == 0 || ro.confirmLocal()) && (nremote == 0 || ro.confirmRemote())
		sh.Observe(obs.PhaseValidate, int64(e.w.VClock.Now())-vstart)
	}
	return ok && ro.confirmScans()
}

// single reports an attempt with nothing to confirm: exactly one record, read
// speculatively, no scan, its entry image in one cache line. The fetch's check
// rejected a write-locked or recycled image and a READ is atomic per line, so
// the image is a version some commit installed, whole, and that read's instant
// serializes the transaction (DESIGN.md, "Speculative read arm").
func (ro *RO) single() bool {
	if len(ro.recs) != 1 || len(ro.scans) != 0 || !ro.recs[0].spec {
		return false
	}
	r := ro.recs[0]
	return memory.LineOf(r.off) == memory.LineOf(r.off+memory.Offset(kvs.EntryValueWord+len(r.buf)-1))
}

// specFailed counts one failed header re-validation.
func (ro *RO) specFailed() {
	ro.e.w.Obs.Inc(obs.EvSpecValidateFail)
	ro.cause = obs.CauseSpec
}

// confirmLocal re-validates the speculative records of this node with plain
// loads of their header words: no verb and no CAS, and nothing is left in the
// state word for the next local HTM writer to abort on.
func (ro *RO) confirmLocal() bool {
	e := ro.e
	var hdr [3]uint64
	var arena *memory.Arena
	region := -1
	for _, r := range ro.recs {
		if !r.spec || r.node != e.w.Node.ID {
			continue
		}
		if r.region != region { // runs of one table's rows resolve it once
			arena, region = e.rt.arenaOf(r.node, r.region), r.region
		}
		// Key, incver and state share the entry's first line, so the seqlocked
		// read sees them as of one instant.
		arena.Read(hdr[:], r.off+kvs.EntryKeyWord)
		e.charge(int64(len(hdr)) * e.model().HTMPerReadNS)
		if r.moved(hdr[0], hdr[1], hdr[2]) {
			ro.specFailed()
			return false
		}
	}
	return true
}

// rereadHeaders re-READs, in one doorbell wave, the entry header of every
// speculative record of recs homed on another node — a read-only confirmation
// and a commit-time validation alike: `key ‖ incver ‖ state` for an ordered row
// (its slot can be recycled), `incver ‖ state` for a hash row. It returns the
// completions in record order (headerMoved reads Dst) and false when a host
// stayed unreachable.
func (e *Executor) rereadHeaders(recs []*remoteRec) ([]*rdma.WR, bool) {
	const hw = kvs.EntryStateWord + 1
	if cap(e.hdrBuf) < len(recs)*hw {
		e.hdrBuf = make([]uint64, len(recs)*hw)
	}
	sq := e.sendq(obs.StageValidate)
	for _, r := range recs {
		if !r.spec || r.node == e.w.Node.ID {
			continue
		}
		dst := e.hdrBuf[sq.Pending()*hw:][:hw]
		if r.ordered {
			sq.PostRead(r.node, r.region, r.off+kvs.EntryKeyWord, dst)
		} else {
			sq.PostRead(r.node, r.region, kvs.IncVerOffset(r.off), dst[:kvs.EntryHeaderWords])
		}
	}
	return e.pollReads(sq)
}

// headerMoved is moved over a header rereadHeaders fetched.
func (r *remoteRec) headerMoved(hdr []uint64) bool {
	if r.ordered {
		return r.moved(hdr[0], hdr[1], hdr[2])
	}
	return r.moved(r.key, hdr[0], hdr[1])
}

// confirmRemote re-READs the headers of the speculative records homed on
// other nodes in one doorbell-batched wave.
func (ro *RO) confirmRemote() bool {
	e := ro.e
	wrs, ok := e.rereadHeaders(ro.recs)
	if !ok {
		// Confirms nothing and blames no record: the attempt retries, and its
		// fetch pass surfaces ErrNodeDown if the host is genuinely gone.
		return false
	}
	i := 0
	for _, r := range ro.recs {
		if !r.spec || r.node == e.w.Node.ID {
			continue
		}
		if r.headerMoved(wrs[i].Dst) {
			ro.specFailed()
			return false
		}
		i++
	}
	return true
}

// confirmScans re-validates every collected range scan at the confirmation
// point: remote words are re-READ in one doorbell-batched wave, then stamps
// and row headers are compared (a read-only transaction holds no locks of its
// own).
func (ro *RO) confirmScans() bool {
	if len(ro.scans) == 0 || skipScanValidation {
		return true
	}
	if !ro.e.rereadScans(ro.scans) {
		return false
	}
	fails := ro.e.compareScans(ro.scans, (*memory.Arena).LoadWord, nil)
	if fails > 0 {
		ro.e.w.Obs.Inc(obs.EvScanValidateFail)
	}
	return fails == 0
}

// Scan performs a range read of ordered table rows with keys in [lo, hi]
// ascending, up to limit rows, collected leaselessly and re-validated at
// confirm (the scan-heavy RO arm the `scan` experiment measures against
// per-key leases). Same co-location contract, and the same lifetime of the
// rows, as Tx.Scan.
func (ro *RO) Scan(table int, lo, hi uint64, limit int) ([]ScanRow, error) {
	if hi < lo {
		return nil, nil
	}
	node, region, part := ro.e.scanRoute(table, lo, hi)
	ro.stampView(part)
	if ro.mvcc || ro.routeScanMVCC(lo, hi, limit) {
		return ro.mvccScan(table, node, region, lo, hi, limit)
	}
	sh := ro.e.w.Obs
	sstart := int64(ro.e.w.VClock.Now())
	var rec *scanRec
	ro.scans, rec = nextScan(ro.scans, table, node, region)
	out, busy, err := ro.e.scanRange(rec, lo, hi, limit, &ro.scanVals)
	if err != nil || busy {
		ro.scans = ro.scans[:len(ro.scans)-1]
		if err != nil {
			return nil, err
		}
		return nil, ro.lockConflict()
	}
	sh.Observe(obs.PhaseScan, int64(ro.e.w.VClock.Now())-sstart)
	sh.Inc(obs.EvScan)
	sh.Add(obs.EvScanRow, int64(len(out)))
	if ro.escalated {
		return out, ro.pinScan(rec)
	}
	return out, nil
}

// pinScan leases every entry an escalated attempt's scan collected, dead ones
// included. The scan stays optimistic — confirmScans decides — and the leases
// only make the range's writers wait (an update, an erase, an insert reviving
// a dead entry each need the entry's lock) until this attempt or the next,
// which shares them, confirms. An insert of a key the range never held gets by.
func (ro *RO) pinScan(sc *scanRec) error {
	for _, r := range sc.rows {
		h := recHandle{table: sc.table, node: sc.node, region: sc.region, off: r.off, key: r.key, ordered: true}
		if _, err := ro.lease(&h); err != nil {
			return err
		}
	}
	return nil
}

// lease takes a shared lease on the record up to the transaction's common end
// time and returns the lease's end; a conflicting writer fails the attempt.
func (ro *RO) lease(h *recHandle) (end uint64, err error) {
	var a acquirer
	a.arm(acqLease, 0, ro.end)
	v, end, err := ro.e.acquire(&a, h, true)
	if err == nil && v == acqConflict {
		err = ro.lockConflict()
	}
	return end, err
}

func (ro *RO) stampView(part int) { ro.views = ro.e.stampView(ro.views, part) }

// Read fetches a record by key under the arm its route picks — a shared lease,
// or nothing — or, on the MVCC arm, resolves it against its version chain at
// the snapshot stamp with one READ. The value is the attempt's scratch (see RO).
func (ro *RO) Read(table int, key uint64) ([]uint64, error) {
	if r, ok := ro.index[refKey{table, key}]; ok {
		return r.buf, nil
	}
	if ro.mvcc {
		return ro.mvccRead(table, key)
	}
	h := ro.e.handle(table, key)
	ro.stampView(h.part)
	r, err := ro.readHandle(h, true)
	if err != nil {
		return nil, err
	}
	ro.index[refKey{table, key}] = r
	return r.buf, nil
}

// ReadAtLocal leases and fetches a local ordered record found via a scan
// (whatever key the slot holds now: the caller named an offset, not a key).
func (ro *RO) ReadAtLocal(table int, off memory.Offset) ([]uint64, error) {
	n := ro.e.w.Node
	r, err := ro.readHandle(recHandle{table: table, node: n.ID, region: table, off: off, ordered: true,
		key: n.Ordered(table).Arena().LoadWord(off + kvs.EntryKeyWord)}, false)
	if err != nil {
		return nil, err
	}
	return r.buf, nil
}

// readHandle stages one record, located or to be resolved by key, in a pooled
// struct whose buffer takes the value the body reads.
func (ro *RO) readHandle(h recHandle, byKey bool) (*remoteRec, error) {
	r := ro.e.getRec()
	r.recHandle = h
	if err := ro.fetch(r, byKey); err != nil {
		ro.e.recFree = append(ro.e.recFree, r)
		return nil, err
	}
	ro.recs = append(ro.recs, r)
	return r, nil
}

// fetch takes the record: route (by key, before the location is known), resolve
// (byKey), then the arm — a shared lease through the Figure 5 state machine, by
// the cheap CPU CAS when the record is local, and one entry READ behind it (a
// plain copy of a local entry); or, speculatively, that READ alone, and for a
// remote ordered record not even that: its shipped lookup's reply is the entry
// as the host just read it. A lease's READ must postdate the lease and ignores
// the reply. Every image takes the same check (the slot could have been recycled
// since the resolution); confirm re-validates a speculative record's header.
//
// A speculative read of a remote ordered record asks the location cache first,
// the one consumer of an ordered region's frames: a stale hit costs it one READ,
// where every other path CASes or pins at the offset it is given. The shipped
// lookup alone says "not found", and its checked image fills the frame.
func (ro *RO) fetch(r *remoteRec, byKey bool) (err error) {
	e := ro.e
	h := &r.recHandle
	r.spec = e.routeRead(ro.policy)
	vw := e.rt.Meta(r.table).ValueWords
	shipped := byKey && r.spec && h.ordered && h.node != e.w.Node.ID
	var cache *kvs.LocationCache
	if shipped {
		cache = e.cacheFor(h.node, h.region)
		if h.off, h.cached = cache.Loc(e.w.Obs, h.key); h.cached {
			words, err := e.readEntry(h, vw, 0)
			if err != nil {
				return err
			}
			if v := r.check(words, &r.recImage, vw, false, true); v != imgStale {
				return ro.judged(r, v)
			}
			e.invalidate(h) // the frame; the host's tree says where the key is now
		}
	}
	if byKey {
		if found, err := e.resolve(h); err != nil {
			return err
		} else if !found {
			return ErrNotFound
		}
	}
	var words []uint64
	if shipped {
		words = e.image(kvs.EntryValueWord + vw) // resolve's shipOne left the reply here
		e.w.Obs.Inc(obs.EvShipImage)
	} else {
		if !r.spec {
			if r.leaseEnd, err = ro.lease(h); err != nil {
				return err
			}
		}
		if words, err = e.readEntry(h, vw, 0); err != nil {
			return err
		}
	}
	v := r.check(words, &r.recImage, vw, false, r.spec)
	if shipped && v == imgOK {
		cache.SetLoc(h.key, h.off)
	}
	return ro.judged(r, v)
}

// judged turns the verdict on a fetched image into the fetch's result.
func (ro *RO) judged(r *remoteRec, v imgVerdict) error {
	if r.spec && (v == imgOK || v == imgBusy) {
		ro.e.w.Obs.Inc(obs.EvSpecRead)
	}
	switch v {
	case imgStale:
		ro.e.invalidate(&r.recHandle)
		return ErrRetry
	case imgBusy:
		return ro.lockConflict()
	case imgNotFound:
		return ErrNotFound
	}
	return nil
}

// ScanLocal returns index entries of a local ordered table in [lo, hi]. The
// result is the executor's scratch, valid until its next ScanLocal (of any
// transaction).
func (ro *RO) ScanLocal(table int, lo, hi uint64, limit int) []KeyOff {
	return ro.e.scanLocal(table, lo, hi, limit, false)
}

// ScanLocalDesc is ScanLocal in descending order.
func (ro *RO) ScanLocalDesc(table int, lo, hi uint64, limit int) []KeyOff {
	return ro.e.scanLocal(table, lo, hi, limit, true)
}
