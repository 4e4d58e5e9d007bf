package tx

import (
	"errors"

	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// RO is a read-only transaction (Section 4.5 / Figure 8). Read-only
// transactions have read sets far beyond HTM capacity, so they never enter
// an HTM region: every record (local or remote) is locked in shared mode
// with one common lease end time and prefetched; a final confirmation that
// the common end time is still valid guarantees that no conflicting writer
// was in flight anywhere. That is PolicyLease, and what any attempt gets after
// escalateAfter failed ones — waiting for a writer's lock instead of losing to
// it, and re-validating at the confirmation, as a speculative read's, the
// header of a record whose lease it outwaited meanwhile; a record routed to
// the speculative arm — local or remote, hash or ordered — is fetched
// unprotected instead and its header re-validated by the same confirmation,
// leaving no lease for the next writer to wait out.
//
// The executor recycles the shell, its index, its staged records and their
// value buffers across attempts and transactions: a value handed to the body —
// by Read, ReadAtLocal or in a Scan's rows — is scratch of the attempt, as
// Local.Read's is, and the executor's next transaction reuses it. A body that
// keeps a value copies it.
type RO struct {
	// readSet's scans are validated leaselessly, like the speculative arm —
	// sound because a read-only transaction writes nothing, so unchanged words
	// at confirm make that instant the serialization point.
	readSet
	end uint64 // the transaction's common lease end time

	// cause is why the attempt must retry: it tells the backoff whether
	// waiting can help.
	cause obs.AbortCause

	// policy is the effective read policy (see policy.go). PolicyExclusive
	// behaves as PolicyLease here: read-only transactions never take write
	// locks.
	policy ReadPolicy

	waits bool // an escalated attempt (escalateAfter or later): reads leased, waiting out writers' locks; scanned entries pinned (pinScan)
}

// ExecRO runs a read-only transaction to completion, retrying lost attempts
// and escalating from the escalateAfter-th on. It returns nil, ErrNotFound,
// ErrNodeDown (as Exec) or the body's own error.
func (e *Executor) ExecRO(build func(ro *RO) error) error {
	ro := e.freeRO
	e.freeRO = nil // a nested ExecRO builds a shell of its own
	if ro == nil {
		ro = &RO{readSet: readSet{e: e, index: make(map[refKey]*remoteRec)}}
	}
	defer func() {
		ro.release()
		e.freeRO = ro
	}()
	for attempt := 0; ; attempt++ {
		ro.release()
		ro.end = e.w.Node.Clock.Read() + e.rt.C.Config().ROLeaseMicros
		ro.policy = e.resolvePolicy()
		if attempt >= escalateAfter {
			ro.policy, ro.waits = PolicyLease, true
			e.w.Obs.Inc(obs.EvTxEscalate)
		}
		err := build(ro)
		if err == nil && ro.confirm() {
			e.w.Obs.Inc(obs.EvROCommit)
			return nil
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
}

// release empties the shell after an attempt (readSet.release).
func (ro *RO) release() {
	ro.readSet.release()
	ro.cause = obs.CauseNone
	ro.waits = false
}

// lockConflict fails the attempt on a record held by a conflicting writer.
func (ro *RO) lockConflict() error {
	ro.e.w.Obs.Inc(obs.EvRemoteLockConflict)
	ro.cause = obs.CauseRemote
	return ErrRetry
}

// confirm is the COMMIT step of Figure 8: validate at this instant — every
// lease against a fresh softtime read, every speculative record's header and
// every scan — which all passing makes the transaction's serialization point;
// or nothing at all, for a single record (single).
func (ro *RO) confirm() bool {
	var code uint8
	switch {
	case !ro.single():
		code, _ = ro.validate(nil, ro.waits)
	case ro.viewsMoved():
		code = abortCodeView
	default:
		ro.e.w.Obs.Inc(obs.EvROSingle)
	}
	if code != 0 {
		// A host that stayed unreachable blames no record: the attempt
		// retries, and its fetch pass surfaces ErrNodeDown if the host is gone.
		ro.cause = causeOf(code)
	}
	return code == 0
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

// Scan performs a range read of ordered table rows with keys in [lo, hi]
// ascending, up to limit rows, collected leaselessly and re-validated at
// confirm (the scan-heavy RO arm the `scan` experiment measures against
// per-key leases). Same co-location contract, and the same lifetime of the
// rows, as Tx.Scan.
func (ro *RO) Scan(table int, lo, hi uint64, limit int) ([]ScanRow, error) {
	rows, rec, busy, err := ro.scan(table, lo, hi, limit)
	switch {
	case err != nil:
		return nil, err
	case busy:
		return nil, ro.lockConflict()
	case ro.waits && rec != nil:
		return rows, ro.pinScan(rec)
	}
	return rows, nil
}

// pinScan leases every entry an escalated attempt's scan collected, dead ones
// included. The scan stays optimistic — confirm decides — and the leases
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
// time and returns the lease's end; a conflicting writer fails the attempt —
// an escalated one waits for it, and wants its lease to last from then on.
func (ro *RO) lease(h *recHandle) (end uint64, err error) {
	e := ro.e
	if ro.waits {
		ro.end = e.w.Node.Clock.Read() + e.rt.C.Config().ROLeaseMicros
	}
	var a acquirer
	a.arm(acqLease, 0, ro.end)
	a.waits = ro.waits
	v, end, err := e.acquire(&a, h, true)
	if err == nil && v == acqConflict {
		err = ro.lockConflict()
	}
	return end, err
}

// Read fetches a record by key under the arm its route picks — a shared lease,
// or nothing. The value is the attempt's scratch (see RO).
func (ro *RO) Read(table int, key uint64) ([]uint64, error) {
	if r, ok := ro.index[refKey{table, key}]; ok {
		return r.buf, nil
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
// the reply. Every image takes the same verdict, judge (the slot could have
// been recycled since the resolution); confirm re-validates a speculative
// record's header.
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
			words, err := e.readEntry(h, vw)
			if err != nil {
				return err
			}
			if v := e.judge(h, words, &r.recImage, vw, false, true); v != imgStale {
				return ro.judged(v)
			}
			// judge dropped the frame: the host's tree says where the key is now.
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
		if words, err = e.readEntry(h, vw); err != nil {
			return err
		}
	}
	v := e.judge(h, words, &r.recImage, vw, false, r.spec)
	if shipped && v == imgOK {
		cache.SetLoc(h.key, h.off)
	}
	return ro.judged(v)
}

// judged turns the verdict on a fetched image into the fetch's result.
func (ro *RO) judged(v imgVerdict) error {
	switch v {
	case imgStale:
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
