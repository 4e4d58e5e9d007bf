package tx

import (
	"errors"
	"fmt"

	"drtm/internal/clock"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// RO is a read-only transaction (Section 4.5 / Figure 8). Read-only
// transactions have read sets far beyond HTM capacity, so they never enter
// an HTM region: every record (local or remote) is locked in shared mode
// with one common lease end time and prefetched; a final confirmation that
// the common end time is still valid guarantees that no conflicting writer
// was in flight anywhere — one lightweight check instead of two-round
// execution.
type RO struct {
	e     *Executor
	end   uint64 // the transaction's common lease end time
	recs  []*remoteRec
	index map[refKey]*remoteRec

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
	mvcc   bool
	snap   uint64
	noMVCC bool // a prior attempt's chain fallback poisons adaptive MVCC entry
}

// ExecRO runs a read-only transaction to completion with retries.
func (e *Executor) ExecRO(build func(ro *RO) error) error {
	// chainFellBack poisons the MVCC arm for the rest of this Exec once a
	// chain proved unresolvable (truncated below the snapshot, or a torn
	// image): re-reading the same chain would mostly re-truncate, so later
	// attempts run the confirm-wave scheme instead.
	chainFellBack := false
	for attempt := 0; attempt < e.rt.MaxAttempts; attempt++ {
		ro := &RO{
			e:      e,
			end:    e.w.Node.Clock.Read() + e.rt.C.Config().ROLeaseMicros,
			index:  make(map[refKey]*remoteRec),
			policy: e.resolvePolicy(),
		}
		if ro.policy == PolicyMVCC {
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
		e.backoff(attempt)
	}
	return ErrRetry
}

// confirm validates every lease against a fresh softtime read (the COMMIT
// step of Figure 8) and re-validates every speculative record's header in
// one doorbell-batched READ wave. Both checks pass ⇒ all reads were valid
// at this instant, the transaction's serialization point.
func (ro *RO) confirm() bool {
	now := ro.e.w.Node.Clock.Read()
	delta := ro.e.rt.C.Delta()
	sh := ro.e.w.Obs
	for part, w := range ro.views {
		if ro.e.rt.C.View(part) != w {
			sh.Inc(obs.EvViewAbort)
			return false
		}
	}
	nspec := 0
	for _, r := range ro.recs {
		if r.spec {
			nspec++
			continue
		}
		if !clock.Valid(r.leaseEnd, now, delta) {
			sh.Inc(obs.EvLeaseConfirmFail)
			return false
		}
		sh.Inc(obs.EvLeaseConfirm)
	}
	if nspec == 0 {
		return ro.confirmScans()
	}
	e := ro.e
	vstart := int64(e.w.VClock.Now())
	// Three words per record: ordered entries re-read key+incver+state
	// (slot-recycle check), unordered ones their 2-word header.
	if cap(e.hdrBuf) < nspec*3 {
		e.hdrBuf = make([]uint64, nspec*3)
	}
	sq := e.sendq()
	wrs := e.activeWR[:0]
	specs := make([]*remoteRec, 0, nspec)
	for _, r := range ro.recs {
		if !r.spec {
			continue
		}
		i := len(specs)
		if r.ordered {
			wrs = append(wrs, sq.PostRead(r.node, r.region, r.off+kvs.EntryKeyWord,
				e.hdrBuf[i*3:i*3+3]))
		} else {
			wrs = append(wrs, sq.PostRead(r.node, r.region, kvs.IncVerOffset(r.off),
				e.hdrBuf[i*3:i*3+kvs.EntryHeaderWords]))
		}
		specs = append(specs, r)
	}
	sq.Poll()
	ok := true
	for i, wr := range wrs {
		r := specs[i]
		if wr.Err != nil {
			// Treat a verb fault as a failed confirmation: the retry's fetch
			// pass surfaces ErrNodeDown if the host is genuinely gone.
			ok = false
			break
		}
		hdr := wr.Dst
		var incver, state uint64
		stale := false
		if r.ordered {
			incver, state = hdr[1], hdr[2]
			stale = hdr[0] != r.key
		} else {
			incver, state = hdr[0], hdr[1]
		}
		if stale || kvs.Version(incver) != r.version || kvs.Incarnation(incver) != r.inc ||
			clock.IsWriteLocked(state) {
			sh.Inc(obs.EvSpecValidateFail)
			e.feedConflict(&r.recHandle, 1)
			ok = false
			break
		}
	}
	e.activeWR = wrs[:0]
	sh.Observe(obs.PhaseValidate, int64(e.w.VClock.Now())-vstart)
	return ok && ro.confirmScans()
}

// confirmScans re-validates every collected range scan at the confirmation
// point: remote words are re-READ in one doorbell-batched wave, then stamps
// and row headers are compared (a read-only transaction holds no locks of its
// own). A failure heats the failed scan's range.
func (ro *RO) confirmScans() bool {
	if len(ro.scans) == 0 || skipScanValidation {
		return true
	}
	if !ro.e.rereadScans(ro.scans) {
		return false
	}
	fails, first := ro.e.compareScans(ro.scans, (*memory.Arena).LoadWord, nil)
	if fails > 0 {
		ro.e.w.Obs.Inc(obs.EvScanValidateFail)
		ro.feedScanHeat(first)
	}
	return fails == 0
}

// Scan performs a range read of ordered table rows with keys in [lo, hi]
// ascending, up to limit rows, collected leaselessly and re-validated at
// confirm (the scan-heavy RO arm the `scan` experiment measures against
// per-key leases). Same co-location contract as Tx.Scan.
func (ro *RO) Scan(table int, lo, hi uint64, limit int) ([]ScanRow, error) {
	if hi < lo {
		return nil, nil
	}
	if ro.e.rt.Meta(table).Kind != Ordered {
		panic(fmt.Sprintf("tx: Scan of unordered table %d", table))
	}
	node, region, part := ro.e.route(table, lo)
	if nodeHi, _, _ := ro.e.route(table, hi); nodeHi != node {
		panic(fmt.Sprintf("tx: Scan range [%d, %d] of table %d spans nodes %d and %d; "+
			"partition scans by the routing attribute", lo, hi, table, node, nodeHi))
	}
	ro.stampView(part)
	if ro.mvcc || ro.routeScanMVCC(node, table, lo, hi, limit) {
		return ro.mvccScan(table, node, region, lo, hi, limit)
	}
	sh := ro.e.w.Obs
	sstart := int64(ro.e.w.VClock.Now())
	rec := scanRec{table: table, node: node, region: region, lo: lo}
	var out []ScanRow
	if node == ro.e.w.Node.ID {
		o := ro.e.w.Node.Ordered(region)
		rows, busy := collectOrderedRange(ro.e, o, &rec, lo, hi, limit, &ro.scanVals)
		if busy {
			sh.Inc(obs.EvRemoteLockConflict)
			return nil, ErrRetry
		}
		out = rows
	} else {
		rs, err := ro.e.callRangeScan(node, rangeScanMsg{Region: region, Lo: lo, Hi: hi, Limit: limit},
			ro.e.rt.Meta(table).ValueWords)
		if err != nil {
			return nil, err
		}
		if rs.Busy {
			sh.Inc(obs.EvRemoteLockConflict)
			return nil, ErrRetry
		}
		rec.segs, rec.stamps = rs.Segs, rs.Stamps
		for _, r := range rs.Rows {
			rec.rows = append(rec.rows, scanRowRec{key: r.Key, off: r.Off, incver: r.IncVer})
			if r.Val != nil {
				out = append(out, ScanRow{Key: r.Key, Val: r.Val})
			}
		}
	}
	ro.scans = append(ro.scans, rec)
	sh.Observe(obs.PhaseScan, int64(ro.e.w.VClock.Now())-sstart)
	sh.Inc(obs.EvScan)
	sh.Add(obs.EvScanRow, int64(len(out)))
	return out, nil
}

// stampView records a touched partition's view word for confirm.
func (ro *RO) stampView(part int) {
	if part < 0 || ro.e.rt.C.ReplicationFactor() == 0 {
		return
	}
	if ro.views == nil {
		ro.views = make(map[int]uint64)
	}
	if _, ok := ro.views[part]; !ok {
		ro.views[part] = ro.e.rt.C.View(part)
	}
}

// Read leases and fetches a record by key (or, on the MVCC arm, resolves it
// against its version chain at the snapshot stamp with one READ).
func (ro *RO) Read(table int, key uint64) ([]uint64, error) {
	if r, ok := ro.index[refKey{table, key}]; ok {
		return r.buf, nil
	}
	if ro.mvcc {
		return ro.mvccRead(table, key)
	}
	h := ro.e.handle(table, key)
	ro.stampView(h.part)
	if found, err := ro.e.resolve(&h); err != nil {
		return nil, err
	} else if !found {
		return nil, ErrNotFound
	}
	r, err := ro.readHandle(h)
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
		key: n.Ordered(table).Arena().LoadWord(off + kvs.EntryKeyWord)})
	if err != nil {
		return nil, err
	}
	return r.buf, nil
}

// readHandle takes one resolved record: a shared lease through the Figure 5
// state machine — or nothing, on the speculative arm of a remote record —
// then one entry READ and the image check (the resolution happened before
// the lease, so the slot could have been recycled or the row erased in
// between). Local records are leased with the cheap CPU CAS and copied. A
// speculative record's version and incarnation are re-validated by confirm.
func (ro *RO) readHandle(h recHandle) (*remoteRec, error) {
	e := ro.e
	sh := e.w.Obs
	r := &remoteRec{recHandle: h}
	r.spec = h.node != e.w.Node.ID && e.routeRead(ro.policy, &r.recHandle)
	if !r.spec {
		var a acquirer
		a.arm(acqLease, 0, ro.end)
		v, end, err := e.acquire(&a, &r.recHandle, true)
		if err != nil {
			return nil, err
		}
		if v == acqConflict {
			sh.Inc(obs.EvRemoteLockConflict)
			return nil, ErrRetry
		}
		r.leaseEnd = end
	}
	vw := e.rt.Meta(h.table).ValueWords
	words, err := e.readEntry(&r.recHandle, vw, 0)
	if err != nil {
		return nil, err
	}
	v := r.check(words, &r.recImage, vw, false, r.spec)
	if r.spec && (v == imgOK || v == imgBusy) {
		sh.Inc(obs.EvSpecRead)
	}
	switch v {
	case imgStale:
		e.invalidate(&r.recHandle)
		return nil, ErrRetry
	case imgBusy:
		sh.Inc(obs.EvRemoteLockConflict)
		return nil, ErrRetry
	case imgNotFound:
		return nil, ErrNotFound
	}
	ro.recs = append(ro.recs, r)
	return r, nil
}

// ScanLocal returns index entries of a local ordered table in [lo, hi].
func (ro *RO) ScanLocal(table int, lo, hi uint64, limit int) []KeyOff {
	o := ro.e.w.Node.Ordered(table)
	ro.e.charge(ro.e.model().BTreeOpNS)
	var out []KeyOff
	o.Scan(lo, hi, func(k uint64, off memory.Offset) bool {
		out = append(out, KeyOff{k, off})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// ScanLocalDesc is ScanLocal in descending order.
func (ro *RO) ScanLocalDesc(table int, lo, hi uint64, limit int) []KeyOff {
	o := ro.e.w.Node.Ordered(table)
	ro.e.charge(ro.e.model().BTreeOpNS)
	var out []KeyOff
	o.ScanDesc(lo, hi, func(k uint64, off memory.Offset) bool {
		out = append(out, KeyOff{k, off})
		return limit <= 0 || len(out) < limit
	})
	return out
}
