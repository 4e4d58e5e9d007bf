package tx

import (
	"slices"

	"drtm/internal/clock"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// Commit-point validation (DESIGN.md, "Commit-point validation"): what a
// transaction read without holding it — a speculative read, a lease, a row a
// scan collected, a row the fallback found missing — is checked in one step at
// its serialization point: before XEND inside the HTM region (Figure 3), under
// every lock of the software fallback (Section 6.2), and at a read-only
// transaction's confirmation (Figure 8). validate is that step for all three.

// readSet is what a transaction staged: the records (read, and written beside
// them) and their index, the range scans and the values of their rows, and the
// view word of every partition it touched. Tx and RO embed it.
type readSet struct {
	e        *Executor
	recs     []*remoteRec
	index    map[refKey]*remoteRec
	scans    []scanRec
	scanVals []uint64 // the values of the rows scans return

	// views records, per touched partition, the packed view word observed when
	// the partition was first declared (nil until replication stamps one): a
	// failover that moves ownership mid-transaction fails validate, and the
	// attempt restages under the new view.
	views map[int]uint64
}

// stampView records the view word of a touched partition the first time a
// record of it is declared. No-op when replication is off.
func (rs *readSet) stampView(part int) {
	c := rs.e.rt.C
	if part < 0 || c.ReplicationFactor() == 0 {
		return
	}
	if rs.views == nil {
		rs.views = make(map[int]uint64)
	}
	if _, ok := rs.views[part]; !ok {
		rs.views[part] = c.View(part)
	}
}

// release empties the set after an attempt: the staged records go back to the
// executor's pool with the value buffers the body was reading.
func (rs *readSet) release() {
	rs.e.putRecs(rs.recs)
	rs.recs = rs.recs[:0]
	clear(rs.index)
	clear(rs.views)
	rs.scans, rs.scanVals = rs.scans[:0], rs.scanVals[:0]
}

// viewsMoved reports, and counts, a touched partition whose view changed since
// it was stamped. It closes the stage→commit window against hot failover: a
// transaction that staged against the old primary must not publish effects
// under the new view. (The complementary append-time check is the backup's
// epoch fence, which rejects a zombie's late redo appends.)
func (rs *readSet) viewsMoved() bool {
	for part, w := range rs.views {
		if rs.e.rt.C.View(part) != w {
			rs.e.w.Obs.Inc(obs.EvViewAbort)
			return true
		}
	}
	return false
}

// validate checks everything the transaction read without holding it, and
// returns the abort code of what failed (0 when everything holds) and whether
// a host stayed unreachable. htx is the HTM region of the commit point, nil
// outside one; waited says the attempt may have waited for a writer since it
// read (the fallback, an escalated read-only attempt). In order:
//
//  1. the views (abortCodeView);
//  2. the leases, against one softtime read — transactional in the region,
//     where it is the only one, and taken only when a lease exists, which
//     narrows the window for false aborts from the timer thread (Figure
//     11(c)). An expired lease fails the attempt (abortCodeLease) unless the
//     attempt may have waited: the record was read under the lease, so its
//     header is re-validated in step 4, as a speculative read's;
//  3. and 4. the rows the fallback found missing and the headers (rereads).
//
// One PhaseValidate observation covers steps 3 and 4 when there is anything
// for them to check.
func (rs *readSet) validate(htx *htm.Txn, waited bool) (code uint8, down bool) {
	if rs.viewsMoved() {
		return abortCodeView, false
	}
	if !rs.leasesHold(htx, waited) {
		return abortCodeLease, false
	}
	if len(rs.scans) == 0 && !slices.ContainsFunc(rs.recs, func(r *remoteRec) bool { return r.spec }) {
		return 0, false
	}
	e := rs.e
	vstart := int64(e.w.VClock.Now())
	code, down = rs.reread(htx)
	e.w.Obs.Observe(obs.PhaseValidate, int64(e.w.VClock.Now())-vstart)
	return code, down
}

// leasesHold is validate's step 2, counting the leases that hold; an
// outwaited one becomes a speculative read.
func (rs *readSet) leasesHold(htx *htm.Txn, waited bool) bool {
	e := rs.e
	var now uint64
	read := false
	for _, r := range rs.recs {
		if r.write || r.spec {
			continue
		}
		if !read {
			read = true
			if htx != nil {
				now = e.w.Node.Clock.ReadTx(htx)
			} else {
				now = e.w.Node.Clock.Read()
			}
		}
		switch {
		case clock.Valid(r.leaseEnd, now, e.rt.C.Delta()):
			e.w.Obs.Inc(obs.EvLeaseConfirm)
		case waited:
			r.spec = true
		default:
			if htx == nil { // the region counts its lease aborts itself
				e.w.Obs.Inc(obs.EvLeaseConfirmFail)
			}
			return false
		}
	}
	return true
}

// reread is validate's steps 3 and 4 over the speculative records (outwaited
// leases and missing rows included) and scans:
//
//   - A row the fallback found missing holds no lock or lease, and the records
//     after it in the global order were taken later: a transaction could insert
//     it, then write one of those and commit before this one took it. So the
//     key is resolved again, and found now it fails (abortCodeSpec). It is never
//     header-compared.
//   - This node's headers, each one line read, stop at the first that moved
//     (abortCodeSpec).
//   - One doorbell wave re-READs every remote header — `key ‖ incver ‖ state`
//     of an ordered row, whose slot can be recycled, `incver ‖ state` of a hash
//     row — and every remote scan's segment stamps and row words: the wire cost
//     and the verbs' faults. The comparison reads the words through
//     loadHeader / loadWord, never the wave's buffers: every failed speculative
//     record counts (abortCodeSpec), then every failed scan word — a stamp that
//     moved is a phantom (abortCodeScan).
//
// An unchanged version vouches for a value because every committed write bumps
// it under write protection, value lines first. A scanned row this transaction
// holds write-locked skips the lock check: its version cannot move under it.
func (rs *readSet) reread(htx *htm.Txn) (code uint8, down bool) {
	e, scans := rs.e, rs.scans
	sh := e.w.Obs
	self := e.w.Node.ID
	nremote, nwords := 0, 0
	for _, r := range rs.recs {
		switch {
		case !r.spec:
		case r.absent:
			h := r.recHandle
			found, err := e.resolve(&h)
			if err != nil {
				return abortCodeSpec, true
			}
			if found {
				sh.Inc(obs.EvSpecValidateFail)
				return abortCodeSpec, false
			}
		case r.node == self:
			hdr := loadHeader(htx, e.rt.arenaOf(r.node, r.region), r.off, r.ordered)
			if htx == nil {
				e.charge(int64(len(hdr)) * e.model().HTMPerReadNS)
			}
			if r.moved(&hdr) {
				sh.Inc(obs.EvSpecValidateFail)
				return abortCodeSpec, false
			}
		default:
			nremote++
			nwords += headerWords(r.ordered)
		}
	}
	for i := range scans {
		if sc := &scans[i]; sc.node != self {
			nwords += len(sc.segs) + len(sc.rows)
		}
	}
	if nwords > 0 && !rs.postRereads(nwords) {
		// Confirms nothing and blames no record.
		if nremote > 0 {
			return abortCodeSpec, true
		}
		return abortCodeScan, true
	}

	var fails int64
	for _, r := range rs.recs {
		if !r.spec || r.absent || r.node == self {
			continue
		}
		if hdr := loadHeader(htx, e.rt.arenaOf(r.node, r.region), r.off, r.ordered); r.moved(&hdr) {
			fails++
		}
	}
	if fails > 0 {
		sh.Add(obs.EvSpecValidateFail, fails)
		return abortCodeSpec, false
	}
	for i := range scans {
		sc := &scans[i]
		arena := e.rt.arenaOf(sc.node, sc.region)
		for k, s := range sc.segs {
			if loadWord(htx, arena, kvs.SegStampOffset(s)) != sc.stamps[k] {
				fails++
			}
		}
		for k := range sc.rows {
			row := &sc.rows[k]
			hdr := loadHeader(htx, arena, row.off, true)
			if hdr[kvs.EntryKeyWord] != row.key || hdr[kvs.EntryIncVerWord] != row.incver ||
				clock.IsWriteLocked(hdr[kvs.EntryStateWord]) && !rs.holds(sc.table, row) {
				fails++
			}
		}
	}
	if fails > 0 {
		sh.Add(obs.EvScanValidateFail, fails)
		return abortCodeScan, false
	}
	return 0, false
}

// headerWords is the width of a remote header's re-READ.
func headerWords(ordered bool) int {
	if ordered {
		return kvs.EntryStateWord + 1
	}
	return kvs.EntryHeaderWords
}

// postRereads posts reread's one wave of nwords words and polls it, reporting
// false when a host stayed unreachable through the bounded retries.
func (rs *readSet) postRereads(nwords int) bool {
	e := rs.e
	if cap(e.hdrBuf) < nwords {
		e.hdrBuf = make([]uint64, nwords)
	}
	n := 0
	next := func(w int) []uint64 {
		n += w
		return e.hdrBuf[n-w : n]
	}
	sq := e.sendq(obs.StageValidate)
	self := e.w.Node.ID
	for _, r := range rs.recs {
		switch {
		case !r.spec || r.absent || r.node == self:
		case r.ordered:
			sq.PostRead(r.node, r.region, r.off+kvs.EntryKeyWord, next(headerWords(true)))
		default:
			sq.PostRead(r.node, r.region, kvs.IncVerOffset(r.off), next(headerWords(false)))
		}
	}
	for i := range rs.scans {
		sc := &rs.scans[i]
		if sc.node == self {
			continue
		}
		for _, s := range sc.segs {
			sq.PostRead(sc.node, sc.region, kvs.SegStampOffset(s), next(1))
		}
		for _, row := range sc.rows {
			sq.PostRead(sc.node, sc.region, kvs.IncVerOffset(row.off), next(1))
		}
	}
	return e.pollReads(sq)
}

// holds reports whether the transaction holds a scanned row's write lock (the
// row also staged for write or erase).
func (rs *readSet) holds(table int, row *scanRowRec) bool {
	r, ok := rs.index[refKey{table, row.key}]
	return ok && r.locked() && r.off == row.off
}

// moved reports whether a speculative record's entry header no longer vouches
// for the image fetched: another key took the slot (an ordered row), a write
// committed, or one is mid-commit.
func (r *remoteRec) moved(hdr *[3]uint64) bool {
	return r.ordered && hdr[kvs.EntryKeyWord] != r.key ||
		hdr[kvs.EntryIncVerWord] != kvs.PackIncVer(r.inc, r.version) ||
		clock.IsWriteLocked(hdr[kvs.EntryStateWord])
}

// loadHeader is validate's loader for an entry header (key ‖ incver ‖ state):
// inside the region, htx reads, which enroll the entry's first line in the
// read set, so a writer publishing before XEND aborts the region and
// validation and XEND are one instant (the license Figure 6 uses for the state
// word) — the key only of an ordered row; outside it, one seqlocked read of
// that line, which holds all three words, so they are seen as of one instant.
func loadHeader(htx *htm.Txn, a *memory.Arena, off memory.Offset, ordered bool) (hdr [3]uint64) {
	if htx == nil {
		a.Read(hdr[:], off+kvs.EntryKeyWord)
		return hdr
	}
	if ordered {
		hdr[kvs.EntryKeyWord] = htx.Read(a, off+kvs.EntryKeyWord)
	}
	hdr[kvs.EntryIncVerWord] = htx.Read(a, kvs.IncVerOffset(off))
	hdr[kvs.EntryStateWord] = htx.Read(a, kvs.StateOffset(off))
	return hdr
}

// loadWord is validate's loader for one word: an htx read inside the region,
// a plain load outside it.
func loadWord(htx *htm.Txn, a *memory.Arena, off memory.Offset) uint64 {
	if htx == nil {
		return a.LoadWord(off)
	}
	return htx.Read(a, off)
}

// causeOf names the abort cause of a failed validation (abortCode*), as the
// traces and the backoff know it; 0 for any other code.
func causeOf(code uint8) obs.AbortCause {
	switch code {
	case abortCodeView:
		return obs.CauseRemote
	case abortCodeLease:
		return obs.CauseLease
	case abortCodeSpec:
		return obs.CauseSpec
	case abortCodeScan:
		return obs.CauseScan
	}
	return obs.CauseNone
}
