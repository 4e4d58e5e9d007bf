package tx

// Transactional range scans over ordered tables (the tentpole of the range
// scan + secondary index work; see DESIGN.md, "Range scans & secondary
// indexes").
//
// A scan is collected in the Start phase — before the HTM region — because a
// remote scan ships the index walk to the host over two-sided verbs
// (Section 6.5) and no verbs can run inside a real HTM region. Collection
// records, per ordered shard touched:
//
//   - the segment stamps covering [lo, hi], read BEFORE the tree walk. A
//     stamp is bumped atomically with every tree membership change in its
//     segment (kvs.Ordered), so an unchanged stamp at commit proves no
//     phantom appeared in the scanned range;
//   - every entry in range — dead ones included — with the
//     incarnation|version word observed at collection. Dead entries are
//     invisible to the caller but must still validate: a transactional
//     insert flips an existing dead entry live WITHOUT a structural change,
//     which no stamp records.
//
// Commit-time validation (scansValid) mirrors the speculative read arm:
// a doorbell-batched wave of one-sided re-READs models the wire cost and
// exposes the verbs to fault injection, then authoritative htx reads of the
// same words enroll every stamp and row header in the HTM read set, closing
// the poll→XEND window through emulated strong atomicity. Any mismatch
// aborts with abortCodeScan, a whole-transaction retry.
//
// Scans therefore always ride the optimistic confirm-wave arm regardless of
// the transaction's ReadPolicy — per-row leases over a range would cost one
// CAS per row and defeat the point (the `scan` experiment quantifies this);
// point reads staged by the same transaction keep their configured policy.

import (
	"fmt"

	"drtm/internal/clock"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// ScanRow is one live row returned by a transactional range scan. Val
// aliases transaction-private scratch and is invalid once Exec returns; the
// rows themselves are the executor's scratch, valid until its next scan.
type ScanRow struct {
	Key uint64
	Val []uint64
}

// scanRowRec anchors one in-range entry (live or dead) for validation.
type scanRowRec struct {
	key    uint64
	off    memory.Offset
	incver uint64
}

// scanRec records one collected range scan.
type scanRec struct {
	table  int
	node   int
	region int
	segs   []int
	stamps []uint64
	rows   []scanRowRec
}

// nextScan appends a record for a scan of table's shard on node to scans,
// reusing the slices an earlier transaction's record left in the backing
// array. The pointer is valid until scans next grows.
func nextScan(scans []scanRec, table, node, region int) ([]scanRec, *scanRec) {
	n := len(scans)
	if n < cap(scans) {
		scans = scans[:n+1]
	} else {
		scans = append(scans, scanRec{})
	}
	rec := &scans[n]
	*rec = scanRec{table: table, node: node, region: region,
		segs: rec.segs[:0], stamps: rec.stamps[:0], rows: rec.rows[:0]}
	return scans, rec
}

// scanStableRetries bounds per-row re-reads when collection races a writer.
const scanStableRetries = 3

// Scan performs a transactional range read of ordered table rows with keys
// in [lo, hi] ascending, up to limit rows (limit <= 0 means unbounded). It
// is a Start-phase operation like R/W: call it before Execute and hand the
// rows to the body. The whole range must be co-located on one node (the
// partitioner routes by key; workloads encode the partition attribute in
// the high key bits so a logical entity's rows share a shard). The rows are
// the executor's scratch, valid until its next scan.
//
// The rows are a consistent snapshot as of the transaction's commit point:
// commit validates that neither the range's membership (segment stamps) nor
// any collected row's version changed since collection, else the
// transaction retries.
func (t *Tx) Scan(table int, lo, hi uint64, limit int) ([]ScanRow, error) {
	if hi < lo {
		return nil, nil
	}
	node, region, part := t.e.scanRoute(table, lo, hi)
	t.stampView(part)
	sstart := int64(t.e.w.VClock.Now())
	var rec *scanRec
	t.scans, rec = nextScan(t.scans, table, node, region)
	rows, busy, err := t.e.scanRange(rec, lo, hi, limit, &t.scanVals)
	switch {
	case err != nil:
		t.scans = t.scans[:len(t.scans)-1]
		err = t.nodeDown()
	case busy:
		t.scans = t.scans[:len(t.scans)-1]
		err = t.remoteConflict()
	}
	sh := t.e.w.Obs
	sh.Observe(obs.PhaseScan, int64(t.e.w.VClock.Now())-sstart)
	if err != nil {
		return nil, err
	}
	sh.Inc(obs.EvScan)
	sh.Add(obs.EvScanRow, int64(len(rows)))
	return rows, nil
}

// scanRoute returns the node, region and partition of a scan of [lo, hi] in
// an ordered table, panicking on an unordered table or a range that spans
// nodes.
func (e *Executor) scanRoute(table int, lo, hi uint64) (node, region, part int) {
	if e.rt.Meta(table).Kind != Ordered {
		panic(fmt.Sprintf("tx: Scan of unordered table %d", table))
	}
	node, region, part = e.route(table, lo)
	if nodeHi, _, _ := e.route(table, hi); nodeHi != node {
		panic(fmt.Sprintf("tx: Scan range [%d, %d] of table %d spans nodes %d and %d; "+
			"partition scans by the routing attribute", lo, hi, table, node, nodeHi))
	}
	return node, region, part
}

// scanRange collects [lo, hi] of rec's shard into rec, for update and
// read-only transactions alike: locally through the executor's finger, or
// shipped to the host (Section 6.5), which runs the same walk into the same
// buffers. Live values are appended to *vals, and the live rows returned alias
// them; the rows are e.scanRows, valid until the executor's next scan. busy
// reports a row that stayed write-locked through the stability retries, err a
// host that stayed unreachable.
func (e *Executor) scanRange(rec *scanRec, lo, hi uint64, limit int, vals *[]uint64) (rows []ScanRow, busy bool, err error) {
	e.scanRows = e.scanRows[:0]
	if rec.node == e.w.Node.ID {
		o := e.w.Node.Ordered(rec.region)
		var via kvs.IndexPath
		via, busy = collectRange(o, e.finger(rec.region), rec, lo, hi, limit, vals, &e.scanRows)
		e.chargeIndexOp(via)
		e.charge(e.model().HTMPerReadNS * int64(len(rec.rows)*(o.ValueWords()+2)))
	} else {
		busy, err = e.callRangeScan(rec, lo, hi, limit, vals)
	}
	return e.scanRows, busy, err
}

// collectRange is the shard-side collection of a range scan, on the scanning
// node or on the host of a remote one: stamps first, then the latched tree
// walk from finger f (nil on a host), reading each row with the per-entry
// stability protocol (incver, state, value, incver again — an unchanged
// unlocked header brackets a torn-free value). Rows, dead included, land in
// rec, live values in *vals and the live rows, aliasing them, in *out.
func collectRange(o *kvs.Ordered, f *kvs.Finger, rec *scanRec, lo, hi uint64, limit int,
	vals *[]uint64, out *[]ScanRow) (via kvs.IndexPath, busy bool) {
	rec.segs = o.SegSpan(rec.segs, lo, hi)
	arena := o.Arena()
	for _, s := range rec.segs {
		rec.stamps = append(rec.stamps, arena.LoadWord(kvs.SegStampOffset(s)))
	}
	vw := o.ValueWords()
	live := 0
	via = o.ScanAt(f, lo, hi, func(k uint64, off memory.Offset) bool {
		incver, isLive, ok := stableScanEntry(arena, off, vw, vals)
		if !ok {
			busy = true
			return false
		}
		rec.rows = append(rec.rows, scanRowRec{key: k, off: off, incver: incver})
		if isLive {
			*out = append(*out, ScanRow{Key: k, Val: (*vals)[len(*vals)-vw:]})
			live++
		}
		return limit <= 0 || live < limit
	})
	return via, busy
}

// stableScanEntry reads one entry's header and (when live) its value into
// *vals, retrying while a concurrent commit is mid-flight. Returns the
// bracketing incver word, liveness, and whether a stable image was read.
func stableScanEntry(arena *memory.Arena, off memory.Offset, vw int, vals *[]uint64) (incver uint64, live, ok bool) {
	for i := 0; i < scanStableRetries; i++ {
		// The lock word first: a remote commit flips incver and releases the
		// lock with one write, so an incver loaded before that write next to a
		// state loaded after it would pass a half-published row off as stable
		// (a multi-row remote insert publishes its rows one by one, each under
		// its own lock until its flip).
		if clock.IsWriteLocked(arena.LoadWord(kvs.StateOffset(off))) {
			continue
		}
		incver = arena.LoadWord(kvs.IncVerOffset(off))
		if !kvs.Live(kvs.Incarnation(incver)) {
			return incver, false, true
		}
		base := len(*vals)
		for w := 0; w < vw; w++ {
			*vals = append(*vals, 0)
		}
		arena.Read((*vals)[base:base+vw], kvs.ValueOffset(off))
		if arena.LoadWord(kvs.IncVerOffset(off)) == incver &&
			!clock.IsWriteLocked(arena.LoadWord(kvs.StateOffset(off))) {
			return incver, true, true
		}
		*vals = (*vals)[:base] // torn: discard and retry
	}
	return 0, false, false
}

// rangeScanMsg ships a range collection to the host, which answers into the
// sender's buffers — the way a lookup's reply lands in its shipOp's Img: the
// stamps and rows into Rec (whose region names the shard), the live values
// onto *Vals and the live rows onto *Out, then Busy.
type rangeScanMsg struct {
	Lo, Hi uint64
	Limit  int
	Rec    *scanRec
	Vals   *[]uint64
	Out    *[]ScanRow
	Busy   bool
}

// callRangeScan ships one range collection to the host over SEND/RECV in the
// executor's message scratch, the rows answered onto e.scanRows. A message
// lost to a fault never reached the host, so a retry starts from untouched
// buffers.
func (e *Executor) callRangeScan(rec *scanRec, lo, hi uint64, limit int, vals *[]uint64) (busy bool, err error) {
	// Reply size for the cost model: the row count is unknown before the
	// call, so charge for the bounded case and a nominal page otherwise.
	respSz := 256 + limit*(3+e.rt.Meta(rec.table).ValueWords)*8
	if limit <= 0 {
		respSz = 4096
	}
	m := &e.scanMsg
	*m = rangeScanMsg{Lo: lo, Hi: hi, Limit: limit, Rec: rec, Vals: vals, Out: &e.scanRows}
	var resp any
	err = e.verbRetry(func() error {
		var cerr error
		resp, cerr = e.call(rec.node, msgRangeScan, m, 1, 40, respSz)
		return cerr
	})
	busy = m.Busy
	*m = rangeScanMsg{} // the buffers are the caller's again
	if err != nil || resp != nil {
		return false, ErrNodeDown
	}
	return busy, nil
}

// skipScanValidation stubs commit-time range validation — the deliberately
// broken control arm of the phantom regression test (scan_test.go), which is
// the only thing that sets it: scans lose phantom protection entirely.
var skipScanValidation bool

// rereadScans posts one doorbell wave re-READing every remote scan's segment
// stamps and row headers — validation's wire cost, exposed to fault
// injection; the authoritative comparison is compareScans. It reports false
// when a host stays unreachable through the bounded retries.
func (e *Executor) rereadScans(scans []scanRec) bool {
	nwords := 0
	for i := range scans {
		if scans[i].node != e.w.Node.ID {
			nwords += len(scans[i].segs) + len(scans[i].rows)
		}
	}
	if nwords == 0 {
		return true
	}
	if cap(e.hdrBuf) < nwords {
		e.hdrBuf = make([]uint64, nwords)
	}
	hdr := e.hdrBuf[:nwords]
	sq := e.sendq(obs.StageValidate)
	n := 0
	for i := range scans {
		sc := &scans[i]
		if sc.node == e.w.Node.ID {
			continue
		}
		for _, s := range sc.segs {
			sq.PostRead(sc.node, sc.region, kvs.SegStampOffset(s), hdr[n:n+1])
			n++
		}
		for _, r := range sc.rows {
			sq.PostRead(sc.node, sc.region, kvs.IncVerOffset(r.off), hdr[n:n+1])
			n++
		}
	}
	_, ok := e.pollReads(sq)
	return ok
}

// compareScans is the authoritative scan validation: every segment stamp
// unchanged (no membership change in the scanned ranges) and every collected
// row's incarnation|version word unchanged with no live exclusive lock. load
// reads one word — htx.Read inside the HTM region, which also enrolls every
// stamp and row header in the region's read set, or a plain arena load under
// the fallback's locks and at a read-only confirm. own (nil for read-only
// transactions, which lock nothing) reports rows write-locked by the
// validating transaction itself (a scanned row also staged for write/erase),
// which skip the lock check: their version cannot move while we hold the
// lock. Returns the failed comparisons.
func (e *Executor) compareScans(scans []scanRec, load func(*memory.Arena, memory.Offset) uint64,
	own func(table int, r *scanRowRec) bool) (fails int64) {
	for i := range scans {
		sc := &scans[i]
		arena := e.rt.arenaOf(sc.node, sc.region)
		for k, s := range sc.segs {
			if load(arena, kvs.SegStampOffset(s)) != sc.stamps[k] {
				fails++
			}
		}
		for k := range sc.rows {
			r := &sc.rows[k]
			if load(arena, kvs.IncVerOffset(r.off)) != r.incver ||
				((own == nil || !own(sc.table, r)) && clock.IsWriteLocked(load(arena, kvs.StateOffset(r.off)))) {
				fails++
			}
		}
	}
	return fails
}

// scansValid re-validates every collected scan at the commit point, after the
// body and before the structural flips (which change incver words the scans
// recorded). Inside the HTM region: the re-READ wave, then the comparison
// through htx reads; a host that stays unreachable fails it with specDown set.
// Under the fallback's locks (htx == nil): the same stamp + row checks with
// plain loads and no wave, after the leases and views were confirmed and
// before anything is published — sound without HTM enrollment because every
// scanned shard's mutation paths bump either the stamp or the row's version
// before the fallback's own in-place updates become visible, and the fallback
// holds every declared record locked while checking. A row this transaction
// itself holds write-locked (a scanned row also staged for write / erase)
// skips the lock check.
func (t *Tx) scansValid(htx *htm.Txn) bool {
	if len(t.scans) == 0 || skipScanValidation {
		return true
	}
	e := t.e
	load := (*memory.Arena).LoadWord
	if htx != nil {
		vstart := int64(e.w.VClock.Now())
		reachable := e.rereadScans(t.scans)
		e.w.Obs.Observe(obs.PhaseValidate, int64(e.w.VClock.Now())-vstart)
		if !reachable {
			t.specDown = true
			return false
		}
		load = htx.Read
	}
	fails := e.compareScans(t.scans, load, func(table int, r *scanRowRec) bool {
		rr, ok := t.rIndex[refKey{table, r.key}]
		return ok && rr.write && rr.off == r.off
	})
	e.w.Obs.Add(obs.EvScanValidateFail, fails)
	return fails == 0
}
