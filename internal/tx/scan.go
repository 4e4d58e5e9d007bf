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
// Commit-time validation is the commit point's one validate (validate.go),
// which re-checks every stamp and row header beside the speculative reads'
// headers. Any mismatch fails with abortCodeScan, a whole-transaction retry.
//
// Scans therefore always ride the optimistic confirm-wave arm regardless of
// the transaction's ReadPolicy — per-row leases over a range would cost one
// CAS per row and defeat the point (the `scan` experiment quantifies this);
// point reads staged by the same transaction keep their configured policy.

import (
	"fmt"

	"drtm/internal/clock"
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
	rows, _, busy, err := t.scan(table, lo, hi, limit)
	switch {
	case err != nil:
		return nil, t.nodeDown()
	case busy:
		return nil, t.remoteConflict()
	}
	return rows, nil
}

// scan is the one range-scan collector of Tx.Scan and RO.Scan: it routes
// [lo, hi], stamps its partition's view and collects the range into the set's
// next scan record (scanRange), which it drops again when the collection
// fails — a row that stayed write-locked (busy) or a host that stayed
// unreachable (err). Every collection is observed as PhaseScan; one that
// succeeds counts a scan and its rows. An empty range (hi < lo) collects
// nothing and returns no record.
func (rs *readSet) scan(table int, lo, hi uint64, limit int) (rows []ScanRow, rec *scanRec, busy bool, err error) {
	if hi < lo {
		return nil, nil, false, nil
	}
	e := rs.e
	node, region, part := e.scanRoute(table, lo, hi)
	rs.stampView(part)
	sstart := int64(e.w.VClock.Now())
	rs.scans, rec = nextScan(rs.scans, table, node, region)
	rows, busy, err = e.scanRange(rec, lo, hi, limit, &rs.scanVals)
	sh := e.w.Obs
	sh.Observe(obs.PhaseScan, int64(e.w.VClock.Now())-sstart)
	if err != nil || busy {
		rs.scans = rs.scans[:len(rs.scans)-1]
		return nil, nil, busy, err
	}
	sh.Inc(obs.EvScan)
	sh.Add(obs.EvScanRow, int64(len(rows)))
	return rows, rec, false, nil
}

// scanRoute returns the node, region and partition of a scan of [lo, hi] in
// an ordered table, panicking on an unordered table or a range that spans
// partitions. The ends are compared by partition, not by owner: the owner is
// read once, as a failover may move it between two reads.
func (e *Executor) scanRoute(table int, lo, hi uint64) (node, region, part int) {
	if e.rt.Meta(table).Kind != Ordered {
		panic(fmt.Sprintf("tx: Scan of unordered table %d", table))
	}
	node, region, part = e.route(table, lo)
	if partHi := e.rt.Part(table, hi); partHi != part {
		panic(fmt.Sprintf("tx: Scan range [%d, %d] of table %d spans partitions %d and %d; "+
			"partition scans by the routing attribute", lo, hi, table, part, partHi))
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
