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
// aliases transaction-private scratch and is invalid once Exec returns.
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

// scanStableRetries bounds per-row re-reads when collection races a writer.
const scanStableRetries = 3

// Scan performs a transactional range read of ordered table rows with keys
// in [lo, hi] ascending, up to limit rows (limit <= 0 means unbounded). It
// is a Start-phase operation like R/W: call it before Execute and hand the
// rows to the body. The whole range must be co-located on one node (the
// partitioner routes by key; workloads encode the partition attribute in
// the high key bits so a logical entity's rows share a shard).
//
// The rows are a consistent snapshot as of the transaction's commit point:
// commit validates that neither the range's membership (segment stamps) nor
// any collected row's version changed since collection, else the
// transaction retries.
func (t *Tx) Scan(table int, lo, hi uint64, limit int) ([]ScanRow, error) {
	if hi < lo {
		return nil, nil
	}
	meta := t.e.rt.Meta(table)
	if meta.Kind != Ordered {
		panic(fmt.Sprintf("tx: Scan of unordered table %d", table))
	}
	node, region, part := t.e.route(table, lo)
	if nodeHi, _, _ := t.e.route(table, hi); nodeHi != node {
		panic(fmt.Sprintf("tx: Scan range [%d, %d] of table %d spans nodes %d and %d; "+
			"partition scans by the routing attribute", lo, hi, table, node, nodeHi))
	}
	t.stampView(part)
	sstart := int64(t.e.w.VClock.Now())
	var rows []ScanRow
	var err error
	if node == t.e.w.Node.ID {
		rows, err = t.collectScanLocal(table, region, lo, hi, limit)
	} else {
		rows, err = t.collectScanRemote(table, node, region, lo, hi, limit)
	}
	sh := t.e.w.Obs
	sh.Observe(obs.PhaseScan, int64(t.e.w.VClock.Now())-sstart)
	if err == nil {
		sh.Inc(obs.EvScan)
		sh.Add(obs.EvScanRow, int64(len(rows)))
	}
	return rows, err
}

// collectScanLocal walks a local ordered shard: stamps first, then the
// latched tree walk, reading each row with the per-entry stability protocol
// (incver, state, value, incver again — an unchanged unlocked header
// brackets a torn-free value).
func (t *Tx) collectScanLocal(table, region int, lo, hi uint64, limit int) ([]ScanRow, error) {
	o := t.e.w.Node.Ordered(region)
	rec := scanRec{table: table, node: t.e.w.Node.ID, region: region}
	out, busy := collectOrderedRange(t.e, o, &rec, lo, hi, limit, &t.scanVals)
	if busy {
		return nil, t.remoteConflict()
	}
	t.scans = append(t.scans, rec)
	return out, nil
}

// collectOrderedRange is the shard-side collection shared by update and
// read-only transactions: stamps first, then the latched tree walk with the
// per-row stability bracket; rows (dead included) land in rec, live values
// in *vals (returned rows alias its tail).
func collectOrderedRange(e *Executor, o *kvs.Ordered, rec *scanRec, lo, hi uint64, limit int, vals *[]uint64) (out []ScanRow, busy bool) {
	rec.segs = o.SegSpan(rec.segs, lo, hi)
	arena := o.Arena()
	for _, s := range rec.segs {
		rec.stamps = append(rec.stamps, arena.LoadWord(kvs.SegStampOffset(s)))
	}
	vw := o.ValueWords()
	via := o.ScanAt(e.finger(rec.region), lo, hi, func(k uint64, off memory.Offset) bool {
		incver, live, ok := stableScanEntry(arena, off, vw, vals)
		if !ok {
			busy = true
			return false
		}
		rec.rows = append(rec.rows, scanRowRec{key: k, off: off, incver: incver})
		if live {
			out = append(out, ScanRow{Key: k, Val: (*vals)[len(*vals)-vw:]})
		}
		return limit <= 0 || len(out) < limit
	})
	e.chargeIndexOp(via)
	e.charge(e.model().HTMPerReadNS * int64(len(rec.rows)*(vw+2)))
	return out, busy
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

// collectScanRemote ships the collection to the host (Section 6.5): the
// host runs the same stamped walk and returns stamps + rows; values arrive
// in the reply, and validation later re-READs the headers one-sided.
func (t *Tx) collectScanRemote(table, node, region int, lo, hi uint64, limit int) ([]ScanRow, error) {
	rs, err := t.e.callRangeScan(node, rangeScanMsg{Region: region, Lo: lo, Hi: hi, Limit: limit},
		t.e.rt.Meta(table).ValueWords)
	if err != nil {
		return nil, t.nodeDown()
	}
	if rs.Busy {
		return nil, t.remoteConflict()
	}
	rec := scanRec{table: table, node: node, region: region,
		segs: rs.Segs, stamps: rs.Stamps}
	var out []ScanRow
	for _, r := range rs.Rows {
		rec.rows = append(rec.rows, scanRowRec{key: r.Key, off: r.Off, incver: r.IncVer})
		if r.Val != nil {
			out = append(out, ScanRow{Key: r.Key, Val: r.Val})
		}
	}
	t.scans = append(t.scans, rec)
	return out, nil
}

// callRangeScan ships one range collection to the host over SEND/RECV.
func (e *Executor) callRangeScan(node int, m rangeScanMsg, vw int) (rangeScanResp, error) {
	// Reply size for the cost model: the row count is unknown before the
	// call, so charge for the bounded case and a nominal page otherwise.
	respSz := 256 + m.Limit*(3+vw)*8
	if m.Limit <= 0 {
		respSz = 4096
	}
	var resp any
	err := e.verbRetry(func() error {
		var cerr error
		resp, cerr = e.call(node, msgRangeScan, m, 1, 40, respSz)
		return cerr
	})
	if err != nil {
		return rangeScanResp{}, ErrNodeDown
	}
	rs, ok := resp.(rangeScanResp)
	if !ok {
		return rangeScanResp{}, ErrNodeDown
	}
	return rs, nil
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
