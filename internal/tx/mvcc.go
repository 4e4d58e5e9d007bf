package tx

import (
	"errors"
	"fmt"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// The MVCC snapshot arm (PolicyMVCC, and PolicyAdaptive's wide-scan route).
//
// A read-only transaction on this arm takes one cluster-wide snapshot stamp
// S (cluster.SnapshotStamp) and resolves every key to the version current at
// S against the entry's in-line version chain — ONE entry+chain READ per
// key, no lease CAS, no commit-time confirm wave, no segment-stamp scan
// re-validation. The consistency argument is entirely in the stamps:
//
//   - Every commit anywhere in the cluster carries a chain stamp > S (the
//     bracket protocol in cluster/snapshot.go), so no commit can materialize
//     "inside" the snapshot: a multi-row commit is observed all-or-nothing,
//     and in-flight writers never block the reader — resolving past a
//     write-locked head is safe because that writer's stamp exceeds S.
//
//   - Phantom safety for scans needs no stamp re-validation because erased
//     rows stay in the tree as stamped dead versions until the cluster's
//     snapshot floor passes their death stamp (Runtime.drainRemovals): a row
//     the tree walk misses was dead at S, and a row inserted after S
//     resolves to a dead version (or truncates to the fallback). The reader
//     registers S (Worker.BeginSnapshotRead) before walking so the removal
//     gate cannot unlink a dead row out from under it.
//
//   - Torn images (arena reads are only per-line consistent) are caught by
//     the head/tail incver check inside kvs.ResolveAtStamp; writers publish
//     tail-first, head-last (kvs/layout.go).
//
// When a chain cannot answer — truncated below S (the ring wrapped, or an
// entry predates stamping) or a torn image — the whole Exec falls back to
// the PR-8 confirm-wave scheme (errMVCCFallback), counted in
// obs.EvMVCCFallback. The arm never retries a chain in place: that would be
// the second wave it exists to avoid.

// errMVCCFallback aborts an MVCC attempt whose chains could not serve the
// snapshot; ExecRO retries under the confirm-wave scheme.
var errMVCCFallback = errors.New("tx: version chain unresolvable at snapshot, falling back")

// enterMVCC switches this attempt onto the snapshot arm: registers against
// the removal gate, then takes the cluster-wide stamp. Returns false when
// chains are disabled cluster-wide.
//
// The register-then-read order closes a race with a concurrent
// drainRemovals: register first (pinning the gate's floor at ≤ s0), then
// take the snapshot with a SECOND stamp read. A drain whose active-reader
// scan missed the registration computed its floor from a stamp read that
// precedes our second read, so every row it unlinked died at or below our
// snapshot — invisible at snap anyway; a drain that saw the registration is
// floored at s0 ≤ snap. Taking the single first read as the snapshot would
// let a drain running between the read and the registration unlink a row
// erased just after it — a row the snapshot still owes.
func (ro *RO) enterMVCC() bool {
	if ro.e.rt.C.MVCCDepth() == 0 {
		return false
	}
	c := ro.e.rt.C
	s0 := c.SnapshotStamp()
	ro.e.w.BeginSnapshotRead(s0) // conservative: s0 ≤ snap pins strictly more
	ro.snap = c.SnapshotStamp()
	ro.mvcc = true
	return true
}

// routeScanMVCC is PolicyAdaptive's footprint rule: a read-only Scan whose
// requested fanout reaches mvccScanFanout switches the whole transaction onto
// the MVCC arm — wide scans amortize the per-row chain READ against the confirm
// wave, narrow ones don't. Only a transaction with no confirm-wave state yet may
// switch: one attempt must keep a single serialization point.
func (ro *RO) routeScanMVCC(lo, hi uint64, limit int) bool {
	if ro.policy != PolicyAdaptive || ro.noMVCC ||
		len(ro.recs) > 0 || len(ro.scans) > 0 {
		return false
	}
	span := hi - lo + 1 // hi ≥ lo checked by Scan; 0 means the full key space
	fanout := int(1) << 30
	if span != 0 && span < 1<<30 {
		fanout = int(span)
	}
	if limit > 0 && limit < fanout {
		fanout = limit
	}
	return fanout >= mvccScanFanout && ro.enterMVCC()
}

// mvccRead resolves one key at the snapshot stamp: locate the entry (tree or
// hash lookup, local or remote), fetch the whole entry+chain image in one
// READ, resolve with kvs.ResolveAtStamp. A key absent from the index was
// dead at the snapshot too: physical removal is gated on the snapshot floor,
// which our registered stamp pins at or below snap.
func (ro *RO) mvccRead(table int, key uint64) ([]uint64, error) {
	e := ro.e
	sh := e.w.Obs
	mstart := int64(e.w.VClock.Now())
	h := e.handle(table, key)
	ro.stampView(h.part)
	vw := e.rt.Meta(table).ValueWords
	depth := e.chainDepth(&h)
	if depth <= 0 {
		return nil, errMVCCFallback
	}
	if found, err := e.resolve(&h); err != nil {
		return nil, err
	} else if !found {
		sh.Observe(obs.PhaseMVCC, int64(e.w.VClock.Now())-mstart)
		return nil, ErrNotFound
	}

	img := e.image(kvs.EntryImageWords(vw, depth))
	if h.node == e.w.Node.ID {
		e.rt.arenaOf(h.node, h.region).Read(img, h.off)
		e.charge(int64(len(img)) * e.model().HTMPerReadNS)
	} else if err := e.verbRetry(func() error {
		return e.w.QP.TryRead(h.node, h.region, h.off, img)
	}); err != nil {
		return nil, ErrNodeDown
	}
	res := kvs.ResolveAtStamp(img, vw, depth, key, ro.snap)
	sh.Observe(obs.PhaseMVCC, int64(e.w.VClock.Now())-mstart)
	switch res.Status {
	case kvs.ResolveCurrent, kvs.ResolveRetired:
		sh.Inc(obs.EvMVCCRead)
		r := e.getRec()
		r.recHandle, r.buf = h, append(r.buf, res.Value...)
		ro.recs = append(ro.recs, r)
		ro.index[refKey{table, key}] = r
		return r.buf, nil
	case kvs.ResolveDead:
		sh.Inc(obs.EvMVCCRead)
		return nil, ErrNotFound
	case kvs.ResolveTruncated:
		sh.Inc(obs.EvMVCCTrunc)
		return nil, errMVCCFallback
	default: // ResolveInconsistent: torn image or a recycled/stale location
		sh.Inc(obs.EvMVCCInconsist)
		e.invalidate(&h)
		return nil, errMVCCFallback
	}
}

// mvccScan is the snapshot arm of RO.Scan: walk the tree for in-range
// offsets, resolve every row's chain at the snapshot stamp, keep the rows
// live at the stamp. No segment-stamp collection and no confirm-time
// re-validation — see the package comment for why dead versions in the
// chain make that sound. Remote ranges ship the stamp to the host
// (msgMVCCScan), which resolves rows in place and returns only values.
func (ro *RO) mvccScan(table, node, region int, lo, hi uint64, limit int) ([]ScanRow, error) {
	e := ro.e
	sh := e.w.Obs
	mstart := int64(e.w.VClock.Now())
	var out []ScanRow
	if node == e.w.Node.ID {
		o := e.w.Node.Ordered(region)
		var offs []KeyOff
		via := o.ScanAt(e.finger(region), lo, hi, func(k uint64, off memory.Offset) bool {
			offs = append(offs, KeyOff{k, off})
			// Dead rows resolve away below, so the walk over-collects: any
			// row may be dead at the stamp. Cap generously rather than
			// exactly; resolution trims to limit.
			return limit <= 0 || len(offs) < 4*limit
		})
		e.chargeIndexOp(via)
		vw := o.ValueWords()
		depth := o.ChainDepth()
		if depth <= 0 {
			return nil, errMVCCFallback
		}
		arena := o.Arena()
		img := e.image(kvs.EntryImageWords(vw, depth))
		for _, ko := range offs {
			arena.Read(img, ko.Off)
			res := kvs.ResolveAtStamp(img, vw, depth, ko.Key, ro.snap)
			switch res.Status {
			case kvs.ResolveCurrent, kvs.ResolveRetired:
				out = append(out, ScanRow{Key: ko.Key, Val: append([]uint64(nil), res.Value...)})
			case kvs.ResolveDead:
				// not present at the snapshot
			case kvs.ResolveTruncated:
				sh.Inc(obs.EvMVCCTrunc)
				return nil, errMVCCFallback
			default:
				sh.Inc(obs.EvMVCCInconsist)
				return nil, errMVCCFallback
			}
			if limit > 0 && len(out) >= limit {
				break
			}
		}
		e.charge(int64(len(offs)*len(img)) * e.model().HTMPerReadNS)
	} else {
		m := mvccScanMsg{Region: region, Lo: lo, Hi: hi, Limit: limit, Stamp: ro.snap}
		resp, err := e.callMVCCScan(node, m, e.rt.Meta(table).ValueWords)
		if err != nil {
			return nil, err
		}
		if resp.Fallback {
			sh.Inc(obs.EvMVCCTrunc)
			return nil, errMVCCFallback
		}
		for _, r := range resp.Rows {
			out = append(out, ScanRow{Key: r.Key, Val: r.Val})
		}
	}
	sh.Observe(obs.PhaseMVCC, int64(e.w.VClock.Now())-mstart)
	sh.Inc(obs.EvScan)
	sh.Inc(obs.EvMVCCRead)
	sh.Add(obs.EvScanRow, int64(len(out)))
	return out, nil
}

// mvccScanMsg ships a snapshot-stamped range collection to the host.
type mvccScanMsg struct {
	Region int
	Lo, Hi uint64
	Limit  int
	Stamp  uint64
}

type mvccScanResp struct {
	Rows []ScanRow
	// Fallback reports a row whose chain could not serve the stamp; the
	// coordinator retries under the confirm-wave scheme.
	Fallback bool
}

// callMVCCScan ships one snapshot range collection over SEND/RECV.
func (e *Executor) callMVCCScan(node int, m mvccScanMsg, vw int) (mvccScanResp, error) {
	respSz := 64 + m.Limit*(1+vw)*8
	if m.Limit <= 0 {
		respSz = 4096
	}
	var resp any
	err := e.verbRetry(func() error {
		var cerr error
		resp, cerr = e.call(node, msgMVCCScan, m, 1, 40, respSz)
		return cerr
	})
	if err != nil {
		return mvccScanResp{}, ErrNodeDown
	}
	rs, ok := resp.(mvccScanResp)
	if !ok {
		return mvccScanResp{}, ErrNodeDown
	}
	return rs, nil
}

// execMVCCScan is the host side of a remote snapshot scan: the same walk and
// per-row resolution mvccScan runs locally. Resolution happens on the host
// against local memory — the reply carries only the rows live at the stamp,
// not images, so the wire cost matches a plain range scan.
func (rt *Runtime) execMVCCScan(n *cluster.Node, m mvccScanMsg) any {
	o, ok := n.OrderedRegion(m.Region)
	if !ok {
		return fmt.Errorf("tx: node %d has no ordered region %d", n.ID, m.Region)
	}
	vw := o.ValueWords()
	depth := o.ChainDepth()
	var resp mvccScanResp
	if depth <= 0 {
		resp.Fallback = true
		return resp
	}
	arena := o.Arena()
	// No executor's scratch on the host: a narrow row's image lives on the stack.
	var stack [128]uint64
	img := stack[:]
	if n := kvs.EntryImageWords(vw, depth); n <= len(stack) {
		img = img[:n]
	} else {
		img = make([]uint64, n)
	}
	o.Scan(m.Lo, m.Hi, func(k uint64, off memory.Offset) bool {
		arena.Read(img, off)
		res := kvs.ResolveAtStamp(img, vw, depth, k, m.Stamp)
		switch res.Status {
		case kvs.ResolveCurrent, kvs.ResolveRetired:
			resp.Rows = append(resp.Rows,
				ScanRow{Key: k, Val: append([]uint64(nil), res.Value...)})
		case kvs.ResolveDead:
		default:
			resp.Fallback = true
			return false
		}
		return m.Limit <= 0 || len(resp.Rows) < m.Limit
	})
	return resp
}
