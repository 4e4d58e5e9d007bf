package bench

import (
	"fmt"

	"drtm/internal/obs"
	"drtm/internal/tx"
)

// The `mvcc` experiment prices the read-only scan's third arm — PolicyMVCC
// snapshot reads over the per-entry version chains — against the PR-8
// confirm-wave scan, across a fanout × write-pressure sweep:
//
//	ro-scan — one shipped range collection, confirmed by segment-stamp and
//	          row-header re-reads at commit. A writer touching the range
//	          between collection and confirm throws the whole attempt away.
//	mvcc    — one snapshot-stamped range collection resolved against the
//	          version chains on the host; no confirm wave, and a concurrent
//	          writer costs nothing (its commit stamp exceeds the snapshot,
//	          so resolution returns the pre-write version).
//	adaptive— PolicyAdaptive's footprint rule: a scan of 32 rows or more
//	          takes the snapshot arm, a narrower one the confirm wave.
//
// Write pressure is staged deterministically: in write-heavy cells every RO
// gets one conflicting overwrite committed inside its scanned range between
// collection and confirm (first attempt only), so the confirm-wave arm pays
// a full retry per transaction while the snapshot arm resolves past the
// write. TestMVCCAcceptance (wired into `make mvcc` / `make check`) pins the
// snapshot arm's >= 1.5x win at fanout >= 32 under writes, and adaptive equal
// to the arm its footprint rule picks in every cell. The narrow write-hot cell
// is the rule's known loss: a caller with such scans picks PolicyMVCC
// (ExecROWith) itself.
func runMVCC(o Options) *Result {
	res := &Result{
		ID:    "mvcc",
		Title: "Snapshot (MVCC) RO scans vs confirm-wave scans over version chains",
		Headers: []string{"fanout", "writes", "arm", "us/txn", "us/row",
			"retries/txn", "mvcc-reads", "fallbacks", "vs ro-scan"},
	}
	txns := 300
	if o.Quick {
		txns = 80
	}
	for _, cell := range mvccSweep {
		var base float64
		for _, arm := range mvccArms {
			m := measureMVCCScan(txns, cell.fanout, cell.writes, arm.policy)
			ratio := "1.00x"
			if arm.policy == tx.PolicySpeculative {
				base = m.usPerTxn
			} else if m.usPerTxn > 0 {
				ratio = fmt.Sprintf("%.2fx", base/m.usPerTxn)
			}
			wlabel := "none"
			if cell.writes {
				wlabel = "heavy"
			}
			res.AddRow(fmt.Sprintf("%d", cell.fanout), wlabel, arm.name,
				fmt.Sprintf("%.1f", m.usPerTxn),
				fmt.Sprintf("%.2f", m.usPerTxn/float64(cell.fanout)),
				fmt.Sprintf("%.3f", m.retriesPerTx),
				fmt.Sprintf("%d", m.mvccReads),
				fmt.Sprintf("%d", m.fallbacks), ratio)
		}
	}
	res.Note("Each RO scans one remote entity's full row range (limit = fanout).")
	res.Note("writes=heavy: one overwrite commits inside the scanned range between")
	res.Note("collection and confirm — the confirm wave fails, the snapshot resolves past it.")
	res.Note("adaptive: fanout >= 32 runs the snapshot arm, narrower scans the confirm wave;")
	res.Note("a caller with narrow write-hot scans picks PolicyMVCC (ExecROWith) itself.")
	return res
}

// The sweep prices the footprint rule on both of its sides: wide scans
// (fanout >= 32) route the snapshot arm up front; the narrow contended cell
// keeps the confirm wave and pays its retry.
var mvccSweep = []struct {
	fanout int
	writes bool
}{
	{8, true},
	{32, false},
	{32, true},
	{64, true},
}

// mvccEntities is how many remote entities the read-only transactions take in
// turn.
const mvccEntities = 4

var mvccArms = []struct {
	name   string
	policy tx.ReadPolicy
}{
	{"ro-scan", tx.PolicySpeculative},
	{"mvcc", tx.PolicyMVCC},
	{"adaptive", tx.PolicyAdaptive},
}

type mvccMetrics struct {
	usPerTxn     float64
	retriesPerTx float64
	mvccReads    int64
	fallbacks    int64
	truncs       int64
	inconsist    int64
}

// measureMVCCScan runs txns RO scans from node 0 over node-1 entities under
// one read policy. With writes, a second worker commits one overwrite to a
// scanned row from inside the RO body (first attempt only): deterministic
// write pressure — the confirm-wave arm retries every transaction exactly
// once, the snapshot arm never does.
func measureMVCCScan(txns, fanout int, writes bool, p tx.ReadPolicy) mvccMetrics {
	rt, stop := buildScanRig(2, 2, fanout, 4) // PolicyMVCC's chains, for every arm
	defer stop()
	rt.ReadPolicy = p
	resetClocks(rt)
	e := rt.Executor(0, 0)
	writer := rt.Executor(1, 1)
	before := rt.C.Obs.Snapshot()
	v0 := rt.C.Worker(0, 0).VClock.Now()

	for t := 0; t < txns; t++ {
		entity := uint64(1 + 2*(t%mvccEntities)) // odd entities live on node 1
		lo := entity << scanSegShift
		wrote := false
		err := e.ExecRO(func(ro *tx.RO) error {
			rows, err := ro.Scan(scanTable, lo, lo|(1<<scanSegShift-1), fanout)
			if err != nil {
				return err
			}
			if len(rows) != fanout {
				return fmt.Errorf("bench: scan saw %d rows, want %d", len(rows), fanout)
			}
			if writes && !wrote {
				wrote = true
				// Cycle the written row across the whole range so one row's
				// depth-limited chain spans far more real time than the
				// snapshot stamp's staleness bound — otherwise a fast rig
				// (txns every few µs) can legitimately truncate past a hot
				// row's retained history and fall back.
				key := lo | uint64((t/mvccEntities)%fanout)
				werr := writer.Exec(func(t1 *tx.Tx) error {
					if err := t1.W(scanTable, key); err != nil {
						return err
					}
					return t1.Execute(func(lc *tx.Local) error {
						v, err := lc.Read(scanTable, key)
						if err != nil {
							return err
						}
						return lc.Write(scanTable, key, []uint64{v[0], v[1] + 1})
					})
				})
				if werr != nil {
					return fmt.Errorf("bench: staged overwrite: %w", werr)
				}
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
	}

	sn := rt.C.Obs.Snapshot().Delta(before)
	m := mvccMetrics{
		usPerTxn:  float64(rt.C.Worker(0, 0).VClock.Now()-v0) / 1e3 / float64(txns),
		mvccReads: sn.Counters[obs.EvMVCCRead],
		fallbacks: sn.Counters[obs.EvMVCCFallback],
		truncs:    sn.Counters[obs.EvMVCCTrunc],
		inconsist: sn.Counters[obs.EvMVCCInconsist],
	}
	if commits := sn.Counters[obs.EvROCommit]; commits > 0 {
		m.retriesPerTx = float64(sn.Counters[obs.EvRORetry]) / float64(commits)
	}
	return m
}

func init() {
	Register(Experiment{ID: "mvcc", Title: "Snapshot RO scans over version chains", Run: runMVCC})
}
