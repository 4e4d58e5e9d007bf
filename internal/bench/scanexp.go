package bench

import (
	"fmt"

	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/tx"
)

// The `scan` experiment prices a read-only range read's two possible arms
// over the ordered store (Section 6.5: ordered tables have no one-sided
// lookup, so every point access ships a B+-tree walk to the host):
//
//	ro-scan — Tx/RO range scan: ONE shipped range collection returns every
//	          in-range row with its version anchors; commit confirms the
//	          range with segment-stamp re-reads (phantom protection) plus
//	          the standard RO version wave.
//	lease   — the same rows fetched as per-key point reads, each paying a
//	          shipped lookup, a lease CAS and a value READ.
//
// The scan arm amortizes the host round-trip across the whole range, so its
// advantage grows linearly with fanout; the acceptance test pins it at >=2x
// for fanout 8. This is the scan-side analogue of the occ experiment's
// lease-vs-spec comparison.
func runScan(o Options) *Result {
	res := &Result{
		ID:    "scan",
		Title: "RO range scan vs per-key lease reads over the ordered store",
		Headers: []string{"fanout", "arm", "us/txn", "us/row",
			"retries/txn", "vs lease"},
	}
	txns := 400
	if o.Quick {
		txns = 100
	}
	for _, fanout := range []int{2, 8, 32} {
		var leaseUS float64
		for _, arm := range []string{"lease", "ro-scan"} {
			m := measureScan(txns, fanout, arm == "ro-scan")
			ratio := "1.00x"
			if arm == "lease" {
				leaseUS = m.usPerTxn
			} else if m.usPerTxn > 0 {
				ratio = fmt.Sprintf("%.2fx", leaseUS/m.usPerTxn)
			}
			res.AddRow(fmt.Sprintf("%d", fanout), arm,
				fmt.Sprintf("%.1f", m.usPerTxn),
				fmt.Sprintf("%.2f", m.usPerTxn/float64(fanout)),
				fmt.Sprintf("%.3f", m.retriesPerTx), ratio)
		}
	}
	res.Note("Both arms read one remote entity's whole row range inside an RO txn.")
	res.Note("lease: per row, a shipped B+-tree lookup + lease CAS + entry READ;")
	res.Note("ro-scan: one shipped range collection, confirmed by segment-stamp re-reads.")
	res.Note("The gap is the per-row host round-trip + CAS the scan amortizes away.")
	return res
}

const (
	scanTable    = 9
	scanEntities = 64 // per node
	scanSegShift = 8  // entity = key>>8: one stamp segment per entity
)

// buildScanRig populates an ordered table with `fanout` rows per entity,
// entities striped across nodes.
func buildScanRig(nodes, workers, fanout int) (*tx.Runtime, func()) {
	c := cluster.New(simClusterConfig(nodes, workers))
	c.Start()
	rt := tx.NewRuntime(c, func(table int, key uint64) int {
		return int(key>>scanSegShift) % nodes
	})
	rt.DefineOrderedSeg(scanTable, 4*scanEntities*fanout, 2, scanSegShift)
	for e := 0; e < nodes*scanEntities; e++ {
		o := c.Node(e % nodes).Ordered(scanTable)
		for i := 0; i < fanout; i++ {
			if err := o.Insert(uint64(e)<<scanSegShift|uint64(i),
				[]uint64{uint64(e), uint64(i)}); err != nil {
				panic(err)
			}
		}
	}
	return rt, c.Stop
}

type scanMetrics struct {
	usPerTxn     float64
	retriesPerTx float64
}

// measureScan runs txns RO transactions from node 0, each reading one
// node-1 entity's full range — as a single scan or as per-key reads.
func measureScan(txns, fanout int, scan bool) scanMetrics {
	rt, stop := buildScanRig(2, 1, fanout)
	defer stop()
	resetClocks(rt)
	e := rt.Executor(0, 0)
	before := rt.C.Obs.Snapshot()
	v0 := rt.C.Worker(0, 0).VClock.Now()

	for t := 0; t < txns; t++ {
		entity := uint64(1 + 2*(t%scanEntities)) // odd entities live on node 1
		lo := entity << scanSegShift
		err := e.ExecRO(func(ro *tx.RO) error {
			if scan {
				rows, err := ro.Scan(scanTable, lo, lo|(1<<scanSegShift-1), 0)
				if err != nil {
					return err
				}
				if len(rows) != fanout {
					return fmt.Errorf("bench: scan saw %d rows, want %d", len(rows), fanout)
				}
				return nil
			}
			for i := 0; i < fanout; i++ {
				if _, err := ro.Read(scanTable, lo|uint64(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
	}

	sn := rt.C.Obs.Snapshot().Delta(before)
	m := scanMetrics{
		usPerTxn: float64(rt.C.Worker(0, 0).VClock.Now()-v0) / 1e3 / float64(txns),
	}
	if commits := sn.Counters[obs.EvROCommit] + sn.Counters[obs.EvTxCommit]; commits > 0 {
		m.retriesPerTx = float64(sn.Counters[obs.EvTxRetry]+sn.Counters[obs.EvRORetry]) / float64(commits)
	}
	return m
}

func init() {
	Register(Experiment{ID: "scan", Title: "RO range scan vs per-key lease reads", Run: runScan})
}
