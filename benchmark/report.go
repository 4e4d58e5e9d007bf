package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"drtm/internal/obs"
)

// workloadResult is everything one workload reports.
type workloadResult struct {
	Name      string `json:"name"`
	Check     string `json:"check"` // "pass" or "fail"
	CheckErr  string `json:"check_error,omitempty"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Committed int64  `json:"committed"`
	// FailedShare is failed ÷ attempted; -compare holds it to an absolute
	// bound because its healthy value is 0.
	FailedShare float64 `json:"failed_share"`
	// MeasuredS is how long the measured run lasted: the requested seconds,
	// or less where maxTxns ended it first.
	MeasuredS float64           `json:"measured_s"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

// warmupShare of the run length is driven and discarded before measuring, so
// location caches, executor pools and the heat table are in steady state.
const warmupShare = 0.05

// minSetupTotal keeps short set-ups honest: a 0.1 s set-up is mostly page
// faults on a fresh 400 MB heap and varied by a third between processes when
// sampled three times, so set-up is repeated until it has been timed for this
// long in total (or maxSetups times).
const (
	minSetupTotal = 2 * time.Second
	maxSetups     = 10
)

// runWorkload sets the workload up at least minSetups times (setup_s is the
// median; see minSetupTotal), warms the last deployment up, measures it for
// dur with all tracing off, runs the correctness gates, and — when
// traceDur > 0 — drives a fresh deployment for traceDur with tracing on to
// fill the per-layer metrics. A failed gate is reported in the result, not as
// an error.
func runWorkload(w workload, p params, dur time.Duration, minSetups int, traceDur time.Duration, log io.Writer) (*workloadResult, error) {
	var (
		d          *deployment
		setupTimes []float64
		setupTotal time.Duration
		storeBytes uint64
	)
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < minSetupTotal); i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		nd, err := w.build(p)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(t0)
		d = nd
		setupTotal += took
		setupTimes = append(setupTimes, took.Seconds())
		runtime.GC()
		runtime.ReadMemStats(&m1)
		storeBytes = m1.HeapAlloc - m0.HeapAlloc
	}
	defer func() { d.stop() }()

	run(d, time.Duration(float64(dur)*warmupShare), false)
	r := run(d, dur, false)

	res := &workloadResult{
		Name: w.name, Check: "pass",
		Attempted: r.attempted, Failed: r.failed, Committed: r.committed,
		FailedShare: ratio(float64(r.failed), float64(r.attempted)),
		MeasuredS:   r.elapsed.Seconds(),
	}
	fail := func(err error) {
		res.Check, res.CheckErr = "fail", err.Error()
		fmt.Fprintf(log, "%s: CHECK FAILED: %v\n", w.name, err)
	}
	for _, e := range r.firstErrs {
		fmt.Fprintf(log, "%s: FAILED TRANSACTION: %s\n", w.name, e)
	}
	if err := d.check(); err != nil {
		fail(err)
	}
	var fo failoverStats
	if d.failover != nil && res.Check == "pass" {
		var err error
		if fo, err = d.failover(); err != nil {
			fail(err)
		}
	}

	v := values{}
	spreads := values{}
	v["setup_s"], spreads["setup_s"] = medianIQR(setupTimes)
	v["model_txn_per_s"] = r.modelTxnPerS
	v["model_p50_us"] = r.model.percentile(50) / 1e3
	v["model_p99_us"] = r.model.percentile(99) / 1e3
	n := float64(r.committed)
	v["allocs_per_txn"] = ratio(float64(r.mallocs), n)
	v["alloc_bytes_per_txn"] = ratio(float64(r.allocBytes), n)
	v["live_heap_mb"] = float64(r.liveHeapBytes) / (1 << 20)
	var err error
	if res.EndToEnd, err = v.pick(endToEnd, spreads); err != nil {
		return nil, err
	}
	if traceDur == 0 {
		return res, nil
	}

	counterValues(v, r, fo)
	v["kvs.store_bytes_per_user_byte"] = ratio(float64(storeBytes), float64(d.userBytes))
	td, err := w.build(p)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up for the traced run: %w", w.name, err)
	}
	d.stop()
	d = td
	run(d, time.Duration(float64(traceDur)*warmupShare), false)
	tr := run(d, traceDur, true)
	v["tx.model_lock_us_p50"], v["tx.model_htm_us_p50"], v["tx.model_commit_us_p50"] = phaseMedians(d.c.Obs)
	v["tx.model_validate_us_p50"] = float64(tr.obs.Phases[obs.PhaseValidate].Percentile(50)) / 1e3
	v["obs.trace_overhead_share"] = 1 - ratio(tr.wallTxnPerS, r.wallTxnPerS)
	v["obs.trace_model_drift_share"] = ratio(tr.modelTxnPerS, r.modelTxnPerS) - 1
	path, err := writeTrace(p.outDir, w.name, tr.spans)
	if err != nil {
		return nil, fmt.Errorf("%s: write trace: %w", w.name, err)
	}
	fmt.Fprintf(log, "%s: traced run: %d txns, wall %.0f txn/s, model %.0f txn/s, %d spans -> %s\n",
		w.name, tr.committed, tr.wallTxnPerS, tr.modelTxnPerS, len(tr.spans), path)
	if res.PerLayer, err = v.pick(workloadLayer(), nil); err != nil {
		return nil, err
	}
	return res, nil
}

// counterValues fills the wall.*, txn.* and counter-derived per-layer metrics from
// the measured (untraced) run r, normalised per committed transaction.
func counterValues(v values, r *runResult, fo failoverStats) {
	v["wall.txn_per_s"] = r.wallTxnPerS
	v["wall.p50_us"] = r.wallP50NS / 1e3
	v["wall.p99_us"] = r.wallP99NS / 1e3
	v["wall.cpu_us_per_txn"] = ratio(float64(r.cpuNS)/1e3, float64(r.committed))
	for t, name := range txnNames {
		v["txn."+name+".wall_p50_us"] = r.wall[t].percentile(50) / 1e3
		v["txn."+name+".time_share"] = ratio(float64(r.busyNS[t]), float64(r.busyTotalNS))
	}
	c := func(ev obs.Event) float64 { return float64(r.obs.Counter(ev)) }
	n := float64(r.committed)
	rw, ro := c(obs.EvTxCommit), c(obs.EvROCommit)

	v["tx.attempts_per_commit"] = ratio(rw+c(obs.EvTxRetry), rw)
	v["tx.ro_retries_per_commit"] = ratio(c(obs.EvRORetry), ro)
	v["tx.fallback_share"] = ratio(c(obs.EvFallback), rw)
	v["tx.lock_conflicts_per_txn"] = ratio(c(obs.EvRemoteLockConflict), n)
	v["tx.spec_validate_fail_share"] = ratio(c(obs.EvSpecValidateFail), c(obs.EvSpecRead))
	v["tx.adaptive_spec_share"] = ratio(c(obs.EvAdaptSpec), c(obs.EvAdaptSpec)+c(obs.EvAdaptLease))
	v["tx.mvcc_fallback_share"] = ratio(c(obs.EvMVCCFallback), ro)

	aborts := c(obs.EvHTMConflictAbort) + c(obs.EvHTMCapacityAbort) + c(obs.EvHTMLockedAbort) +
		c(obs.EvHTMLeaseAbort) + c(obs.EvHTMExplicitAbort)
	v["htm.aborts_per_commit"] = ratio(aborts, c(obs.EvHTMCommit))
	v["htm.conflict_abort_share"] = ratio(c(obs.EvHTMConflictAbort), aborts)
	v["htm.capacity_abort_share"] = ratio(c(obs.EvHTMCapacityAbort), aborts)
	v["htm.lease_locked_abort_share"] = ratio(c(obs.EvHTMLockedAbort)+c(obs.EvHTMLeaseAbort), aborts)

	verbs := c(obs.EvRDMARead) + c(obs.EvRDMAWrite) + c(obs.EvRDMACAS) + c(obs.EvRDMAFAA) + c(obs.EvVerbsMsg)
	v["rdma.reads_per_txn"] = ratio(c(obs.EvRDMARead), n)
	v["rdma.writes_per_txn"] = ratio(c(obs.EvRDMAWrite), n)
	v["rdma.cas_per_txn"] = ratio(c(obs.EvRDMACAS), n)
	v["rdma.msgs_per_txn"] = ratio(c(obs.EvVerbsMsg), n)
	// PhaseBatchOps observes the work requests of each polled doorbell batch.
	batches := r.obs.Phases[obs.PhaseBatchOps]
	v["rdma.wrs_per_batch"] = ratio(float64(batches.Sum), float64(batches.Count))
	v["rdma.verb_fault_share"] = ratio(c(obs.EvVerbFault), verbs)

	v["kvs.cache_hit_rate"] = ratio(float64(r.cacheHits), float64(r.cacheHits+r.cacheMisses))
	v["kvs.cache_invals_per_txn"] = ratio(float64(r.cacheInvals), n)
	v["kvs.chain_retires_per_txn"] = ratio(c(obs.EvChainRetire), n)

	v["nvram.log_records_per_txn"] = ratio(c(obs.EvLogRecord), n)
	v["cluster.log_appends_per_txn"] = ratio(c(obs.EvLogAppend), n)
	v["cluster.backup_bytes_per_txn"] = ratio(c(obs.EvBackupBytes), n)
	v["cluster.fence_rejects"] = c(obs.EvFenceReject)
	v["cluster.redo_tail_len"] = fo.redoTailLen
	v["cluster.promote_ms"] = fo.promoteMS

	v["vtime.wall_ns_per_model_ns"] = ratio(float64(r.busyTotalNS), float64(r.modelNS))
}

// printMetrics lists metrics by name with value and unit, in table order.
func printMetrics(out io.Writer, prefix string, defs []metricDef, ms map[string]metric) {
	for _, d := range defs {
		if m, ok := ms[d.Name]; ok {
			fmt.Fprintf(out, "%s%-40s %16.4f %s\n", prefix, d.Name, m.Value, m.Unit)
		}
	}
}
