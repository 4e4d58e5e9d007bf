package main

import (
	"fmt"
	"strings"
)

// metricDef names one reported number. BENCHMARK.json repeats these tables
// (TestBenchmarkJSONMatchesTables keeps the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median
}

// endToEnd is what a user of the engine sees and the driver holds to a bound:
// set-up time on the host's clock, throughput and latency on the model's
// (internal/vtime virtual time, what reproduces the paper), and what a
// transaction allocates and the store keeps. Each bound is about three times
// the widest inter-quartile spread of the metric over ten seeds on any
// workload, capped at the contract's 0.25 (README "Noise"): tpcc_mix sets the
// model bounds, because its virtual time depends on real-time lease waits.
// Nothing that is proportional to the host's speed is here except the
// mandatory setup_s: see hostLayer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"model_txn_per_s", "txn/s", "higher", 0.1},
	{"model_p50_us", "us", "lower", 0.25},
	{"model_p99_us", "us", "lower", 0.25},
	{"allocs_per_txn", "allocs", "lower", 0.08},
	{"alloc_bytes_per_txn", "B", "lower", 0.06},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// hostLayer is the whole transaction on the host's clock: how many commit
// per second, what a client waits, and what the process burns. They are
// end-to-end in kind but are reported with the layers, without a bound: they
// follow the speed the shared box happens to give the process, and ten runs
// of the same code spread by a quarter of their median on smallbank_repl
// when the driver checked them (README "Noise"). A metric that moves that
// much on its own cannot gate a change; compare these from runs made close
// together, alternating the two sides.
var hostLayer = []metricDef{
	{Name: "wall.txn_per_s", Unit: "txn/s", Better: "higher"},
	{Name: "wall.p50_us", Unit: "us", Better: "lower"},
	{Name: "wall.p99_us", Unit: "us", Better: "lower"},
	{Name: "wall.cpu_us_per_txn", Unit: "us", Better: "lower"},
}

// txnNames lists every transaction type of the four workloads; the index is
// the type id the clients report.
var txnNames = [...]string{
	"new_order", "payment", "order_status", "delivery", "stock_level",
	"send_payment", "balance", "deposit_checking", "withdraw_checking", "transact_savings", "amalgamate",
	"get_subscriber", "get_new_destination", "update_location", "toggle_facility",
	"insert_call_fwd", "delete_call_fwd", "delete_subscriber", "insert_subscriber",
}

const numTxnTypes = len(txnNames)

// Type ids of each workload's first transaction.
const (
	txnTPCCBase      = 0
	txnSmallBankBase = 5
	txnTATPBase      = 11
)

// counterLayer lists the per-layer metrics derived from obs counters and the
// harness over the measured run; ladderLayer the wall-clock rungs timed by
// the ladder. A layer is a package.
var counterLayer = []metricDef{
	{Name: "tx.attempts_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "tx.ro_retries_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "tx.fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "tx.lock_conflicts_per_txn", Unit: "count", Better: "lower"},
	{Name: "tx.spec_validate_fail_share", Unit: "ratio", Better: "lower"},
	{Name: "tx.adaptive_spec_share", Unit: "ratio", Better: "higher"},
	{Name: "tx.mvcc_fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "tx.model_lock_us_p50", Unit: "us", Better: "lower"},
	{Name: "tx.model_htm_us_p50", Unit: "us", Better: "lower"},
	{Name: "tx.model_commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "tx.model_validate_us_p50", Unit: "us", Better: "lower"},
	{Name: "htm.aborts_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "htm.conflict_abort_share", Unit: "ratio", Better: "lower"},
	{Name: "htm.capacity_abort_share", Unit: "ratio", Better: "lower"},
	{Name: "htm.lease_locked_abort_share", Unit: "ratio", Better: "lower"},
	{Name: "rdma.reads_per_txn", Unit: "count", Better: "lower"},
	{Name: "rdma.writes_per_txn", Unit: "count", Better: "lower"},
	{Name: "rdma.cas_per_txn", Unit: "count", Better: "lower"},
	{Name: "rdma.msgs_per_txn", Unit: "count", Better: "lower"},
	{Name: "rdma.wrs_per_batch", Unit: "count", Better: "higher"},
	{Name: "rdma.verb_fault_share", Unit: "ratio", Better: "lower"},
	{Name: "kvs.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "kvs.cache_invals_per_txn", Unit: "count", Better: "lower"},
	{Name: "kvs.chain_retires_per_txn", Unit: "count", Better: "lower"},
	{Name: "kvs.store_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "nvram.log_records_per_txn", Unit: "count", Better: "lower"},
	{Name: "cluster.log_appends_per_txn", Unit: "count", Better: "lower"},
	{Name: "cluster.backup_bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "cluster.fence_rejects", Unit: "count", Better: "lower"},
	{Name: "cluster.redo_tail_len", Unit: "count", Better: "lower"},
	{Name: "cluster.promote_ms", Unit: "ms", Better: "lower"},
	{Name: "vtime.wall_ns_per_model_ns", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "obs.trace_model_drift_share", Unit: "ratio", Better: "lower"},
}

var ladderLayer = []metricDef{
	{Name: "memory.read_64b_ns", Unit: "ns", Better: "lower"},
	{Name: "memory.write_64b_ns", Unit: "ns", Better: "lower"},
	{Name: "memory.cas_ns", Unit: "ns", Better: "lower"},
	{Name: "htm.commit_1line_ns", Unit: "ns", Better: "lower"},
	{Name: "htm.commit_4lines_ns", Unit: "ns", Better: "lower"},
	{Name: "htm.commit_4lines_allocs", Unit: "allocs", Better: "lower"},
	{Name: "htm.readonly_16lines_ns", Unit: "ns", Better: "lower"},
	{Name: "rdma.read_64b_ns", Unit: "ns", Better: "lower"},
	{Name: "rdma.cas_ns", Unit: "ns", Better: "lower"},
	{Name: "rdma.batch16_read_ns_per_wr", Unit: "ns", Better: "lower"},
	{Name: "rdma.call_ns", Unit: "ns", Better: "lower"},
	{Name: "kvs.hash_get_ns", Unit: "ns", Better: "lower"},
	{Name: "kvs.hash_lookup_remote_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "kvs.hash_lookup_remote_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "kvs.ordered_get_ns", Unit: "ns", Better: "lower"},
	{Name: "kvs.ordered_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "kvs.ordered_scan32_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.get_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "nvram.append_8w_ns", Unit: "ns", Better: "lower"},
	{Name: "nvram.encode_redo_ns", Unit: "ns", Better: "lower"},
	{Name: "tx.exec_local_rw1_ns", Unit: "ns", Better: "lower"},
	{Name: "tx.exec_local_rw1_allocs", Unit: "allocs", Better: "lower"},
	{Name: "tx.exec_remote_rw2_ns", Unit: "ns", Better: "lower"},
	{Name: "tx.exec_remote_rw2_allocs", Unit: "allocs", Better: "lower"},
	{Name: "tx.exec_remote_rw2.declare_share", Unit: "ratio", Better: "lower"},
	{Name: "tx.exec_ro20_ns", Unit: "ns", Better: "lower"},
	{Name: "tx.exec_ro20_allocs", Unit: "allocs", Better: "lower"},
	{Name: "tx.exec_ro_scan32_ns", Unit: "ns", Better: "lower"},
}

// workloadLayer returns the per-layer metrics a workload's runs produce: the
// host's view, per transaction type, then counters.
func workloadLayer() []metricDef {
	out := append([]metricDef(nil), hostLayer...)
	for _, t := range txnNames {
		out = append(out,
			metricDef{Name: "txn." + t + ".wall_p50_us", Unit: "us", Better: "lower"},
			// A share has no better direction; "lower" only satisfies the schema.
			metricDef{Name: "txn." + t + ".time_share", Unit: "ratio", Better: "lower"})
	}
	return append(out, counterLayer...)
}

// perLayer returns every per-layer metric in report order.
func perLayer() []metricDef { return append(workloadLayer(), ladderLayer...) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Spread is the within-run inter-quartile range over the median, where
	// the harness has several samples of the metric (repeated set-ups);
	// -compare calls a difference unresolved below it.
	Spread float64 `json:"spread,omitempty"`
}

// values collects metric values by name while a run is evaluated.
type values map[string]float64

// pick returns the metrics that defs names; a name without a value is a bug
// in the harness and reported as an error.
func (v values) pick(defs []metricDef, spreads values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit, Spread: spreads[d.Name]}
	}
	if missing != nil {
		return nil, fmt.Errorf("metrics without a value: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
