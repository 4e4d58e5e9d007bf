// Package drtm is a faithful Go reproduction of DrTM — "Fast In-memory
// Transaction Processing using RDMA and HTM" (Wei et al., SOSP 2015) — as a
// library: strictly serializable distributed transactions whose local part
// runs in an (emulated) HTM region and whose cross-machine coordination
// uses one-sided RDMA verbs, leases for shared locks, an HTM/RDMA-friendly
// key-value store with a location-based cache, read-only transactions,
// transaction chopping, and durability with cooperative recovery.
//
// The hardware the paper requires (Intel RTM, InfiniBand RDMA, a multi-node
// cluster) is simulated in-process with the semantics the protocol depends
// on preserved — see DESIGN.md for the substitution table. The library runs
// a whole logical cluster inside one process:
//
//	db := drtm.MustOpen(drtm.Options{Nodes: 2, WorkersPerNode: 2},
//		func(table int, key uint64) int { return int(key) % 2 })
//	defer db.Close()
//
//	const accounts = 1
//	db.CreateHashTable(accounts, 1024, 1)
//	db.Load(accounts, 1, []uint64{100})
//	db.Load(accounts, 2, []uint64{100})
//
//	e := db.Executor(0, 0) // worker 0 on node 0
//	err := e.Exec(func(t *drtm.Tx) error {
//		if err := t.W(accounts, 1); err != nil { // local
//			return err
//		}
//		if err := t.W(accounts, 2); err != nil { // remote: RDMA-locked
//			return err
//		}
//		return t.Execute(func(lc *drtm.Local) error {
//			a, _ := lc.Read(accounts, 1)
//			b, _ := lc.Read(accounts, 2)
//			if err := lc.Write(accounts, 1, []uint64{a[0] - 10}); err != nil {
//				return err
//			}
//			return lc.Write(accounts, 2, []uint64{b[0] + 10})
//		})
//	})
//
// Afterwards, db.Stats() returns an immutable snapshot of the obs registry —
// every protocol counter by name (db.Stats().Count("htm.abort.conflict")) and
// the phase latency histograms; two snapshots subtract with Delta to scope an
// interval. See the README's Observability section.
//
// See examples/ for runnable programs and cmd/drtm-bench for the harness
// that regenerates the paper's evaluation.
package drtm

import (
	"errors"
	"fmt"
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
	"drtm/internal/tx"
)

// Re-exported transaction-layer types: these are the user-facing API.
type (
	// Tx is a read-write (possibly distributed) transaction context.
	Tx = tx.Tx
	// Local is the transaction body's view inside the HTM region.
	Local = tx.Local
	// RO is a read-only transaction: its reads are leased or speculative,
	// and one confirmation wave validates them (Section 4.5).
	RO = tx.RO
	// Executor runs transactions on behalf of one worker thread.
	Executor = tx.Executor
	// PartitionFunc maps records to their home node; return -1 for
	// replicated (always-local) tables.
	PartitionFunc = tx.Partitioner
	// RecoveryReport summarizes crash recovery.
	RecoveryReport = tx.RecoveryReport
	// FailoverReport summarizes one hot-failover promotion.
	FailoverReport = tx.FailoverReport
	// Access declares one record of a transaction's read/write set for
	// Tx.Stage, which batches the whole set through the async verb engine.
	Access = tx.Access
	// ReadPolicy selects the concurrency-control arm for remote read-set
	// records; see Options.ReadPolicy and the Policy* constants.
	ReadPolicy = tx.ReadPolicy
	// ScanRow is one live row returned by a transactional range scan
	// (Tx.Scan / RO.Scan). Val aliases transaction-private scratch and is
	// only valid inside the transaction body.
	ScanRow = tx.ScanRow
	// IndexSpec declares a secondary index over an ordered base table for
	// DB.CreateIndex: Key maps a base row to its unique index key, and the
	// index entry's first value word carries the base key back.
	IndexSpec = tx.IndexSpec
)

// Read policies, re-exported from the transaction layer.
const (
	// PolicyLease: every remote read takes a lease-based shared lock via
	// RDMA CAS (~14.5µs modeled) — the paper's Section 4.2 protocol.
	PolicyLease = tx.PolicyLease
	// PolicyAdaptive (the default): every remote read is a one-RTT OCC read
	// (~1.5µs), version-validated at commit time, and a conflict retries the
	// transaction; once a transaction has lost 8 attempts, every later read
	// of it takes a lease.
	PolicyAdaptive = tx.PolicyAdaptive
	// PolicyExclusive: remote reads take exclusive write locks (the
	// paper's Figure 17 "no read lease" ablation; no read-read sharing).
	PolicyExclusive = tx.PolicyExclusive
)

// Common errors, re-exported: with the body's own, all a transaction returns.
var (
	ErrUserAbort = tx.ErrUserAbort
	ErrNotFound  = tx.ErrNotFound
	ErrNodeDown  = tx.ErrNodeDown
)

// Options configures a DrTM deployment.
type Options struct {
	// Nodes is the number of logical machines; WorkersPerNode the worker
	// threads per machine (the paper's setup: 6 nodes x 8 workers).
	Nodes          int
	WorkersPerNode int

	// Durability enables NVRAM logging and crash recovery (Section 4.6): the
	// chopping and lock-ahead logs ahead of the HTM region and, without
	// replication, the write-ahead log inside it — each commit's redo record,
	// the one the backups receive under replication — which Recover replays
	// into the rows the crashed machine still holds. No repair reads the
	// lock-ahead log: a crashed machine's locks are found by their state
	// words' owner bits.
	Durability bool

	// ReplicationFactor enables FaRM-style primary–backup replication: every
	// partition is replicated to this many ring-successor backups, committed
	// write-sets are appended to each backup's redo log with one-sided RDMA
	// log-append WRITEs before any lock releases — the rows a transaction
	// wrote on its own machine included — and — with FailureDetection — a
	// confirmed crash promotes the highest-ranked live backup, which replays
	// only its redo tail (hot failover) instead of the full NVRAM replay; the
	// crashed node is never revived. The redo record is the commit record:
	// no write-ahead record is written, and a backup truncates its log as the
	// sender's next record lands. Needs at least ReplicationFactor+1 nodes;
	// Durability is optional, as failover finds a crashed machine's locks by
	// their state words. 0 disables replication.
	ReplicationFactor int

	// FailureDetection enables lease-based membership (Section 4.6): every
	// node heartbeats a shared membership region; survivors detect an
	// expired lease, confirm the death by probing, elect a recovery
	// coordinator with RDMA CAS, and the coordinator replays the crashed
	// node's NVRAM logs and revives it — no oracle notification anywhere.
	// Heartbeats every 1 ms, a 12 ms failure timeout and a 2 ms election
	// stagger per survivor rank (constants of internal/cluster).
	FailureDetection bool

	// FaultSeed seeds the fabric's fault-injection RNG, making a chaos
	// run's verb-level fault sequence reproducible. Zero means seed 1.
	FaultSeed int64

	// ReadPolicy selects the concurrency-control arm for remote read-set
	// records: PolicyLease, PolicyAdaptive or PolicyExclusive (see the
	// constants' docs). The zero value selects PolicyAdaptive: speculation,
	// which the `occ` experiment prices against leases, with a lease for a
	// transaction that keeps losing. The software fallback path always uses
	// locks regardless of policy.
	ReadPolicy ReadPolicy
}

// The shared-lock lease durations: scaled up from the paper's 0.4/1.0 ms
// because lease expiry runs on real time while the simulation host may
// interleave dozens of workers on few cores; see DESIGN.md.
const (
	leaseMicros   = 5_000
	roLeaseMicros = 10_000
)

// normalize validates o and fills defaults, rejecting nonsense values
// instead of silently "fixing" them.
func (o Options) normalize() (Options, error) {
	if o.Nodes < 0 {
		return o, fmt.Errorf("drtm: Options.Nodes must be >= 0, got %d", o.Nodes)
	}
	if o.Nodes == 0 {
		o.Nodes = 1
	}
	if o.Nodes > clock.MaxOwner+1 {
		// The state word's owner field is 8 bits (Figure 4).
		return o, fmt.Errorf("drtm: Options.Nodes %d exceeds the state word's owner capacity (%d)",
			o.Nodes, clock.MaxOwner+1)
	}
	if o.WorkersPerNode < 0 {
		return o, fmt.Errorf("drtm: Options.WorkersPerNode must be >= 0, got %d", o.WorkersPerNode)
	}
	if o.WorkersPerNode == 0 {
		o.WorkersPerNode = 1
	}
	if o.WorkersPerNode > 256 {
		// Transaction IDs pack the worker index into 8 bits.
		return o, fmt.Errorf("drtm: Options.WorkersPerNode %d exceeds 256", o.WorkersPerNode)
	}
	if o.ReplicationFactor < 0 {
		return o, fmt.Errorf("drtm: Options.ReplicationFactor must be >= 0, got %d", o.ReplicationFactor)
	}
	if o.ReplicationFactor >= o.Nodes {
		return o, fmt.Errorf("drtm: Options.ReplicationFactor %d needs at least %d nodes, got %d",
			o.ReplicationFactor, o.ReplicationFactor+1, o.Nodes)
	}
	if o.FaultSeed == 0 {
		o.FaultSeed = 1
	}
	if !o.ReadPolicy.Valid() {
		return o, fmt.Errorf("drtm: unknown Options.ReadPolicy %d", int(o.ReadPolicy))
	}
	if o.ReadPolicy == tx.PolicyDefault {
		o.ReadPolicy = PolicyAdaptive
	}
	return o, nil
}

// DB is an open DrTM deployment: a simulated cluster plus the transaction
// runtime.
//
// The exported C and RT fields are escape hatches into the internal layers
// for tests and experiments that need to reach below the public API (e.g.
// direct shard access or runtime tuning knobs). They are NOT part of the
// stable API: prefer the DB accessors — Nodes, WorkersPerNode, Stats,
// Executor, WorkerVirtualTime — which cover normal use.
type DB struct {
	C  *cluster.Cluster
	RT *tx.Runtime

	faults *rdma.FaultPlan
}

// FaultRule configures fault injection on a node or link: each matching
// verb fails with probability FailProb (charged the verb timeout) and is
// delayed by ExtraNS modeled nanoseconds.
type FaultRule = rdma.FaultRule

// Open validates o, then builds and starts a deployment. The partition
// function is required (return -1 from it for replicated tables).
func Open(o Options, part PartitionFunc) (*DB, error) {
	if part == nil {
		return nil, errors.New("drtm: Open requires a partition function")
	}
	o, err := o.normalize()
	if err != nil {
		return nil, err
	}
	cfg := cluster.DefaultConfig(o.Nodes, o.WorkersPerNode)
	cfg.Durability = o.Durability
	cfg.ReplicationFactor = o.ReplicationFactor
	cfg.LeaseMicros = leaseMicros
	cfg.ROLeaseMicros = roLeaseMicros
	cfg.FailureDetection = o.FailureDetection
	c := cluster.New(cfg)
	db := &DB{C: c, RT: tx.NewRuntime(c, part), faults: rdma.NewFaultPlan(o.FaultSeed)}
	db.RT.ReadPolicy = o.ReadPolicy
	c.Fabric.SetFaultPlan(db.faults)
	if o.FailureDetection {
		db.RT.EnableAutoRecovery()
	}
	c.Start()
	return db, nil
}

// InjectNodeFaults makes every verb targeting node fail or slow per r;
// InjectLinkFaults scopes the rule to the (from, to) direction. Rules
// stack: a verb draws against both its node and link rules. ClearFaults
// removes all rules. The underlying RNG is seeded from Options.FaultSeed,
// so a fixed workload replays an identical fault sequence.
func (db *DB) InjectNodeFaults(node int, r FaultRule)     { db.faults.NodeRule(node, r) }
func (db *DB) InjectLinkFaults(from, to int, r FaultRule) { db.faults.LinkRule(from, to, r) }
func (db *DB) ClearFaults()                               { db.faults.Clear() }

// MustOpen is Open, panicking on invalid options; convenient for examples,
// tests and benchmarks where options are literals.
func MustOpen(o Options, part PartitionFunc) *DB {
	db, err := Open(o, part)
	if err != nil {
		panic(err)
	}
	return db
}

// Nodes returns the number of logical machines in the deployment.
func (db *DB) Nodes() int { return db.C.Nodes() }

// WorkersPerNode returns the number of worker threads per machine.
func (db *DB) WorkersPerNode() int { return db.C.Config().WorkersPerNode }

// Close stops the deployment's background threads.
func (db *DB) Close() { db.C.Stop() }

// CreateHashTable defines an unordered (DrTM-KV cluster-chaining hash)
// table sharded across all nodes; capacity and valueWords are per node.
// Unordered tables have a one-sided RDMA path for remote access.
func (db *DB) CreateHashTable(id, capacity, valueWords int) {
	buckets := capacity / 4
	if buckets < 16 {
		buckets = 16
	}
	db.RT.DefineUnordered(id, buckets, buckets, capacity, valueWords)
}

// CreateOrderedTable defines an ordered (B+ tree) table sharded across all
// nodes. Remote access ships to the host over verbs, per the paper.
func (db *DB) CreateOrderedTable(id, capacity, valueWords int) {
	db.RT.DefineOrdered(id, capacity, valueWords)
}

// CreateOrderedTableSeg is CreateOrderedTable with an explicit segment
// shift for the table's phantom-detection stamps: scans validate the stamp
// words covering key>>segShift for their range, so segShift should strip
// the intra-entity low bits of a composite key encoding (e.g. 8 for keys of
// the form id<<8|sub) to keep unrelated inserts from invalidating a scan.
func (db *DB) CreateOrderedTableSeg(id, capacity, valueWords int, segShift uint) {
	db.RT.DefineOrderedSeg(id, capacity, valueWords, segShift)
}

// CreateIndex attaches a declared secondary index to an ordered base table.
// Both tables must already be created (ordered; the index with >= 1 value
// word). Tx.WInsert and Tx.Erase maintain the index atomically with the
// base write — inside the same HTM region on the fast path, under ordered
// index locks on the fallback. The partitioner must co-locate each index
// key with its base row's partition.
func (db *DB) CreateIndex(base int, spec IndexSpec) {
	db.RT.DefineIndex(base, spec)
}

// Executor returns worker w of node n's transaction executor. Executors
// are single-goroutine objects: create one per worker goroutine.
func (db *DB) Executor(node, worker int) *Executor { return db.RT.Executor(node, worker) }

// Load inserts a record directly on its home node (bulk population outside
// transactions). Under replication, the record is seeded into every backup's
// replica shard too, so a promoted backup starts from a complete copy.
func (db *DB) Load(table int, key uint64, val []uint64) error {
	part := db.RT.Part(table, key)
	if part < 0 {
		// Replicated table: load on every node.
		for n := 0; n < db.C.Nodes(); n++ {
			if err := db.loadOn(n, table, table, key, val); err != nil {
				return err
			}
		}
		return nil
	}
	var buf [4]int // the home and up to three backups without a heap slice
	for _, node := range db.C.Copies(buf[:0], part) {
		if err := db.loadOn(node, table, cluster.CopyRegion(part, table, node), key, val); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) loadOn(node, table, region int, key uint64, val []uint64) error {
	if db.RT.Meta(table).Kind == tx.Ordered {
		return db.C.Node(node).Ordered(region).Insert(key, val)
	}
	return db.C.Node(node).Unordered(region).Insert(key, val)
}

// Get reads a record's current value directly (outside any transaction);
// intended for verification and tooling. Routed by the current view: after
// a failover it reads the promoted backup's copy.
func (db *DB) Get(table int, key uint64) ([]uint64, bool) {
	part := db.RT.Part(table, key)
	if part < 0 {
		part = 0
	}
	node, region := db.C.Serving(part, table)
	if db.RT.Meta(table).Kind == tx.Ordered {
		o, ok := db.C.Node(node).OrderedRegion(region)
		if !ok {
			return nil, false
		}
		off, ok := o.Lookup(key)
		if !ok || !kvs.Live(kvs.Incarnation(o.Arena().LoadWord(off+kvs.EntryIncVerWord))) {
			// Structurally present but dead: a staged insert's first half or
			// an erased row awaiting removal — logically absent.
			return nil, false
		}
		return o.Get(key)
	}
	return db.C.Node(node).Unordered(region).Get(key)
}

// Crash fail-stops a node (its memory and NVRAM logs stay readable, per
// the flush-on-failure model).
func (db *DB) Crash(node int) { db.C.Crash(node) }

// Recover replays the crashed node's NVRAM logs: redo for committed
// transactions, lock release for uncommitted ones (Figure 7). A replicated
// deployment writes no write-ahead log and is repaired by Failover; Recover
// panics there.
func (db *DB) Recover(node int) RecoveryReport { return db.RT.Recover(node) }

// Failover promotes a live backup to own a crashed node's partition and
// replays its redo tail (hot failover; requires ReplicationFactor > 0).
// With FailureDetection enabled the elected coordinator calls this
// automatically on a confirmed death; the explicit form exists for tests
// and tooling. Idempotent: a repeated call reports Promoted=false.
func (db *DB) Failover(node int) FailoverReport { return db.RT.Failover(node) }

// ReplicationFactor returns the configured backup count per partition.
func (db *DB) ReplicationFactor() int { return db.C.ReplicationFactor() }

// PartitionOwner returns the node currently owning partition p's key range
// (p itself until a failover promotes a backup).
func (db *DB) PartitionOwner(p int) int { return db.C.OwnerOf(p) }

// Revive marks a recovered node alive. Nothing waits for it: a release-side
// step for an unreachable node ran at once on its memory. A replicated
// cluster's crashed node is failed over, never revived.
func (db *DB) Revive(node int) { db.C.Revive(node) }

// Latency summarizes one transaction phase's latency histogram. Durations
// are modeled (virtual-clock) time — the same time base as throughput
// reporting; see DESIGN.md.
type Latency struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

func latencyOf(h obs.HistSnapshot) Latency {
	return Latency{
		Count: h.Count,
		Mean:  time.Duration(h.Mean()),
		P50:   time.Duration(h.Percentile(50)),
		P95:   time.Duration(h.Percentile(95)),
		P99:   time.Duration(h.Percentile(99)),
		Max:   time.Duration(h.Max),
	}
}

// Stats is an immutable snapshot of the deployment's obs registry, taken with
// DB.Stats: every protocol event, the NVRAM log gauge and the phase
// histograms, read by their registry names (DESIGN.md's Observability section
// lists them). Subtract two snapshots with Delta to scope counters to an
// interval.
type Stats struct{ snap obs.Snapshot }

// Count reads a counter by name: an event ("tx.commit", "rdma.cas"), or a
// dotted prefix that sums the events under it ("htm.abort" is the five abort
// causes, "cache.hit" the hash and ordered frames' hits). The gauge
// "nvram.log_high_water" is the most live words one log of one worker held at
// a transaction boundary, against cluster.Config.LogWords. An unknown name
// panics.
func (s Stats) Count(name string) int64 { return s.snap.Count(name) }

// Latency summarizes the histogram of the phase called name ("lock-remote",
// "htm-region", "commit-remotes", "total", …); an unknown name panics.
func (s Stats) Latency(phase string) Latency { return latencyOf(s.snap.Hist(phase)) }

// Stats returns an immutable snapshot of all counters.
func (db *DB) Stats() Stats { return Stats{db.C.Obs.Snapshot()} }

// ResetStats zeroes every counter and histogram.
func (db *DB) ResetStats() { db.C.Obs.Reset() }

// Delta returns the counter-by-counter difference s - prev. Latency
// histograms subtract bucket-wise; their Max and the gauge are high-water
// marks and keep s's values.
func (s Stats) Delta(prev Stats) Stats { return Stats{s.snap.Delta(prev.snap)} }

// String renders every counter, one line per group of names, and every phase
// with observations: the sample format shown in the README's Observability
// section.
func (s Stats) String() string { return s.snap.String() }

// TraceEvent is one traced event; see DB.EnableTracing. Kind discriminates
// transaction records (TraceTx) from failover records (TraceFailover).
type TraceEvent = obs.TraceEvent

// TraceKind discriminates trace-ring entries.
type TraceKind = obs.TraceKind

// Trace-ring entry kinds, re-exported.
const (
	TraceTx       = obs.TraceTx
	TraceFailover = obs.TraceFailover
)

// EnableTracing turns on the per-worker transaction trace with a ring of
// perWorker events per worker (newer events overwrite older ones). Tracing
// is off by default and costs one atomic load per transaction while off.
func (db *DB) EnableTracing(perWorker int) { db.C.Obs.EnableTrace(perWorker) }

// DisableTracing turns tracing off and discards undrained events.
func (db *DB) DisableTracing() { db.C.Obs.DisableTrace() }

// DrainTrace returns and clears buffered trace events, grouped by worker
// and oldest-first within each worker.
func (db *DB) DrainTrace() []TraceEvent { return db.C.Obs.DrainTrace() }

// WorkerVirtualTime returns a worker's accumulated modeled execution time,
// the basis for throughput reporting (see DESIGN.md).
func (db *DB) WorkerVirtualTime(node, worker int) time.Duration {
	return db.C.Worker(node, worker).VClock.Now()
}
