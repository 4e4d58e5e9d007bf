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
// Afterwards, db.Stats() returns an immutable snapshot of every protocol
// counter (HTM abort causes, lease events, RDMA op counts, phase latency
// histograms); two snapshots subtract with Delta to scope an interval. See
// the README's Observability section.
//
// See examples/ for runnable programs and cmd/drtm-bench for the harness
// that regenerates the paper's evaluation.
package drtm

import (
	"errors"
	"fmt"
	"strings"
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
	// RO is a read-only transaction: confirm-wave (lease or speculative
	// arm) by default, snapshot-stamped over the version chains under
	// PolicyMVCC.
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
	// PolicySpeculative: every remote read is a one-RTT OCC read (~1.5µs),
	// version-validated at commit time; a conflict retries the transaction.
	PolicySpeculative = tx.PolicySpeculative
	// PolicyAdaptive (the default): speculate, and lease only a transaction
	// that keeps losing — a read-write transaction's reads speculate until it
	// has lost 8 validations, and every later read of it takes a lease. A
	// read-only Scan of 32 rows or more runs on the PolicyMVCC snapshot arm.
	PolicyAdaptive = tx.PolicyAdaptive
	// PolicyExclusive: remote reads take exclusive write locks (the
	// paper's Figure 17 "no read lease" ablation; no read-read sharing).
	PolicyExclusive = tx.PolicyExclusive
	// PolicyMVCC: read-only transactions resolve every key against a
	// cluster-wide snapshot stamp using the per-entry version chains
	// (Options.MVCCDepth) — one batched READ wave, no lease CAS and no
	// confirm wave. A chain too shallow for the snapshot falls back to the
	// confirm-wave scheme for that RO execution. Read-write transactions
	// under this policy use the lease arm; requires MVCCDepth ≥ 0 (chains
	// enabled).
	PolicyMVCC = tx.PolicyMVCC
)

// Common errors, re-exported.
var (
	ErrRetry     = tx.ErrRetry
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

	// Durability enables NVRAM logging and crash recovery (Section 4.6).
	Durability bool

	// ReplicationFactor enables FaRM-style primary–backup replication: every
	// partition is replicated to this many ring-successor backups, committed
	// write-sets are appended to each backup's redo log with one-sided RDMA
	// log-append WRITEs before locks release, and — with FailureDetection —
	// a confirmed crash promotes the highest-ranked live backup, which
	// replays only its redo tail (hot failover) instead of the full NVRAM
	// replay. Requires Durability (stuck exclusive locks are released via the
	// lock-ahead log) and at least ReplicationFactor+1 nodes. 0 disables
	// replication.
	ReplicationFactor int

	// LeaseMicros / ROLeaseMicros are the shared-lock lease durations. The
	// defaults (5 ms / 10 ms) are scaled up from the paper's 0.4/1.0 ms
	// because lease expiry runs on real time while the simulation host may
	// interleave dozens of workers on few cores; see DESIGN.md.
	LeaseMicros   uint64
	ROLeaseMicros uint64

	// FailureDetection enables lease-based membership (Section 4.6): every
	// node heartbeats a shared membership region; survivors detect an
	// expired lease, confirm the death by probing, elect a recovery
	// coordinator with RDMA CAS, and the coordinator replays the crashed
	// node's NVRAM logs and revives it — no oracle notification anywhere.
	FailureDetection bool

	// HeartbeatInterval, FailureTimeout and ElectionStagger tune the
	// detector (defaults: 1 ms / 30 ms / 5 ms). FailureTimeout should span
	// many heartbeats so scheduling hiccups don't read as crashes.
	HeartbeatInterval time.Duration
	FailureTimeout    time.Duration
	ElectionStagger   time.Duration

	// FaultSeed seeds the fabric's fault-injection RNG, making a chaos
	// run's verb-level fault sequence reproducible. Zero means seed 1.
	FaultSeed int64

	// ReadPolicy selects the concurrency-control arm for remote read-set
	// records: PolicyLease, PolicySpeculative, PolicyAdaptive,
	// PolicyExclusive or PolicyMVCC (see the constants' docs; PolicyMVCC
	// affects read-only transactions). The zero value selects
	// PolicyAdaptive: speculation, which the `occ` experiment prices against
	// leases, with a lease for a transaction that keeps losing. The software
	// fallback path always uses locks regardless of policy.
	ReadPolicy ReadPolicy

	// MVCCDepth is the per-entry version-chain ring depth backing
	// PolicyMVCC snapshot reads: each writer retires the previous
	// (stamp, version, value) triple into a fixed ring of this many slots,
	// and snapshot reads resolve the newest version at or below their
	// stamp. 0 selects the default depth (4); a negative value disables
	// version chains entirely (PolicyMVCC then degrades to the confirm-wave
	// scheme). Deeper chains tolerate staler snapshots at the cost of
	// value-words × depth extra memory per entry.
	MVCCDepth int
}

// maxLeaseMicros bounds lease durations: the state word encodes lease end
// times (softtime µs + duration) in a 55-bit field, so durations anywhere
// near that range would overflow the encoding. 2^40 µs (~13 days) is far
// beyond any sane lease and leaves 15 bits of headroom for the clock.
const maxLeaseMicros = uint64(1) << 40

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
	if o.ReplicationFactor > 0 && !o.Durability {
		return o, errors.New("drtm: Options.ReplicationFactor requires Options.Durability (failover releases a crashed primary's locks via its lock-ahead log)")
	}
	if o.LeaseMicros == 0 {
		o.LeaseMicros = 5_000
	}
	if o.LeaseMicros > maxLeaseMicros {
		return o, fmt.Errorf("drtm: Options.LeaseMicros %d overflows the state-word lease field (max %d)",
			o.LeaseMicros, maxLeaseMicros)
	}
	if o.ROLeaseMicros == 0 {
		o.ROLeaseMicros = 10_000
	}
	if o.ROLeaseMicros > maxLeaseMicros {
		return o, fmt.Errorf("drtm: Options.ROLeaseMicros %d overflows the state-word lease field (max %d)",
			o.ROLeaseMicros, maxLeaseMicros)
	}
	if o.HeartbeatInterval < 0 || o.FailureTimeout < 0 || o.ElectionStagger < 0 {
		return o, errors.New("drtm: failure-detection durations must be >= 0")
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
	if o.ReadPolicy == PolicyMVCC && o.MVCCDepth < 0 {
		return o, errors.New("drtm: Options.ReadPolicy PolicyMVCC requires version chains; leave Options.MVCCDepth >= 0")
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
	cfg.LeaseMicros = o.LeaseMicros
	cfg.ROLeaseMicros = o.ROLeaseMicros
	if o.MVCCDepth != 0 {
		// Negative disables chains; cluster validation clamps it to 0.
		cfg.MVCCDepth = o.MVCCDepth
	}
	cfg.FailureDetection = o.FailureDetection
	if o.HeartbeatInterval > 0 {
		cfg.HeartbeatInterval = o.HeartbeatInterval
	}
	if o.FailureTimeout > 0 {
		cfg.FailureTimeout = o.FailureTimeout
	}
	if o.ElectionStagger > 0 {
		cfg.ElectionStagger = o.ElectionStagger
	}
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

// ExecWith runs one read-write transaction on the given worker with the
// read policy forced to p for every attempt, overriding Options.ReadPolicy
// — e.g. forcing PolicySpeculative on a PolicyLease deployment. Per-worker
// convenience over Executor.ExecWith; long-lived workers should hold an
// Executor and call its ExecWith instead.
func (db *DB) ExecWith(node, worker int, p ReadPolicy, build func(t *Tx) error) error {
	return db.RT.Executor(node, worker).ExecWith(p, build)
}

// ExecROWith runs one read-only transaction with the read policy forced to
// p (see ExecWith) — e.g. PolicyMVCC for a narrow scan of write-hot rows,
// which PolicyAdaptive leaves on the confirm wave.
func (db *DB) ExecROWith(node, worker int, p ReadPolicy, build func(ro *RO) error) error {
	return db.RT.Executor(node, worker).ExecROWith(p, build)
}

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
	if err := db.loadOn(part, table, table, key, val); err != nil {
		return err
	}
	for _, b := range db.C.Backups(nil, part) {
		if err := db.loadOn(b, table, cluster.ReplicaRegion(part, table), key, val); err != nil {
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
	node, region := part, table
	if owner := db.C.OwnerOf(part); owner != part {
		node, region = owner, cluster.ReplicaRegion(part, table)
	}
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
// transactions, lock release for uncommitted ones (Figure 7).
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

// Revive marks a recovered node alive and drains any release-side writes
// that committed transactions parked while the node was unreachable.
func (db *DB) Revive(node int) {
	db.C.Revive(node)
	db.RT.FlushPending(node)
}

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

// Stats is an immutable snapshot of every protocol counter in the
// deployment, taken with DB.Stats. Subtract two snapshots with Delta to
// scope counters to an interval.
type Stats struct {
	// Transaction outcomes (Sections 7.2-7.4).
	Commits   int64 // read-write transactions committed
	Retries   int64 // whole-transaction retries (lock/lease conflicts)
	Fallbacks int64 // executions completed on the software fallback path
	ROCommits int64 // read-only transactions committed
	RORetries int64 // read-only transaction retries
	// ROEscalations counts read-only attempts run under leases because the
	// transaction's earlier attempts kept failing (ExecRO's progress guarantee).
	ROEscalations int64
	// ROSingles counts read-only transactions that skipped their confirmation:
	// one speculative record in one cache line and no scan, so that one atomic
	// read was the serialization point.
	ROSingles int64

	// HTM region outcomes by abort cause (Section 7.4 / Table 6).
	HTMCommits     int64
	HTMAborts      int64 // sum of the five cause counters below
	ConflictAborts int64 // working-set conflicts
	CapacityAborts int64 // working set exceeded hardware bounds
	LockedAborts   int64 // local record found remotely locked
	LeaseAborts    int64 // lease invalid at in-region confirmation
	ExplicitAborts int64 // other explicit aborts

	// Lease protocol events (Sections 4.2 and 4.5 / Figures 5 and 8).
	LeaseGrants         int64 // fresh shared leases installed
	LeaseShares         int64 // existing unexpired leases joined
	LeaseConfirms       int64 // per-lease confirmation checks that passed
	LeaseConfirmFails   int64 // confirmation failures outside the HTM region
	LeaseExpiries       int64 // expired leases observed and taken over/cleared
	RemoteLockConflicts int64 // lock/lease acquisitions lost to a conflicting holder
	LockUpgrades        int64 // shared leases upgraded in place to exclusive locks

	// Speculative (OCC) read-arm events (PolicySpeculative, or adaptive
	// routes).
	SpecReads         int64 // records fetched with a versioned READ, no lock
	SpecValidateFails int64 // commit-time validations that found a version bump or live lock
	// ShipImages counts the speculative reads of remote ordered records served
	// by the entry image their shipped lookup's reply carried: SpecReads that
	// posted no READ.
	ShipImages int64

	// Snapshot (MVCC) read-arm events (PolicyMVCC, or adaptive wide-scan
	// routes over the version chains).
	ChainRetires     int64 // superseded versions retired into entry ring chains
	MVCCReads        int64 // keys resolved against a snapshot stamp (point or scan row)
	MVCCTruncations  int64 // resolutions that fell off the chain (stamp older than ring depth)
	MVCCInconsistent int64 // torn chain images observed (head/tail mismatch)
	MVCCFallbacks    int64 // RO executions that fell back to the confirm-wave arm

	// Adaptive read-arm routing (PolicyAdaptive).
	AdaptiveSpecReads  int64   // reads routed to the speculative arm (a read-only read is routed before it is resolved, so absent keys count too)
	AdaptiveLeaseReads int64   // reads routed to the lease arm: their transaction had lost 8 validations
	SpecShare          float64 // % of adaptive-routed reads that took the spec arm

	// One-sided RDMA and messaging verbs (Section 7.1).
	RDMAReads   int64
	RDMAWrites  int64
	RDMACASes   int64
	RDMAFAAs    int64
	VerbsMsgs   int64
	ShippedOps  int64 // keys / operations the two-sided messages carried (coalescing: ShippedOps / VerbsMsgs)
	RDMABatches int64 // doorbell batches polled by the async verb engine

	// Location-cache traffic (Section 5.3), and the share of it that ordered
	// regions' frames account for: speculative read-only reads of remote
	// ordered rows, a hit one READ at the cached offset in place of a message,
	// an invalidation a frame the image there proved stale (one wasted READ).
	CacheHits, CacheMisses, CacheInvals                      int64
	OrderedCacheHits, OrderedCacheMisses, OrderedCacheInvals int64

	// Local B+ tree operations (lookups, inserts, deletes, scan starts), by
	// what the index did: the cost model charges a descent BTreeOpNS and a
	// finger hit one node search.
	TreeDescents int64 // root-to-leaf walks: no leaf the executor's finger remembers covers the key, or the one that does is full
	FingerHits   int64 // served by a leaf the executor's finger remembers, no walk

	// Durability and recovery (Section 4.6 / Figure 7).
	LogRecords      int64
	LogRestarts     int64 // times a worker restarted its logs at a transaction boundary
	LogGrows        int64 // times a log's arena doubled
	LogHighWater    int64 // most live words one log of one worker held at a boundary (not a Delta)
	LogCapWords     int64 // what LogHighWater is held against: cluster.Config.LogWords, fatal to overrun
	RecoveryScans   int64 // write-ahead records Recover read
	RecoveryRedos   int64
	RecoveryUnlocks int64

	// Replication and hot failover (FaRM-style commit-backup).
	LogAppends   int64 // one-sided log-append WRs acked by backup redo logs
	BackupBytes  int64 // redo payload bytes shipped to backups
	FenceRejects int64 // appends rejected by a backup's view-epoch fence
	ViewAborts   int64 // transactions aborted by an in-flight view change
	Failovers    int64 // completed hot-failover promotions
	PromoteNanos int64 // unavailability: wall-clock ns until the promoted partition serves
	RedoTailLen  int64 // redo records replayed during promotions

	// Fault injection, failure detection and recovery under load.
	VerbFaults     int64 // verbs that failed (injected fault or crashed node)
	LockRetries    int64 // transient verb faults retried inside transactions
	BackoffNanos   int64 // modeled ns spent in fault-retry backoff
	NodeDownAborts int64 // transactions aborted with ErrNodeDown
	Detections     int64 // crashes confirmed by survivors via lease expiry
	Recoveries     int64 // Recover invocations that replayed at least one log set
	RecoveryNanos  int64 // wall-clock ns spent inside Recover

	// Phase latency summaries (modeled time): the Start phase (remote
	// lock/lease + prefetch), the HTM region (attempts plus fallback body),
	// the Commit phase (remote write-back + unlock), and the whole
	// transaction. Only committed read-write transactions are recorded.
	// ValidateLatency covers the speculative arm's commit-time validation
	// wave (a sub-phase of the HTM region, or of RO confirm).
	// MVCCROLatency times PolicyMVCC read-only executions end to end.
	LockRemoteLatency Latency
	HTMRegionLatency  Latency
	CommitLatency     Latency
	ValidateLatency   Latency
	MVCCROLatency     Latency
	TotalLatency      Latency

	snap obs.Snapshot
}

func newStats(sn obs.Snapshot) Stats {
	c := func(ev obs.Event) int64 { return sn.Counter(ev) }
	s := Stats{
		Commits:   c(obs.EvTxCommit),
		Retries:   c(obs.EvTxRetry),
		Fallbacks: c(obs.EvFallback),
		ROCommits: c(obs.EvROCommit),
		RORetries: c(obs.EvRORetry),

		ROEscalations: c(obs.EvROEscalate),
		ROSingles:     c(obs.EvROSingle),

		HTMCommits:     c(obs.EvHTMCommit),
		ConflictAborts: c(obs.EvHTMConflictAbort),
		CapacityAborts: c(obs.EvHTMCapacityAbort),
		LockedAborts:   c(obs.EvHTMLockedAbort),
		LeaseAborts:    c(obs.EvHTMLeaseAbort),
		ExplicitAborts: c(obs.EvHTMExplicitAbort),

		LeaseGrants:         c(obs.EvLeaseGrant),
		LeaseShares:         c(obs.EvLeaseShare),
		LeaseConfirms:       c(obs.EvLeaseConfirm),
		LeaseConfirmFails:   c(obs.EvLeaseConfirmFail),
		LeaseExpiries:       c(obs.EvLeaseExpire),
		RemoteLockConflicts: c(obs.EvRemoteLockConflict),
		LockUpgrades:        c(obs.EvLockUpgrade),

		SpecReads:         c(obs.EvSpecRead),
		SpecValidateFails: c(obs.EvSpecValidateFail),
		ShipImages:        c(obs.EvShipImage),

		ChainRetires:     c(obs.EvChainRetire),
		MVCCReads:        c(obs.EvMVCCRead),
		MVCCTruncations:  c(obs.EvMVCCTrunc),
		MVCCInconsistent: c(obs.EvMVCCInconsist),
		MVCCFallbacks:    c(obs.EvMVCCFallback),

		AdaptiveSpecReads:  c(obs.EvAdaptSpec),
		AdaptiveLeaseReads: c(obs.EvAdaptLease),

		RDMAReads:   c(obs.EvRDMARead),
		RDMAWrites:  c(obs.EvRDMAWrite),
		RDMACASes:   c(obs.EvRDMACAS),
		RDMAFAAs:    c(obs.EvRDMAFAA),
		VerbsMsgs:   c(obs.EvVerbsMsg),
		ShippedOps:  c(obs.EvShippedOp),
		RDMABatches: c(obs.EvRDMABatch),

		OrderedCacheHits:   c(obs.EvOrderedCacheHit),
		OrderedCacheMisses: c(obs.EvOrderedCacheMiss),
		OrderedCacheInvals: c(obs.EvOrderedCacheInval),

		TreeDescents: c(obs.EvTreeDescent) + c(obs.EvLeafFullDescent),
		FingerHits:   c(obs.EvFingerHit),

		LogRecords:      c(obs.EvLogRecord),
		LogRestarts:     c(obs.EvLogRestart),
		LogGrows:        c(obs.EvLogGrow),
		LogHighWater:    sn.Gauges[obs.GaugeLogWords],
		RecoveryScans:   c(obs.EvRecoveryScan),
		RecoveryRedos:   c(obs.EvRecoveryRedo),
		RecoveryUnlocks: c(obs.EvRecoveryUnlock),

		LogAppends:   c(obs.EvLogAppend),
		BackupBytes:  c(obs.EvBackupBytes),
		FenceRejects: c(obs.EvFenceReject),
		ViewAborts:   c(obs.EvViewAbort),
		Failovers:    c(obs.EvFailover),
		PromoteNanos: c(obs.EvPromoteNanos),
		RedoTailLen:  c(obs.EvRedoTailLen),

		VerbFaults:     c(obs.EvVerbFault),
		LockRetries:    c(obs.EvLockRetry),
		BackoffNanos:   c(obs.EvBackoffNanos),
		NodeDownAborts: c(obs.EvNodeDownAbort),
		Detections:     c(obs.EvDetect),
		Recoveries:     c(obs.EvRecoveryRun),
		RecoveryNanos:  c(obs.EvRecoveryNanos),

		LockRemoteLatency: latencyOf(sn.Phases[obs.PhaseLockRemote]),
		HTMRegionLatency:  latencyOf(sn.Phases[obs.PhaseHTM]),
		CommitLatency:     latencyOf(sn.Phases[obs.PhaseCommit]),
		ValidateLatency:   latencyOf(sn.Phases[obs.PhaseValidate]),
		MVCCROLatency:     latencyOf(sn.Phases[obs.PhaseMVCC]),
		TotalLatency:      latencyOf(sn.Phases[obs.PhaseTotal]),

		snap: sn,
	}
	s.HTMAborts = s.ConflictAborts + s.CapacityAborts + s.LockedAborts +
		s.LeaseAborts + s.ExplicitAborts
	s.CacheHits = c(obs.EvCacheHit) + s.OrderedCacheHits
	s.CacheMisses = c(obs.EvCacheMiss) + s.OrderedCacheMisses
	s.CacheInvals = c(obs.EvCacheInval) + s.OrderedCacheInvals
	if n := s.AdaptiveSpecReads + s.AdaptiveLeaseReads; n > 0 {
		s.SpecShare = 100 * float64(s.AdaptiveSpecReads) / float64(n)
	}
	return s
}

// Stats returns an immutable snapshot of all counters.
func (db *DB) Stats() Stats {
	s := newStats(db.C.Obs.Snapshot())
	s.LogCapWords = int64(db.C.Config().LogWords)
	return s
}

// ResetStats zeroes every counter and histogram.
func (db *DB) ResetStats() { db.C.Obs.Reset() }

// Delta returns the counter-by-counter difference s - prev. Latency
// histograms subtract bucket-wise; their Max and LogHighWater are high-water
// marks and keep s's values.
func (s Stats) Delta(prev Stats) Stats {
	d := newStats(s.snap.Delta(prev.snap))
	d.LogCapWords = s.LogCapWords
	return d
}

// String renders a compact multi-line dump, the sample format shown in the
// README's Observability section.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tx:      commits=%d retries=%d fallbacks=%d ro-commits=%d ro-retries=%d ro-escalations=%d ro-single-record=%d\n",
		s.Commits, s.Retries, s.Fallbacks, s.ROCommits, s.RORetries, s.ROEscalations, s.ROSingles)
	fmt.Fprintf(&b, "htm:     commits=%d aborts=%d (conflict=%d capacity=%d locked=%d lease=%d explicit=%d)\n",
		s.HTMCommits, s.HTMAborts, s.ConflictAborts, s.CapacityAborts,
		s.LockedAborts, s.LeaseAborts, s.ExplicitAborts)
	fmt.Fprintf(&b, "lease:   grants=%d shares=%d confirms=%d confirm-fails=%d expiries=%d lock-conflicts=%d upgrades=%d\n",
		s.LeaseGrants, s.LeaseShares, s.LeaseConfirms, s.LeaseConfirmFails,
		s.LeaseExpiries, s.RemoteLockConflicts, s.LockUpgrades)
	fmt.Fprintf(&b, "spec:    reads=%d validate-fails=%d shipped-images=%d\n", s.SpecReads, s.SpecValidateFails, s.ShipImages)
	fmt.Fprintf(&b, "mvcc:    retires=%d reads=%d truncations=%d inconsistent=%d fallbacks=%d\n",
		s.ChainRetires, s.MVCCReads, s.MVCCTruncations, s.MVCCInconsistent, s.MVCCFallbacks)
	fmt.Fprintf(&b, "adapt:   spec-routes=%d lease-routes=%d spec-share=%.1f%%\n",
		s.AdaptiveSpecReads, s.AdaptiveLeaseReads, s.SpecShare)
	opsPerMsg := 0.0
	if s.VerbsMsgs > 0 {
		opsPerMsg = float64(s.ShippedOps) / float64(s.VerbsMsgs)
	}
	fmt.Fprintf(&b, "rdma:    reads=%d writes=%d cas=%d faa=%d msgs=%d (%.2f ops/msg) batches=%d\n",
		s.RDMAReads, s.RDMAWrites, s.RDMACASes, s.RDMAFAAs, s.VerbsMsgs, opsPerMsg, s.RDMABatches)
	fmt.Fprintf(&b, "cache:   hits=%d misses=%d invalidations=%d (ordered frames: hits=%d misses=%d invalidations=%d)\n",
		s.CacheHits, s.CacheMisses, s.CacheInvals, s.OrderedCacheHits, s.OrderedCacheMisses, s.OrderedCacheInvals)
	fmt.Fprintf(&b, "index:   descents=%d finger-hits=%d\n", s.TreeDescents, s.FingerHits)
	fmt.Fprintf(&b, "nvram:   log-records=%d log-restarts=%d log-grows=%d log-high-water=%d/%d words recovery-scans=%d recovery-redos=%d recovery-unlocks=%d\n",
		s.LogRecords, s.LogRestarts, s.LogGrows, s.LogHighWater, s.LogCapWords,
		s.RecoveryScans, s.RecoveryRedos, s.RecoveryUnlocks)
	fmt.Fprintf(&b, "repl:    log-appends=%d backup-bytes=%d fence-rejects=%d view-aborts=%d failovers=%d promote-time=%v redo-tail=%d\n",
		s.LogAppends, s.BackupBytes, s.FenceRejects, s.ViewAborts,
		s.Failovers, time.Duration(s.PromoteNanos), s.RedoTailLen)
	fmt.Fprintf(&b, "fault:   verb-faults=%d lock-retries=%d node-down-aborts=%d detections=%d recoveries=%d recovery-time=%v\n",
		s.VerbFaults, s.LockRetries, s.NodeDownAborts, s.Detections,
		s.Recoveries, time.Duration(s.RecoveryNanos))
	for _, ph := range []struct {
		name string
		l    Latency
	}{
		{"lock-remote", s.LockRemoteLatency},
		{"htm-region", s.HTMRegionLatency},
		{"commit-remotes", s.CommitLatency},
		{"validate", s.ValidateLatency},
		{"mvcc-ro", s.MVCCROLatency},
		{"total", s.TotalLatency},
	} {
		fmt.Fprintf(&b, "latency: %-14s n=%-8d p50=%-10v p95=%-10v p99=%-10v max=%v\n",
			ph.name, ph.l.Count, ph.l.P50, ph.l.P95, ph.l.P99, ph.l.Max)
	}
	return b.String()
}

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
