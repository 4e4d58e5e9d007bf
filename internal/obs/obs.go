// Package obs is the unified observability layer: the one tally of every
// protocol event in the tree, fixed-bucket latency histograms for the
// transaction phases, and an optional per-worker ring-buffer transaction
// trace. An event is counted once, in the shard of the worker that caused
// it — no package below keeps a second count of its own.
//
// The design goals, in order:
//
//  1. Allocation-free, race-safe hot path. Counter increments and histogram
//     observations are single atomic adds into per-worker shards; nothing on
//     the hot path allocates, locks, or touches shared cache lines.
//  2. Sharding by worker. Each worker owns a Shard (padded so adjacent
//     shards never share a cache line at the hot boundary); cross-worker
//     aggregation happens only at Snapshot time.
//  3. Immutable snapshots. Registry.Snapshot returns a value type; two
//     snapshots subtract with Delta to scope counters to an interval, which
//     is how benchmarks report per-run breakdowns without resetting shared
//     state.
//  4. Near-zero cost when idle. Tracing defaults off; the disabled check is
//     one atomic bool load and no ring exists until EnableTrace.
//
// The event vocabulary mirrors the paper's evaluation (Sections 7.2-7.6):
// HTM commits and aborts by cause, fallback-path entries, lease protocol
// events, one-sided RDMA op counts, read-only retries, remote lock
// conflicts, and NVRAM log appends. See DESIGN.md for the mapping from each
// counter to the paper section it instruments.
package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event enumerates every protocol event the layer counts.
type Event int

const (
	// Whole-transaction outcomes (Executor.Exec / ExecRO).
	EvTxCommit Event = iota // read-write transaction committed
	EvTxRetry               // whole-transaction retry (lock/lease conflict)
	EvFallback              // execution entered the software fallback path
	EvROCommit              // read-only transaction committed
	EvRORetry               // read-only transaction retry

	// HTM region outcomes, by abort cause (Table 6's breakdown).
	EvHTMCommit        // HTM region committed (XEND reached)
	EvHTMConflictAbort // working-set conflict abort
	EvHTMCapacityAbort // capacity abort (working set exceeded hardware bounds)
	EvHTMLockedAbort   // explicit abort: local record remotely locked
	EvHTMLeaseAbort    // explicit abort: lease invalid at in-region confirm
	EvHTMExplicitAbort // other explicit abort

	// Lease protocol events (Section 4.2 / Figure 5).
	EvLeaseGrant         // fresh shared lease installed via CAS
	EvLeaseShare         // joined an existing unexpired lease
	EvLeaseConfirm       // lease confirmed valid at commit time
	EvLeaseConfirmFail   // lease confirmation failed outside the HTM region
	EvLeaseExpire        // expired lease observed and taken over / cleared
	EvRemoteLockConflict // lock/lease acquisition blocked by a conflicting holder
	EvLockUpgrade        // a staged read locked for a later write (an expired lease, or a speculative read)
	EvLockBorn           // an insert's fresh slot created write-locked for its inserter: no CAS takes it

	// Speculative (OCC) read-arm events: version-validated reads that skip
	// the lease CAS entirely (PolicyAdaptive's route).
	EvSpecRead         // record fetched with a single versioned READ, no lock
	EvSpecValidateFail // a read failed its commit-point validation (one per record): a version bump, a live lock, a recycled slot, a missing row now present

	// Adaptive read-arm routing (PolicyAdaptive): the speculative routes, and
	// the leases of a transaction that escalated instead.
	EvAdaptSpec  // adaptive-routed read took the speculative arm; a read-only read is routed before it is resolved, so this also counts reads whose key turns out absent
	EvAdaptLease // read of an escalated PolicyAdaptive transaction leased by its fallback

	// One-sided RDMA and messaging verbs (Section 7.1).
	EvRDMARead
	EvRDMAReadBytes // bytes the READs fetched
	EvRDMAWrite
	EvRDMACAS
	EvRDMAFAA
	EvVerbsMsg
	EvRDMABatch // one polled doorbell batch (wave) of the async verb engine
	EvShippedOp // one key / operation carried by a two-sided message (EvVerbsMsg counts the messages)
	// EvDetached counts waves and messages the worker left in flight instead
	// of waiting for (rdma.SendQueue.PollDetached, QP.Send); EvInflightWaitNS,
	// the modeled nanoseconds later waits paid for what they left.
	EvDetached
	EvInflightWaitNS

	// Durability (Section 4.6): one NVRAM log record appended.
	EvLogRecord

	// Crash recovery (Section 4.6 / Figure 7).
	EvRecoveryRedo   // committed update re-applied from the write-ahead log
	EvRecoveryUnlock // crashed owner's exclusive lock released

	// Fault injection, failure detection and recovery-under-load.
	EvVerbFault     // a verb failed (injected fault or unreachable node)
	EvLockRetry     // a transient verb fault was retried within a transaction
	EvBackoffNanos  // modeled nanoseconds spent in fault-retry backoff
	EvNodeDownAbort // a transaction aborted with ErrNodeDown
	EvDetect        // a survivor confirmed a node failure via lease expiry
	EvRecoveryRun   // one Recover invocation that replayed at least one log set
	EvRecoveryNanos // wall-clock nanoseconds spent inside Recover

	// Replication (FaRM-style commit-backup) and hot failover.
	EvLogAppend    // one-sided log-append WRs pushed to backup redo logs
	EvBackupBytes  // redo payload bytes shipped to backups
	EvFenceReject  // log appends rejected by a backup's view-epoch fence
	EvViewAbort    // HTM aborts from a view-epoch change observed in-region
	EvFailover     // completed hot-failover promotions
	EvPromoteNanos // wall-clock nanoseconds spent inside Failover
	EvRedoTailLen  // redo records replayed during promotions
	EvRingDrain    // redo records a backup applied to its replicas and truncated as it appended a sender's next record

	// Range scans and secondary indexes.
	EvScan             // one transactional range scan collected (Tx.Scan / RO.Scan)
	EvScanRow          // one live row returned by a range scan
	EvScanValidateFail // commit-time range validation found a stamp/header change
	EvIndexMaint       // one secondary-index entry maintained by a base write
	EvRemoveDead       // one dead entry physically unlinked post-commit
	EvTreeDescent      // one local ordered op (lookup/insert/delete/scan start) walked the B+ tree root to leaf: no leaf the executor's finger remembers covers the key
	EvLeafFullDescent  // one local ordered insert walked the tree although a remembered leaf covers the key: the leaf was full
	EvFingerHit        // one local ordered op was served by a leaf the executor's finger remembers, no descent

	// Version-chain events. The engine builds no version chains and has no
	// snapshot read arm, so both read 0; the benchmark's report still names
	// them.
	EvChainRetire  // one superseded version retired into an entry's ring chain
	EvMVCCFallback // one RO execution that fell back to the confirm-wave arm

	// EvTxEscalate counts escalated attempts, read-write and read-only alike:
	// those a transaction runs after escalateAfter lost ones, which wait for
	// what they need instead of aborting on it (the progress guarantee).
	EvTxEscalate

	// EvRecoveryScan counts write-ahead records Recover read: the replay's
	// work, whatever share of it the version guards then skipped.
	EvRecoveryScan

	// EvShipImage counts speculative reads of remote ordered records served by
	// the entry image the shipped lookup's reply carried, in place of the
	// one-sided READ that used to follow the message. EvROSingle counts
	// read-only transactions that skipped their confirmation: one speculative
	// record in one cache line, no scan — that one atomic read is the
	// transaction's serialization point.
	EvShipImage
	EvROSingle

	// EvLogRestart counts the times a worker restarted its NVRAM logs at a
	// transaction boundary (every record in them dead); EvLogGrow, the times a
	// log's arena doubled. GaugeLogWords is the fill they keep down.
	EvLogRestart
	EvLogGrow

	// Location cache (Section 5.3). A hash region's frames are probed per
	// bucket of a chain walk and invalidated per bucket; an ordered region's
	// frames, per key (the speculative read-only fetch of a remote row, and
	// the drop of a frame its image proved stale).
	EvCacheHit
	EvCacheMiss
	EvCacheInval
	EvOrderedCacheHit
	EvOrderedCacheMiss
	EvOrderedCacheInval

	NumEvents int = iota
)

// eventNames is the registry's vocabulary: "group.event", where an event that
// is one share of a total is named under it ("htm.abort.conflict" under
// "htm.abort", "cache.hit.ordered" under "cache.hit"), so that Snapshot.Count
// reads the total by its name.
var eventNames = [NumEvents]string{
	EvTxCommit:           "tx.commit",
	EvTxRetry:            "tx.retry",
	EvFallback:           "tx.fallback",
	EvROCommit:           "ro.commit",
	EvRORetry:            "ro.retry",
	EvHTMCommit:          "htm.commit",
	EvHTMConflictAbort:   "htm.abort.conflict",
	EvHTMCapacityAbort:   "htm.abort.capacity",
	EvHTMLockedAbort:     "htm.abort.locked",
	EvHTMLeaseAbort:      "htm.abort.lease",
	EvHTMExplicitAbort:   "htm.abort.explicit",
	EvLeaseGrant:         "lease.grant",
	EvLeaseShare:         "lease.share",
	EvLeaseConfirm:       "lease.confirm",
	EvLeaseConfirmFail:   "lease.confirm_fail",
	EvLeaseExpire:        "lease.expire",
	EvRemoteLockConflict: "lock.remote_conflict",
	EvLockUpgrade:        "lock.upgrade",
	EvLockBorn:           "lock.born",
	EvSpecRead:           "spec.read",
	EvSpecValidateFail:   "spec.validate_fail",
	EvAdaptSpec:          "adapt.route_spec",
	EvAdaptLease:         "adapt.route_lease",
	EvRDMARead:           "rdma.read",
	EvRDMAReadBytes:      "rdma.read_bytes",
	EvRDMAWrite:          "rdma.write",
	EvRDMACAS:            "rdma.cas",
	EvRDMAFAA:            "rdma.faa",
	EvVerbsMsg:           "rdma.msg",
	EvRDMABatch:          "rdma.batch",
	EvShippedOp:          "rdma.shipped_op",
	EvDetached:           "rdma.detached",
	EvInflightWaitNS:     "rdma.inflight_wait_ns",
	EvLogRecord:          "nvram.log_record",
	EvRecoveryRedo:       "recovery.redo",
	EvRecoveryUnlock:     "recovery.unlock",
	EvVerbFault:          "fault.verb",
	EvLockRetry:          "fault.retry",
	EvBackoffNanos:       "fault.backoff_ns",
	EvNodeDownAbort:      "tx.node_down",
	EvDetect:             "fault.detect",
	EvRecoveryRun:        "recovery.run",
	EvRecoveryNanos:      "recovery.ns",
	EvLogAppend:          "repl.log_append",
	EvBackupBytes:        "repl.backup_bytes",
	EvFenceReject:        "repl.fence_reject",
	EvViewAbort:          "repl.view_abort",
	EvFailover:           "repl.failover",
	EvPromoteNanos:       "repl.promote_ns",
	EvRedoTailLen:        "repl.redo_tail",
	EvRingDrain:          "repl.ring_drain",
	EvScan:               "scan.collect",
	EvScanRow:            "scan.row",
	EvScanValidateFail:   "scan.validate_fail",
	EvIndexMaint:         "index.maint",
	EvRemoveDead:         "index.remove_dead",
	EvTreeDescent:        "index.descent",
	EvLeafFullDescent:    "index.descent.leaf_full",
	EvFingerHit:          "index.finger_hit",
	EvChainRetire:        "mvcc.retire",
	EvMVCCFallback:       "mvcc.fallback",
	EvTxEscalate:         "tx.escalate",
	EvRecoveryScan:       "recovery.wal_scanned",
	EvShipImage:          "spec.ship_image",
	EvROSingle:           "ro.single_record",
	EvLogRestart:         "nvram.log_restart",
	EvLogGrow:            "nvram.log_grow",
	EvCacheHit:           "cache.hit",
	EvCacheMiss:          "cache.miss",
	EvCacheInval:         "cache.inval",
	EvOrderedCacheHit:    "cache.hit.ordered",
	EvOrderedCacheMiss:   "cache.miss.ordered",
	EvOrderedCacheInval:  "cache.inval.ordered",
}

func (e Event) String() string { return nameOf(eventNames[:], int(e), "Event") }

// Phase enumerates the transaction phases timed by the histograms, matching
// the protocol structure of Figure 2(a): lock-and-prefetch remote records,
// run the body in the HTM region, write back and unlock remotes.
type Phase int

const (
	PhaseLockRemote Phase = iota // Start phase: remote lock/lease + prefetch
	PhaseHTM                     // LocalTX phase: HTM region attempts (or fallback body)
	PhaseCommit                  // Commit phase: remote write-back + unlock
	PhaseTotal                   // whole transaction, Exec entry to commit

	// Sub-phases of PhaseLockRemote, recorded by the batched stage pipeline
	// (gather/issue/complete): location lookup, lock/lease acquisition, and
	// value prefetch. Their sum ≈ PhaseLockRemote for batched transactions.
	PhaseLookupRemote
	PhaseAcquireRemote
	PhasePrefetchRemote

	// PhaseValidate times the commit point's re-reads (tx.readSet.validate):
	// the header and scan re-READ wave plus the compares, once per commit
	// point with anything to re-read. It is a sub-phase of PhaseHTM (the
	// region), of the fallback or of the read-only confirm.
	PhaseValidate

	// PhaseBatchOps is not a latency: each observation is the number of work
	// requests in one polled doorbell batch, so the histogram is the
	// ops-per-batch distribution of the async verb engine.
	PhaseBatchOps

	// PhaseFailover times hot-failover promotions end to end: view CAS,
	// redo-tail replay and survivor-side lock release, in wall-clock
	// nanoseconds (failover runs on the coordinator's detector goroutine,
	// which has no virtual clock).
	PhaseFailover

	// PhaseScan times range-scan collection (tree walk + row reads), a
	// sub-phase of PhaseHTM for read-write transactions and of the read-only
	// build for RO scans.
	PhaseScan

	NumPhases int = iota
)

var phaseNames = [NumPhases]string{
	PhaseLockRemote:     "lock-remote",
	PhaseHTM:            "htm-region",
	PhaseCommit:         "commit-remotes",
	PhaseTotal:          "total",
	PhaseLookupRemote:   "lookup-remote",
	PhaseAcquireRemote:  "acquire-remote",
	PhasePrefetchRemote: "prefetch-remote",
	PhaseValidate:       "validate",
	PhaseBatchOps:       "batch-ops",
	PhaseFailover:       "failover",
	PhaseScan:           "scan",
}

func (p Phase) String() string { return nameOf(phaseNames[:], int(p), "Phase") }

// Stage enumerates the stages of a distributed transaction that post work
// requests. The wave ledger attributes every polled doorbell wave — its work
// requests, its atomics and the modeled time its poll charged — to the stage
// its poster was in (rdma.SendQueue.Stage), so "how many round trips does a
// distributed transaction pay, and where" is a printed number (`drtm-bench
// -exp dist-waves`).
type Stage int

const (
	StageLookup    Stage = iota // one-sided bucket-chain walks of remote hash lookups
	StageLock                   // lock / lease CASes fused with the prefetch READs, and the fetch READs
	StageValidate               // header re-READs of speculative reads and collected scans
	StageReplicate              // the redo append to the backups
	StagePublish                // the commit's doorbell chain: chain, value and release WRITEs
	StageRelease                // lock releases of an attempt that did not commit

	NumStages int = iota
)

var stageNames = [NumStages]string{
	StageLookup:    "lookup",
	StageLock:      "lock",
	StageValidate:  "validate",
	StageReplicate: "replicate",
	StagePublish:   "publish",
	StageRelease:   "abort-release",
}

func (s Stage) String() string { return nameOf(stageNames[:], int(s), "Stage") }

// WaveStats is one stage's share of the wave ledger.
type WaveStats struct {
	Waves int64 // polled doorbell waves
	WRs   int64 // work requests in them
	CASes int64 // of which atomics (CAS, FAA)
	Nanos int64 // modeled nanoseconds their polls charged
	// Inflight is the modeled nanoseconds of latency the stage's detached
	// waves left in flight: not in Nanos, paid by later waits only where they
	// overlap it (rdma.inflight_wait_ns).
	Inflight int64
}

// Gauge enumerates the high-water marks a shard keeps. Unlike an Event a
// gauge aggregates across shards by maximum, and a Delta keeps the later
// snapshot's value (as it does a histogram's Max).
type Gauge int

const (
	// GaugeLogWords is the most live words any one of the worker's NVRAM logs
	// held when a transaction began — the quantity cluster.Config.LogWords caps.
	GaugeLogWords Gauge = iota

	NumGauges int = iota
)

var gaugeNames = [NumGauges]string{
	GaugeLogWords: "nvram.log_high_water",
}

func (g Gauge) String() string { return nameOf(gaugeNames[:], int(g), "Gauge") }

// nameOf is the String of every enum with a name table.
func nameOf(names []string, i int, kind string) string {
	if i >= 0 && i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("%s(%d)", kind, i)
}

// Histogram bucketing: log-linear fixed buckets (HDR-style). Values 0..15
// get exact buckets; above that each power of two is split into 4
// sub-buckets, bounding relative error at 25% — plenty for p50/p95/p99 of
// latencies spanning nanoseconds to seconds, with no allocation and a
// constant memory footprint. Durations are int64 nanoseconds, so the
// highest reachable magnitude bit is 62 (bits.Len64 <= 63).
const histBuckets = 16 + (63-4)*4 // 252

// bucketOf maps a non-negative duration (ns) to its bucket index.
func bucketOf(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	if v < 16 {
		return int(v)
	}
	h := bits.Len64(v)          // 5..64
	sub := (v >> uint(h-3)) & 3 // two bits below the leading bit
	b := 16 + (h-5)*4 + int(sub)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketLower returns the smallest value mapped to bucket b.
func bucketLower(b int) int64 {
	if b < 16 {
		return int64(b)
	}
	h := 5 + (b-16)/4
	sub := (b - 16) % 4
	return int64(4+sub) << uint(h-3)
}

// hist is one phase's fixed-bucket latency histogram within a shard.
type hist struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func (h *hist) observe(ns int64) {
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Shard is one worker's private slice of the registry. All methods are safe
// for concurrent use (remote verbs handlers may run on the owner's shard),
// but the common case is single-writer. A nil *Shard is a valid no-op sink,
// so components wired outside a cluster (unit tests, standalone QPs) need no
// guards.
type Shard struct {
	reg  *Registry
	ring atomic.Pointer[traceRing]

	counters [NumEvents]atomic.Int64
	gauges   [NumGauges]atomic.Int64
	hists    [NumPhases]hist

	// The wave ledger: what the waves polled in each stage added up to.
	waves [NumStages]struct{ waves, wrs, cases, nanos, inflight atomic.Int64 }

	// Pad past the end of the hot arrays so adjacent heap objects never
	// share the last cache line of a shard.
	_ [64]byte
}

// NewShard returns a standalone shard not attached to any registry: the
// tally of a queue pair or cache used outside a cluster (unit tests,
// closed-form experiments).
func NewShard() *Shard { return &Shard{} }

// Inc counts one occurrence of ev.
func (s *Shard) Inc(ev Event) {
	if s == nil {
		return
	}
	s.counters[ev].Add(1)
}

// Add counts d occurrences of ev.
func (s *Shard) Add(ev Event, d int64) {
	if s == nil {
		return
	}
	s.counters[ev].Add(d)
}

// Max raises gauge g to v if v is above it. The shard's owner is the gauge's
// one writer; Reset may race it and lose, which a high-water mark survives.
func (s *Shard) Max(g Gauge, v int64) {
	if s != nil && v > s.gauges[g].Load() {
		s.gauges[g].Store(v)
	}
}

// Count returns the shard-local count of ev.
func (s *Shard) Count(ev Event) int64 {
	if s == nil {
		return 0
	}
	return s.counters[ev].Load()
}

// Observe records one duration (in nanoseconds of modeled time) for a phase.
func (s *Shard) Observe(ph Phase, ns int64) {
	if s == nil {
		return
	}
	s.hists[ph].observe(ns)
}

// Wave books one polled doorbell wave of a stage: its work requests, how many
// of them were atomics, and the modeled nanoseconds the poll charged.
func (s *Shard) Wave(st Stage, wrs, cases int, ns int64) {
	if s == nil {
		return
	}
	w := &s.waves[st]
	w.waves.Add(1)
	w.wrs.Add(int64(wrs))
	w.cases.Add(int64(cases))
	w.nanos.Add(ns)
}

// Inflight books latency a detached wave of a stage left in flight.
func (s *Shard) Inflight(st Stage, ns int64) {
	if s == nil {
		return
	}
	s.waves[st].inflight.Add(ns)
}

// TraceEnabled reports whether transaction tracing is currently on. The
// check is one atomic load; callers use it to skip assembling TraceEvents.
func (s *Shard) TraceEnabled() bool {
	return s != nil && s.reg != nil && s.reg.tracing.Load()
}

// Trace appends ev to the worker's ring buffer. A no-op when tracing is
// disabled or the shard is standalone.
func (s *Shard) Trace(ev TraceEvent) {
	if s == nil {
		return
	}
	if r := s.ring.Load(); r != nil {
		r.push(ev)
	}
}

func (s *Shard) reset() {
	for i := range s.counters {
		s.counters[i].Store(0)
	}
	for g := range s.gauges {
		s.gauges[g].Store(0)
	}
	for p := range s.hists {
		h := &s.hists[p]
		h.count.Store(0)
		h.sum.Store(0)
		h.max.Store(0)
		for b := range h.buckets {
			h.buckets[b].Store(0)
		}
	}
	for st := range s.waves {
		w := &s.waves[st]
		w.waves.Store(0)
		w.wrs.Store(0)
		w.cases.Store(0)
		w.nanos.Store(0)
		w.inflight.Store(0)
	}
}

// Registry owns the shards of one deployment: one per worker, aggregated on
// demand into immutable Snapshots.
type Registry struct {
	shards  []*Shard
	tracing atomic.Bool
	traceMu sync.Mutex // serializes Enable/Disable/Drain, not the hot path
}

// NewRegistry creates a registry with n shards (one per worker).
func NewRegistry(n int) *Registry {
	r := &Registry{shards: make([]*Shard, n)}
	for i := range r.shards {
		r.shards[i] = &Shard{reg: r}
	}
	return r
}

// Shard returns shard i. Shards are assigned to workers by the cluster.
func (r *Registry) Shard(i int) *Shard { return r.shards[i] }

// Total sums ev across all shards.
func (r *Registry) Total(ev Event) int64 {
	var t int64
	for _, s := range r.shards {
		t += s.counters[ev].Load()
	}
	return t
}

// Reset zeroes every counter and histogram in every shard. Trace rings are
// left alone (they are bounded and drain-on-read).
func (r *Registry) Reset() {
	for _, s := range r.shards {
		s.reset()
	}
}

// Snapshot aggregates all shards into an immutable value. Concurrent
// updates may or may not be included (the usual relaxed-snapshot guarantee
// of striped counters); each individual counter is itself consistent.
func (r *Registry) Snapshot() Snapshot {
	var sn Snapshot
	for _, s := range r.shards {
		for ev := 0; ev < NumEvents; ev++ {
			sn.Counters[ev] += s.counters[ev].Load()
		}
		for g := range s.gauges {
			sn.Gauges[g] = max(sn.Gauges[g], s.gauges[g].Load())
		}
		for p := 0; p < NumPhases; p++ {
			h := &s.hists[p]
			d := &sn.Phases[p]
			d.Count += h.count.Load()
			d.Sum += h.sum.Load()
			if m := h.max.Load(); m > d.Max {
				d.Max = m
			}
			for b := 0; b < histBuckets; b++ {
				d.Buckets[b] += h.buckets[b].Load()
			}
		}
		for st := range s.waves {
			w, d := &s.waves[st], &sn.Stages[st]
			d.Waves += w.waves.Load()
			d.WRs += w.wrs.Load()
			d.CASes += w.cases.Load()
			d.Nanos += w.nanos.Load()
			d.Inflight += w.inflight.Load()
		}
	}
	return sn
}

// Snapshot is an immutable cross-shard aggregate.
type Snapshot struct {
	Counters [NumEvents]int64
	Gauges   [NumGauges]int64 // high-water marks: the maximum over the shards
	Phases   [NumPhases]HistSnapshot
	Stages   [NumStages]WaveStats
}

// Counter returns the snapshot's count of ev.
func (s Snapshot) Counter(ev Event) int64 { return s.Counters[ev] }

// Count reads a counter by its registry name: an event's count, summed with
// the events named under it ("htm.abort" is the five abort causes,
// "cache.hit" the hash and the ordered frames' hits, "index.descent" both
// kinds of descent). A gauge is read by its exact name and joins no sum: a
// high-water mark does not add. An unknown name panics.
func (s Snapshot) Count(name string) int64 {
	for g, gn := range gaugeNames {
		if gn == name {
			return s.Gauges[g]
		}
	}
	n, found := int64(0), false
	for ev, en := range eventNames {
		if en == name || strings.HasPrefix(en, name+".") {
			n += s.Counters[ev]
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("obs: no counter named %q", name))
	}
	return n
}

// Hist returns the histogram of the phase called name; an unknown name panics.
func (s Snapshot) Hist(name string) HistSnapshot {
	for p, pn := range phaseNames {
		if pn == name {
			return s.Phases[p]
		}
	}
	panic(fmt.Sprintf("obs: no phase named %q", name))
}

// String renders every counter and every phase with observations, generated
// from the name tables: one line per top-level group of the events, in table
// order (the gauge in its group's line), then one line per phase. A phase's
// values are modeled durations, except PhaseBatchOps' work-request counts.
func (s Snapshot) String() string {
	var groups []string
	lines := map[string]*strings.Builder{}
	add := func(name string, v int64) {
		group, rest, _ := strings.Cut(name, ".")
		l := lines[group]
		if l == nil {
			l = &strings.Builder{}
			lines[group] = l
			groups = append(groups, group)
		} else {
			l.WriteByte(' ')
		}
		fmt.Fprintf(l, "%s=%d", rest, v)
	}
	for ev, name := range eventNames {
		add(name, s.Counters[ev])
	}
	for g, name := range gaugeNames {
		add(name, s.Gauges[g])
	}
	var b strings.Builder
	for _, g := range groups {
		fmt.Fprintf(&b, "%-10s%s\n", g+":", lines[g])
	}
	for p, h := range s.Phases {
		if h.Count == 0 {
			continue
		}
		v := func(ns int64) any { return time.Duration(ns) }
		if Phase(p) == PhaseBatchOps {
			v = func(wrs int64) any { return wrs }
		}
		fmt.Fprintf(&b, "phase:    %-15s n=%-8d p50=%-10v p95=%-10v p99=%-10v max=%v\n",
			phaseNames[p], h.Count, v(h.Percentile(50)), v(h.Percentile(95)), v(h.Percentile(99)), v(h.Max))
	}
	return b.String()
}

// Delta returns the event-by-event, bucket-by-bucket difference s - prev,
// scoping counters to the interval between the two snapshots. A histogram's
// Max and the gauges are high-water marks and cannot be subtracted; the delta
// keeps s's values.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := s
	for ev := range out.Counters {
		out.Counters[ev] -= prev.Counters[ev]
	}
	for p := range out.Phases {
		d := &out.Phases[p]
		pv := &prev.Phases[p]
		d.Count -= pv.Count
		d.Sum -= pv.Sum
		for b := range d.Buckets {
			d.Buckets[b] -= pv.Buckets[b]
		}
	}
	for st := range out.Stages {
		d, pv := &out.Stages[st], &prev.Stages[st]
		d.Waves -= pv.Waves
		d.WRs -= pv.WRs
		d.CASes -= pv.CASes
		d.Nanos -= pv.Nanos
		d.Inflight -= pv.Inflight
	}
	return out
}

// HistSnapshot is one phase's aggregated histogram.
type HistSnapshot struct {
	Count, Sum, Max int64
	Buckets         [histBuckets]int64
}

// Mean returns the mean observed duration in nanoseconds.
func (h HistSnapshot) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100)
// in nanoseconds, accurate to the bucket resolution (<= 25% relative).
func (h HistSnapshot) Percentile(p float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(p / 100 * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		cum += h.Buckets[b]
		if cum >= rank {
			if b == histBuckets-1 {
				return h.Max
			}
			upper := bucketLower(b+1) - 1
			if h.Max > 0 && upper > h.Max {
				return h.Max
			}
			return upper
		}
	}
	return h.Max
}

// ---- transaction tracing -------------------------------------------------

// Outcome classifies a traced transaction's final disposition.
type Outcome uint8

const (
	OutcomeCommit   Outcome = iota // committed via the HTM path
	OutcomeFallback                // committed via the software fallback path
	OutcomeAbort                   // returned an error to the caller

	numOutcomes int = iota
)

var outcomeNames = [numOutcomes]string{
	OutcomeCommit:   "commit",
	OutcomeFallback: "fallback",
	OutcomeAbort:    "abort",
}

func (o Outcome) String() string { return nameOf(outcomeNames[:], int(o), "Outcome") }

// AbortCause records the last abort reason observed for a traced transaction.
type AbortCause uint8

const (
	CauseNone     AbortCause = iota
	CauseConflict            // HTM working-set conflict
	CauseCapacity            // HTM capacity
	CauseLocked              // local record remotely locked
	CauseLease               // lease invalid at confirm
	CauseExplicit            // other explicit abort
	CauseRemote              // remote lock/lease acquisition conflict
	CauseUser                // user abort / user error
	CauseSpec                // speculative read validation failed at commit
	CauseScan                // range-scan validation failed at commit (phantom)

	numCauses int = iota
)

var causeNames = [numCauses]string{
	CauseNone:     "none",
	CauseConflict: "conflict",
	CauseCapacity: "capacity",
	CauseLocked:   "locked",
	CauseLease:    "lease",
	CauseExplicit: "explicit",
	CauseRemote:   "remote-lock",
	CauseUser:     "user",
	CauseSpec:     "spec-validate",
	CauseScan:     "scan-validate",
}

func (c AbortCause) String() string { return nameOf(causeNames[:], int(c), "AbortCause") }

// TraceKind distinguishes what a TraceEvent records.
type TraceKind uint8

const (
	// TraceTx is a whole-transaction event (the default, zero value).
	TraceTx TraceKind = iota
	// TraceFailover is a hot-failover promotion: Node holds the crashed
	// primary, Worker the promoted backup, TxID the partition's new packed
	// view word (epoch<<8|owner), Attempts the redo records replayed, and
	// TotalNS the promotion's wall-clock duration; other fields are unused.
	TraceFailover

	numTraceKinds int = iota
)

var traceKindNames = [numTraceKinds]string{
	TraceTx:       "tx",
	TraceFailover: "failover",
}

func (k TraceKind) String() string { return nameOf(traceKindNames[:], int(k), "TraceKind") }

// TraceEvent is one traced transaction: identity, disposition, and the
// phase timeline in modeled (virtual-clock) nanoseconds. StartNS is the
// worker's virtual clock at Exec entry; phase durations are deltas of the
// same clock, so `StartNS + LockNS + ...` reconstructs phase timestamps.
// Kind != TraceTx marks protocol events that share the ring (failovers);
// see the TraceKind constants for their field conventions.
type TraceEvent struct {
	Seq      uint64    // per-worker monotonic sequence
	Kind     TraceKind // what this event records (TraceTx for transactions)
	TxID     uint64
	Node     int32
	Worker   int32
	Attempts int32 // whole-transaction attempts (1 = first try)
	Outcome  Outcome
	Abort    AbortCause // last abort cause seen (CauseNone if clean)

	StartNS  int64 // worker vtime at transaction start
	LockNS   int64 // Start phase: remote lock/lease + prefetch
	HTMNS    int64 // LocalTX phase (HTM attempts and/or fallback body)
	CommitNS int64 // Commit phase: remote write-back + unlock
	TotalNS  int64 // Exec entry to return
}

// traceRing is a bounded per-worker ring buffer of TraceEvents. Pushes take
// a mutex — tracing is a debug feature, not a hot-path one; when tracing is
// off the ring does not exist and the only cost is an atomic pointer load.
type traceRing struct {
	mu   sync.Mutex
	buf  []TraceEvent
	next int
	seq  uint64
	full bool
}

func (r *traceRing) push(ev TraceEvent) {
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// drain returns buffered events oldest-first and empties the ring.
func (r *traceRing) drain() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []TraceEvent
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	r.next = 0
	r.full = false
	return out
}

// EnableTrace switches transaction tracing on, giving each shard a ring of
// perWorker events (minimum 1). Newer events overwrite older ones.
func (r *Registry) EnableTrace(perWorker int) {
	if perWorker < 1 {
		perWorker = 1
	}
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	for _, s := range r.shards {
		s.ring.Store(&traceRing{buf: make([]TraceEvent, perWorker)})
	}
	r.tracing.Store(true)
}

// DisableTrace switches tracing off and frees the rings. Undrained events
// are discarded.
func (r *Registry) DisableTrace() {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	r.tracing.Store(false)
	for _, s := range r.shards {
		s.ring.Store(nil)
	}
}

// DrainTrace returns and clears all buffered trace events, grouped by
// worker shard and oldest-first within each worker. Safe to call while
// workers are still tracing.
func (r *Registry) DrainTrace() []TraceEvent {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	var out []TraceEvent
	for _, s := range r.shards {
		if ring := s.ring.Load(); ring != nil {
			out = append(out, ring.drain()...)
		}
	}
	return out
}
