// Package tx implements DrTM's transaction layer — the paper's core
// contribution (Sections 3, 4 and 6): strictly serializable distributed
// transactions that run their local part inside an HTM region and
// coordinate cross-machine access with a 2PL-style protocol built from
// one-sided RDMA operations.
//
// Protocol summary (Figure 2(a) / Figure 3):
//
//	Start phase    — lock & prefetch every remote record: exclusive locks
//	                 via RDMA CAS on the record's state word, shared locks
//	                 via leases (Section 4.2); fetch values with RDMA READ.
//	LocalTX phase  — run the transaction body inside an HTM region; local
//	                 reads/writes check the state word (Figure 6) so remote
//	                 lockers and local HTM transactions compose correctly
//	                 (Table 2); staged remote values are read from and
//	                 written to a transaction-private buffer.
//	Commit phase   — inside the HTM region, re-confirm every lease, then
//	                 XEND publishes all local effects atomically; afterwards
//	                 write back and unlock remote records with RDMA WRITEs.
//
// Forward progress: HTM conflict aborts retry the region; too many aborts
// (or a capacity abort) take the software fallback path (Section 6.2),
// which releases held locks and re-acquires locks for ALL records — local
// ones included — in a global <table, key> order before executing the body
// unprotected. Read-only transactions use the separate lease-confirm scheme
// of Figure 8 and never enter HTM. Durability follows Section 4.6 with
// chopping, lock-ahead and write-ahead logs in emulated NVRAM.
package tx

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
	"drtm/internal/vtime"
)

// Kind distinguishes the two memory-store flavors.
type Kind int

const (
	// Unordered tables are DrTM-KV hash tables with a one-sided RDMA path.
	Unordered Kind = iota
	// Ordered tables are B+ tree stores; remote access ships the operation
	// to the host over verbs (Section 6.5).
	Ordered
)

// TableMeta describes a registered table.
type TableMeta struct {
	ID         int
	Kind       Kind
	ValueWords int
}

// Partitioner maps a record to its home node.
type Partitioner func(table int, key uint64) int

// Runtime wires the transaction layer onto a cluster.
type Runtime struct {
	C    *cluster.Cluster
	Part Partitioner

	tables map[int]TableMeta

	// caches[node] holds node-level location caches keyed by
	// (remote node, storage region): shared by all of the node's workers, as
	// in Section 5.3.
	caches []*cacheSet

	// FallbackThreshold is the number of HTM aborts before the software
	// fallback path takes over.
	FallbackThreshold int

	// CacheBudgetBytes sizes each (node, region) location cache, bucket and
	// ordered frames alike; 0 disables caching (the DrTM-KV vs DrTM-KV/$
	// distinction of Section 5.4).
	CacheBudgetBytes int

	// ReadPolicy selects the concurrency-control arm for remote read-set
	// records: lease-based shared locks (the zero-value default),
	// speculative one-RTT OCC reads, speculation that escalates a losing
	// transaction to leases (adaptive), or exclusive locks — the Figure 17
	// "no read lease" ablation (see policy.go). The software fallback path
	// always uses locks — its in-place updates cannot be rolled back, so
	// optimistic reads are unsound there. A transaction reads it when it
	// starts, so a change between two transactions applies to the second.
	ReadPolicy ReadPolicy

	// BatchWindow bounds outstanding work requests per worker send queue in
	// the batched Start/Commit pipelines. 0 selects rdma.DefaultWindow; 1
	// serializes every verb (the pre-batching behavior, used as the control
	// arm of the `batch` experiment).
	BatchWindow int

	// indexes maps an ordered base table to its declared secondary indexes.
	// Written only during setup (DefineIndex); read lock-free afterwards.
	indexes map[int][]IndexSpec

	// pending parks, without replication, release-side steps whose target
	// node crashed mid-transaction (fault.go). recMu serializes the repairs
	// (Recover, Failover) and, under replication, defer_'s steps with them.
	pendMu  sync.Mutex
	pending map[int][]func(*Runtime)
	recMu   sync.Mutex

	// Replication's redo-apply serialization and delete fencing (repl.go),
	// one shard per partition: every critical section names one partition.
	redoShards []redoShard
}

// redoShard is one partition's redo-apply lock and delete fencing: mu is what
// applyRedo's check-then-write and the structural ops on the partition's
// copies run under (lockCopies). delGen counts, per record, the deletes
// applied so far (a drain skips an update stamped with an older count); bk is
// the copy rule's mirror list. Both are valid only under mu.
type redoShard struct {
	mu     sync.Mutex
	delGen map[delKey]uint64
	bk     []int
}

// delKey identifies a logical record within its partition's redoShard.
type delKey struct {
	table int
	key   uint64
}

// Errors.
var (
	// ErrRetry signals that the attempt is lost and the transaction must be
	// retried from scratch (Start phase included): a remote lock conflict, an
	// expired lease, a failed validation. Exec and ExecRO retry it — a body
	// may return it to ask for a retry — and never return it.
	ErrRetry = errors.New("tx: conflict, retry transaction")
	// ErrUserAbort is returned by Tx.UserAbort (e.g. TPC-C's 1% invalid
	// new-order): the transaction rolls back and is NOT retried.
	ErrUserAbort = errors.New("tx: user abort")
	// ErrNotFound reports an access to a missing record.
	ErrNotFound = errors.New("tx: record not found")
	// ErrNodeDown reports an access to a crashed node (triggers suspension
	// in the caller per Section 4.6) — or an escalated attempt waiting for a
	// lock whose owner's node crashed, which only recovery frees.
	ErrNodeDown = errors.New("tx: remote node is down")
)

// NewRuntime builds a transaction runtime for the cluster.
func NewRuntime(c *cluster.Cluster, part Partitioner) *Runtime {
	rt := &Runtime{
		C:                 c,
		Part:              part,
		tables:            make(map[int]TableMeta),
		FallbackThreshold: 8,
		CacheBudgetBytes:  1 << 22,
		redoShards:        make([]redoShard, c.Nodes()),
	}
	for p := range rt.redoShards {
		rt.redoShards[p].delGen = make(map[delKey]uint64)
	}
	for i := 0; i < c.Nodes(); i++ {
		rt.caches = append(rt.caches, newCacheSet())
	}
	rt.installStoreHandlers()
	rt.installOrderedHandlers()
	return rt
}

// DefineUnordered registers an unordered table across the cluster.
func (rt *Runtime) DefineUnordered(id, mainBuckets, indirectBuckets, capacity, valueWords int) {
	rt.C.RegisterUnordered(id, mainBuckets, indirectBuckets, capacity, valueWords)
	rt.tables[id] = TableMeta{ID: id, Kind: Unordered, ValueWords: valueWords}
}

// DefineOrdered registers an ordered table across the cluster.
func (rt *Runtime) DefineOrdered(id, capacity, valueWords int) {
	rt.DefineOrderedSeg(id, capacity, valueWords, 0)
}

// DefineOrderedSeg registers an ordered table whose phantom-detection segment
// stamps are keyed on key>>segShift (see kvs.Ordered): scans validate the
// stamp words covering their range, so segShift should strip the intra-range
// low bits of the table's key encoding (e.g. 8 for keys of the form
// id<<8|sub) to keep unrelated inserts from invalidating a scan.
func (rt *Runtime) DefineOrderedSeg(id, capacity, valueWords int, segShift uint) {
	rt.C.RegisterOrdered(id, capacity, valueWords, segShift)
	rt.tables[id] = TableMeta{ID: id, Kind: Ordered, ValueWords: valueWords}
}

// IndexSpec declares a secondary index over an ordered base table: for every
// live base row (key, val), the index table holds a live entry at
// Key(key, val) whose single value word is the base key. Index keys must be
// unique across live rows (encode the base key into the low bits when the
// indexed attribute can collide), and the partitioner must co-locate every
// index entry with its base row — index maintenance happens inside the base
// write's HTM region and cannot hop nodes mid-region.
type IndexSpec struct {
	Table int // the index's own ordered table
	Key   func(baseKey uint64, val []uint64) uint64
}

// DefineIndex attaches a secondary index to an ordered base table. The index
// table must already be defined (ordered, ValueWords >= 1). Tx.WInsert and
// Tx.Erase maintain it transactionally. Plain writes must not change the
// indexed attribute — Local.Write panics if they would (update such rows
// with Erase + WInsert, which carries the index fixup in the same
// transaction).
func (rt *Runtime) DefineIndex(base int, spec IndexSpec) {
	bm := rt.Meta(base)
	im := rt.Meta(spec.Table)
	if bm.Kind != Ordered || im.Kind != Ordered {
		panic("tx: secondary indexes require ordered base and index tables")
	}
	if im.ValueWords < 1 {
		panic("tx: index table needs >= 1 value word for the base key")
	}
	if rt.indexes == nil {
		rt.indexes = make(map[int][]IndexSpec)
	}
	rt.indexes[base] = append(rt.indexes[base], spec)
}

// indexesOf returns the secondary indexes declared over a base table.
func (rt *Runtime) indexesOf(table int) []IndexSpec { return rt.indexes[table] }

// Meta returns a table's metadata.
func (rt *Runtime) Meta(table int) TableMeta {
	m, ok := rt.tables[table]
	if !ok {
		panic(fmt.Sprintf("tx: unknown table %d", table))
	}
	return m
}

// CacheStats totals location-cache hits/misses/invalidations over every
// worker, hash and ordered regions' frames alike.
func (rt *Runtime) CacheStats() (hits, misses, invals int64) {
	oh, om, oi := rt.OrderedCacheStats()
	reg := rt.C.Obs
	return reg.Total(obs.EvCacheHit) + oh, reg.Total(obs.EvCacheMiss) + om, reg.Total(obs.EvCacheInval) + oi
}

// OrderedCacheStats is CacheStats over the ordered regions' frames alone.
func (rt *Runtime) OrderedCacheStats() (hits, misses, invals int64) {
	reg := rt.C.Obs
	return reg.Total(obs.EvOrderedCacheHit), reg.Total(obs.EvOrderedCacheMiss), reg.Total(obs.EvOrderedCacheInval)
}

// Tables returns all registered table IDs.
func (rt *Runtime) Tables() []int {
	out := make([]int, 0, len(rt.tables))
	for id := range rt.tables {
		out = append(out, id)
	}
	return out
}

// Executor returns a transaction executor bound to a worker. Executors are
// not safe for concurrent use; create one per worker goroutine.
func (rt *Runtime) Executor(node, worker int) *Executor {
	w := rt.C.Worker(node, worker)
	return &Executor{
		rt:  rt,
		w:   w,
		rng: rand.New(rand.NewSource(int64(node*1000 + worker + 1))),

		locCaches: make(map[cacheKey]*kvs.LocationCache),
	}
}

// Executor runs transactions on behalf of one worker thread.
type Executor struct {
	rt  *Runtime
	w   *cluster.Worker
	rng *rand.Rand

	txSeq uint64 // local transaction sequence, for log record IDs

	sq *rdma.SendQueue // lazily created post/poll queue for batched phases

	// redoSince counts, per backup node, the words this executor's redo
	// records added to its ring there since the last one that carried the
	// home bit (appendRedo's ring bound).
	redoSince []int

	// fingers holds one B+ tree leaf finger per ordered region of this node
	// (finger); locCaches, the node's location caches it has used (cacheFor).
	fingers   map[int]*kvs.Finger
	locCaches map[cacheKey]*kvs.LocationCache

	// Hot-path pools: Exec's per-attempt Tx shell, ExecRO's shell,
	// staged-record structs and the Start phase's staging scratch are reused
	// across attempts and transactions instead of reallocated (see recycle /
	// RO.release / getRec / getReq). Executors are single-goroutine objects,
	// so none of this needs locking.
	freeTx   *Tx
	freeRO   *RO
	recFree  []*remoteRec
	reqFree  []*stageReq
	reqScr   []*stageReq // Stage's per-call batch ordering
	activeWR []*rdma.WR  // posted-wave scratch
	activeSR []*stageReq // acquire-wave scratch
	lreqScr  []*kvs.LookupReq
	hdrBuf   []uint64                // validation-wave READ destinations
	imgBuf   []uint64                // readEntry's image (serial fetches: RO, fallback)
	bktBuf   [kvs.BucketWords]uint64 // resolve's bucket image (serial lookups)

	// Shipped-message scratch: the envelope every two-sided call reuses, the
	// multi-op tree message and the requests its ops answer, the removal
	// message and the range-scan message.
	callMsg  cluster.Msg
	shipMsg  orderedOpsMsg
	shipReqs []*stageReq
	remMsg   removeDeadMsg
	scanMsg  rangeScanMsg

	scanOut  []KeyOff  // scanLocal's result, valid until the next scan
	scanRows []ScanRow // Tx.Scan's and RO.Scan's result, valid until the next scan
}

// getRec pops a pooled staged-record struct (value buffer capacity kept). A
// new one's buffer is sized for the widest table, so a warm pool grows no
// buffer, whichever rows its records are reused for.
func (e *Executor) getRec() *remoteRec {
	if n := len(e.recFree); n > 0 {
		r := e.recFree[n-1]
		e.recFree = e.recFree[:n-1]
		*r = remoteRec{recImage: recImage{buf: r.buf[:0]}}
		return r
	}
	vw := 0
	for _, m := range e.rt.tables {
		vw = max(vw, m.ValueWords)
	}
	return &remoteRec{recImage: recImage{buf: make([]uint64, 0, vw)}}
}

// putRecs returns staged-record structs to the pool. Callers must drop every
// reference first: the structs (and their value buffers) are reused by later
// transactions on this executor.
func (e *Executor) putRecs(recs []*remoteRec) {
	e.recFree = append(e.recFree, recs...)
}

// recycle returns a finished transaction's shell and staged records to the
// executor's pools. Value slices obtained from Local.Read alias this storage
// and are invalid once Exec returns.
func (e *Executor) recycle(t *Tx) {
	if !t.finished {
		return
	}
	t.release()
	t.deferred = t.deferred[:0]
	t.removals = t.removals[:0]
	t.owed = t.owed[:0]
	t.swords = t.swords[:0]
	t.chopped = false
	t.finished = false
	t.specDown = false
	t.usedFallback = false
	t.escalated = false
	t.lastAbort = obs.CauseNone
	t.vLock, t.vHTM, t.vCommit = 0, 0, 0
	e.freeTx = t
}

// window is the runtime's BatchWindow in force: the outstanding-WR bound of
// the send queue and the key bound of a shipped message.
func (e *Executor) window() int {
	if w := e.rt.BatchWindow; w > 0 {
		return w
	}
	return rdma.DefaultWindow
}

// sendq returns the worker's send queue for the waves of one transaction
// stage, (re)created to match the runtime's current BatchWindow. The queue is
// always drained between uses (every pipeline stage polls what it posts), so
// swapping it is safe.
func (e *Executor) sendq(stage obs.Stage) *rdma.SendQueue {
	if w := e.window(); e.sq == nil || e.sq.Window() != w {
		e.sq = e.w.QP.NewSendQueue(w)
	}
	e.sq.Stage = stage
	return e.sq
}

// Worker exposes the underlying worker context.
func (e *Executor) Worker() *cluster.Worker { return e.w }

// Runtime exposes the owning runtime.
func (e *Executor) Runtime() *Runtime { return e.rt }

func (e *Executor) model() *vtime.Model { return e.rt.C.Fabric.Model() }

func (e *Executor) charge(ns int64) { e.w.VClock.ChargeNS(ns) }

// route maps a record's logical coordinates to its current host under the
// replication view: (owning node, storage region on that node, home
// partition). Without replication — or while the home node owns its
// partition — this is the plain partitioner answer with region == table.
// After a failover promotion, accesses to the crashed partition route to the
// promoted backup's replica region. part is -1 for replicated tables (always
// local, never backed up through the redo protocol).
func (e *Executor) route(table int, key uint64) (node, region, part int) {
	part = e.rt.Part(table, key)
	if part < 0 {
		return e.w.Node.ID, table, -1
	}
	node, region = e.rt.C.Serving(part, table)
	return node, region, part
}

// cacheFor returns this node's location cache for (remote node, region) — bucket
// frames for a hash region, (key, offset) frames for an ordered one — or nil
// when caching is disabled. Caches key on the storage region — not the
// logical table — so primary and replica locations never mix. A cache is never
// replaced: the executor remembers those it has used and takes the node-wide
// set's lock for the first access of each only.
func (e *Executor) cacheFor(node, region int) *kvs.LocationCache {
	budget := e.rt.CacheBudgetBytes
	if budget <= 0 {
		return nil
	}
	k := cacheKey{node, region}
	if c, ok := e.locCaches[k]; ok {
		return c
	}
	c := e.rt.caches[e.w.Node.ID].get(k, func() *kvs.LocationCache {
		if _, ok := e.rt.C.Node(node).OrderedRegion(region); ok {
			return kvs.NewOrderedCache(budget)
		}
		return kvs.NewLocationCache(budget)
	})
	e.locCaches[k] = c
	return c
}

// Exec runs a transaction to completion: build stages the read/write sets
// and calls Tx.Execute; a lost attempt — a conflict, a lease, a validation,
// the body's own ErrRetry — retries the whole transaction with randomized
// backoff, and from the escalateAfter-th lost attempt on every attempt
// escalates (Tx.escalated), so it waits for what it needs instead of losing
// it. Exec returns nil, ErrUserAbort, ErrNotFound, ErrNodeDown (a machine it
// needs is down, or the owner of a lock an escalated attempt waits for) or the
// body's own error. Phase durations accumulate across attempts, so the recorded
// histograms reflect what the caller paid for the committed transaction,
// conflicts included.
func (e *Executor) Exec(build func(t *Tx) error) error {
	sh := e.w.Obs
	start := int64(e.w.VClock.Now())
	var vLock, vHTM, vCommit int64
	lastAbort := obs.CauseNone
	usedFallback := false
	for attempt := 0; ; attempt++ {
		e.reclaimLogs() // no lock held, no write owed: the logs' records are dead
		t := e.newTx()
		if t.escalated = attempt >= escalateAfter; t.escalated {
			sh.Inc(obs.EvTxEscalate)
		}
		err := build(t)
		t.releaseLocks() // no lock leaks if build returned early
		vLock += t.vLock
		vHTM += t.vHTM
		vCommit += t.vCommit
		if t.lastAbort != obs.CauseNone {
			lastAbort = t.lastAbort
		}
		usedFallback = usedFallback || t.usedFallback
		switch {
		case err == nil:
			sh.Inc(obs.EvTxCommit)
			total := int64(e.w.VClock.Now()) - start
			sh.Observe(obs.PhaseTotal, total)
			if vLock > 0 {
				sh.Observe(obs.PhaseLockRemote, vLock)
			}
			if vHTM > 0 {
				sh.Observe(obs.PhaseHTM, vHTM)
			}
			if vCommit > 0 {
				sh.Observe(obs.PhaseCommit, vCommit)
			}
			if sh.TraceEnabled() {
				out := obs.OutcomeCommit
				if usedFallback {
					out = obs.OutcomeFallback
				}
				sh.Trace(obs.TraceEvent{
					TxID: t.txid, Node: int32(e.w.Node.ID), Worker: int32(e.w.ID),
					Attempts: int32(attempt + 1), Outcome: out, Abort: lastAbort,
					StartNS: start, LockNS: vLock, HTMNS: vHTM, CommitNS: vCommit,
					TotalNS: total,
				})
			}
			e.recycle(t)
			return nil
		case errors.Is(err, ErrRetry):
			sh.Inc(obs.EvTxRetry)
			cause := t.lastAbort
			e.recycle(t)
			e.backoff(attempt, cause)
		default:
			if errors.Is(err, ErrNodeDown) {
				sh.Inc(obs.EvNodeDownAbort)
			}
			if sh.TraceEnabled() {
				cause := lastAbort
				if errors.Is(err, ErrUserAbort) {
					cause = obs.CauseUser
				}
				sh.Trace(obs.TraceEvent{
					TxID: t.txid, Node: int32(e.w.Node.ID), Worker: int32(e.w.ID),
					Attempts: int32(attempt + 1), Outcome: obs.OutcomeAbort, Abort: cause,
					StartNS: start, LockNS: vLock, HTMNS: vHTM, CommitNS: vCommit,
					TotalNS: int64(e.w.VClock.Now()) - start,
				})
			}
			e.recycle(t)
			return err
		}
	}
}

// backoff performs a randomized exponential backoff before the retry of an
// attempt that failed for cause. The wait is always charged to virtual time
// for throughput accounting. It is also spent in real time when the attempt
// lost to a lease or a lock: lease expiry is a real-time phenomenon, and on a
// busy core the holder needs the processor more than the loser needs another
// try. Any other failure — a speculative read or a scan that did not
// validate, a stale location — left nothing to wait out: the retry only
// yields.
func (e *Executor) backoff(attempt int, cause obs.AbortCause) {
	vexp := min(attempt, 7)               // cap the charged wait at ~16us: retry CAS costs dominate
	maxNS := int64(1) << (uint(vexp) + 7) // 128ns .. 16us
	e.charge(e.rng.Int63n(maxNS) + 1)
	waits := cause == obs.CauseLease || cause == obs.CauseLocked || cause == obs.CauseRemote
	if attempt < 4 || !waits {
		runtime.Gosched()
		return
	}
	time.Sleep(min(time.Duration(1<<(uint(min(attempt, 10))-3))*32*time.Microsecond, time.Millisecond))
}
