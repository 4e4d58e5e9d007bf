package tx

import (
	"errors"

	"drtm/internal/clock"
	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// Explicit HTM abort codes used by the protocol (XABORT imm8 values).
const (
	abortCodeLocked uint8 = 1 // local access found the record remotely locked
	abortCodeLease  uint8 = 2 // lease confirmation failed at commit
	abortCodeSpec   uint8 = 3 // speculative read validation failed at commit
	abortCodeView   uint8 = 4 // a touched partition's view changed (failover)
	abortCodeScan   uint8 = 5 // range-scan validation failed at commit (phantom)
	abortCodeStale  uint8 = 6 // a staged insert/erase entry was recycled under us
)

// remoteRec is a declared record: a remote record of a Tx (Start phase), a
// local one (local), every record of the software fallback, and any record —
// local ones too — of a read-only transaction.
type remoteRec struct {
	recHandle
	recImage
	leaseEnd uint64 // granted lease end (reads)
	write    bool   // exclusive lock held (writes); with spec, declared by an escalated attempt; with local, declared for write
	spec     bool   // speculative read: no lock held, validated at commit
	dirty    bool   // buffer modified; needs write-back (local: the region wrote the row)

	// local marks a record of this node the HTM region reads and writes in
	// place: it holds no lock, and lives in Tx.locals, not in recs, until the
	// fallback takes it (restage). A write leaves on it what it found (inc,
	// version) and installed (buf), so update() answers for it as for a
	// staged record. arena memoizes where the current attempt's first access
	// found it, at off (arena is nil until then), so a Read followed by a
	// Write costs one index lookup. The memo lives exactly as long as the
	// attempt (beginAttempt forgets it): that first access put the entry's
	// state and incver words — and, for a hash table, the bucket words
	// LookupTx walked — into this attempt's read set, so an erase, a recycled
	// slot or a bucket-chain move between the two accesses dooms the region
	// instead of leaving the memo pointing at somebody else's entry. A new
	// attempt has an empty read set and resolves again.
	local bool
	arena *memory.Arena

	// insert marks a transactional insert staged against a dead ordered entry
	// (flipped live at commit; the buffer holds the value to publish, dirty
	// from declare); erase marks a transactional delete (flipped dead at
	// commit, physical removal a post-commit host op; the buffer holds the
	// value observed at declare). Either way inc and version are what the
	// entry carried when it was declared.
	insert bool
	erase  bool

	// absent marks a declared row the fallback found missing: the body reads
	// and writes it as missing, as the region would.
	absent bool
}

// update returns what the commit installs in a record it wrote, inserted or
// erased, and what its commit record logs: the post-commit incarnation (the
// flip's for an insert or an erase, the row's standing one for a plain write)
// and the value, none for an erase (the flip to dead carries no value). ok is
// false for a lease, a speculative read and a clean write lock, which install
// nothing.
func (r *remoteRec) update() (inc uint32, val []uint64, ok bool) {
	switch {
	case !r.write || (!r.dirty && !r.erase):
		return 0, nil, false
	case r.erase:
		return r.inc + 1, nil, true
	case r.insert:
		return r.inc + 1, r.buf, true
	}
	return r.inc, r.buf, true
}

// commitWord is the incarnation|version word the commit installs in a record
// with an update: update's incarnation at the next version. Every install — a
// staged record's write-back, a local row's write or flip, the dead word an
// erase's removal expects — takes it from here.
func (r *remoteRec) commitWord() uint64 {
	inc, _, _ := r.update()
	return kvs.PackIncVer(inc, r.version+1)
}

// locked reports whether the transaction holds r's exclusive lock: a write
// record that was not merely declared (an escalated attempt's Start phase
// holds nothing; a record of the region holds no lock).
func (r *remoteRec) locked() bool { return r.write && !r.spec && !r.local }

// Tx is a single distributed transaction attempt context. A Tx is created
// by Executor.Exec's build callback, stages its remote read/write sets
// (Start phase), then runs Execute once. It must not be reused. Every declared
// record is one remoteRec in readSet.index: the staged remote ones in recs,
// the local ones in locals until the fallback takes them (restage).
type Tx struct {
	readSet

	startSoft uint64 // softtime read non-transactionally at Begin (strategy c)
	leaseEnd  uint64 // common desired lease end for this transaction
	txid      uint64

	// policy is the effective read policy for this attempt, resolved at
	// newTx from the runtime (see policy.go).
	policy ReadPolicy

	// escalated marks an attempt Exec runs after escalateAfter lost ones: its
	// Start phase declares remote records on the speculative arm whatever they
	// are — holding nothing, waiting out a mid-commit image — and Execute runs
	// the software fallback, whose acquisitions wait (DESIGN.md, "Progress").
	escalated bool

	locals []*remoteRec // the declared local records (remoteRec.local)

	// The post-commit host ops: the body's inserts and deletes (index
	// structures are not HTM-protected in this reproduction; see DESIGN.md) and
	// the unlinks of erased entries. Then the index rows staged erases still
	// owe (oweIndexRows), and the structural value scratch (carve).
	deferred []hostOp
	removals []hostOp
	owed     []Access
	swords   []uint64

	// awords is the value scratch of one run of the body (attemptWords): the
	// values Local.Read hands out, Local.Insert's copies. beginAttempt empties
	// it.
	awords []uint64

	// wsnap holds the pristine values of the buffers the body writes in place
	// — write-staged records' values, then local inserts' values — captured
	// before the first HTM attempt. A conflict abort retries the region with
	// locks held, but the body mutates the buffers in place — without
	// restoring, the retry (or the fallback) would read, and re-apply on top
	// of, the aborted attempt's writes while the HTM side rolled back,
	// splitting the transaction's effects. Scratch, reused across
	// transactions.
	wsnap []uint64

	// logBuf is the scratch the chopping and lock-ahead records are encoded in.
	logBuf []uint64

	finished bool
	// chopped marks a piece of a chopped parent; chopInfo is the (parent,
	// piece) pair its chopping record carries, logged before locking.
	chopped  bool
	chopInfo [2]uint64

	// specDown records a host validate could not reach, turning the
	// resulting region abort into ErrNodeDown.
	specDown bool

	// Commit-record scratch, reused across transactions on this shell: the
	// update set (updates), its encoded record, and under replication the
	// backup list and the per-partition Backups scratch it is deduplicated from.
	redoUps []nvram.RedoUpdate
	redoBuf []uint64
	redoDst []int
	redoBk  []int

	// Release-side scratch (postWave), reused across transactions on this shell:
	// the work requests of the doorbell chain and the words of their payloads.
	cops   []commitOp
	cwords []uint64

	// lcScratch is the Local handed to the transaction body, reused across
	// attempts (the body must not retain it past Execute).
	lcScratch Local

	// Per-attempt observability: phase durations in modeled nanoseconds and
	// the last abort cause, folded into Exec's cross-attempt totals.
	vLock, vHTM, vCommit int64
	lastAbort            obs.AbortCause
	usedFallback         bool
}

type refKey struct {
	table int
	key   uint64
}

func (e *Executor) newTx() *Tx {
	e.txSeq++
	soft := e.w.Node.Clock.Read()
	t := e.freeTx
	if t == nil {
		t = &Tx{
			readSet: readSet{e: e, index: make(map[refKey]*remoteRec)},
		}
	} else {
		e.freeTx = nil // recycle left the shell empty; see Executor.recycle
	}
	t.startSoft = soft
	t.policy = e.resolvePolicy()
	t.leaseEnd = soft + e.rt.C.Config().LeaseMicros
	t.txid = uint64(e.w.Node.ID)<<48 | uint64(e.w.ID)<<40 | e.txSeq
	return t
}

// SetChoppingInfo marks the transaction as piece piece of the chopped parent
// parent: the pair is logged ahead of locking (Section 4.6).
func (t *Tx) SetChoppingInfo(parent, piece uint64) {
	t.chopped, t.chopInfo = true, [2]uint64{parent, piece}
}

// R declares a read of a record: remote records are leased, read
// speculatively, or exclusively locked per the transaction's ReadPolicy and
// prefetched immediately (Start phase); local records are read inside the
// HTM region. A one-access Stage.
func (t *Tx) R(table int, key uint64) error {
	return t.Stage(Access{Table: table, Key: key})
}

// W declares a write of a record: remote records are exclusively locked and
// prefetched immediately; local records are written inside the HTM region. A
// one-access Stage.
func (t *Tx) W(table int, key uint64) error {
	return t.Stage(Access{Table: table, Key: key, Write: true})
}

// declareLocal returns the record of a row of this node's shard, declaring it
// for the HTM region on first sight.
func (t *Tx) declareLocal(table, region, part int, key uint64) *remoteRec {
	k := refKey{table, key}
	if r, ok := t.index[k]; ok {
		return r
	}
	e := t.e
	r := e.getRec()
	r.recHandle = recHandle{table: table, node: e.w.Node.ID, region: region, part: part,
		key: key, ordered: e.rt.Meta(table).Kind == Ordered}
	r.local = true
	t.index[k] = r
	t.locals = append(t.locals, r)
	return r
}

// release empties the staged set and returns the local records to the pool
// beside it.
func (t *Tx) release() {
	t.readSet.release()
	t.e.putRecs(t.locals)
	t.locals = t.locals[:0]
}

// nodeDown aborts the transaction because a node it touched is crashed or
// persistently unreachable: every held lock is released (a dead node's through
// runOnDead) and the caller sees ErrNodeDown, which Exec does not retry.
func (t *Tx) nodeDown() error {
	t.releaseLocks()
	return ErrNodeDown
}

// fail releases held locks and asks the caller to retry the transaction.
func (t *Tx) fail() error {
	t.releaseLocks()
	return ErrRetry
}

// remoteConflict is fail() for lock/lease acquisition losses: the record is
// held by a conflicting remote owner.
func (t *Tx) remoteConflict() error {
	t.e.w.Obs.Inc(obs.EvRemoteLockConflict)
	t.lastAbort = obs.CauseRemote
	return t.fail()
}

// queue appends one WRITE of data at off in r's entry to the release side's
// chain (postWave); unlock, the clean release of r's exclusive lock.
func (t *Tx) queue(r *remoteRec, off memory.Offset, data []uint64) {
	t.cops = append(t.cops, commitOp{node: r.node, region: r.region, off: off, data: data})
}

func (t *Tx) unlock(r *remoteRec) { t.queue(r, kvs.StateOffset(r.off), nil) }

// releaseLocks releases every exclusive lock held by this transaction in one
// doorbell wave (leases need no release; they expire). Part of ABORT in
// Figure 5.
func (t *Tx) releaseLocks() {
	if t.finished {
		return
	}
	t.cops = t.cops[:0]
	for _, r := range t.recs {
		if r.locked() {
			t.unlock(r)
		}
	}
	t.postWave(obs.StageRelease)
	t.release()
	t.finished = true
}

// Execute runs the transaction body: the LocalTX phase inside an HTM region
// with lease confirmation before XEND, the software fallback when HTM makes
// no progress — or at once, in an escalated attempt — and the Commit phase
// (remote write-back + unlock) after.
func (t *Tx) Execute(fn func(lc *Local) error) error {
	if t.finished {
		return ErrRetry
	}
	if len(t.owed) > 0 {
		// The last erases' index rows: their wave runs here.
		if err := t.Stage(); err != nil {
			t.releaseLocks()
			return err
		}
	}
	rt := t.e.rt
	cfg := rt.C.Config()
	model := t.e.model()

	// Durability: chopping info and the lock-ahead log are written before
	// entering the HTM region (Figure 7, left).
	if cfg.Durability {
		t.logAheadOfRegion()
	}

	sh := t.e.w.Obs
	t.snapshotWriteBufs()
	if t.escalated {
		return t.runFallback(fn)
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			t.restoreWriteBufs()
		}
		t.beginAttempt()
		lc := &t.lcScratch
		*lc = Local{t: t}
		hstart := int64(t.e.w.VClock.Now())
		t.e.charge(model.HTMBeginNS)
		err := t.e.w.Node.Engine.Run(func(htx *htm.Txn) error {
			lc.htx = htx
			if err := fn(lc); err != nil {
				return err
			}
			// Validation precedes the structural flips: the flips change incver
			// words of entries the scans recorded.
			if code, down := t.validate(htx, false); code != 0 {
				t.specDown = down
				htx.Abort(code)
			}
			t.applyLocalStructural(htx)
			t.holdLocalWrites(htx)
			t.logWAL(htx)
			return nil
		})
		lc.htx = nil // the engine recycles the context once Run returns
		if err == nil {
			t.e.charge(model.HTMCommitNS)
			sh.Inc(obs.EvHTMCommit)
			t.vHTM += int64(t.e.w.VClock.Now()) - hstart
			return t.publish()
		}

		ae, isAbort := htm.IsAbort(err)
		if !isAbort {
			// User logic error: roll back fully.
			t.vHTM += int64(t.e.w.VClock.Now()) - hstart
			t.lastAbort = obs.CauseUser
			t.releaseLocks()
			if errors.Is(err, ErrUserAbort) {
				return ErrUserAbort
			}
			return err
		}

		t.e.charge(model.HTMAbortNS)
		t.vHTM += int64(t.e.w.VClock.Now()) - hstart
		switch {
		case ae.Code == htm.AbortExplicit && causeOf(ae.User) != obs.CauseNone:
			// Validation failed — a view or a lease moved, a writer bumped a
			// version or holds an exclusive lock, a scanned range changed (or
			// the validation verbs hit a dead node). What the Start phase
			// staged is stale, so retrying the region cannot help; retry the
			// whole transaction from the Start phase.
			if ae.User == abortCodeLease {
				sh.Inc(obs.EvHTMLeaseAbort)
			}
			t.lastAbort = causeOf(ae.User)
			if t.specDown {
				return t.nodeDown()
			}
			return t.fail()
		case ae.Code == htm.AbortExplicit && ae.User == abortCodeStale:
			// A staged ordered insert/erase slot was recycled between staging
			// and the region (slot reuse race); restage from scratch.
			t.lastAbort = obs.CauseRemote
			return t.fail()
		case ae.Code == htm.AbortExplicit && ae.User == abortCodeLocked:
			// A local record is locked by a remote transaction; whole-txn
			// retry with backoff lets the remote holder finish.
			sh.Inc(obs.EvHTMLockedAbort)
			t.lastAbort = obs.CauseLocked
			return t.fail()
		case ae.Code == htm.AbortCapacity:
			sh.Inc(obs.EvHTMCapacityAbort)
			t.lastAbort = obs.CauseCapacity
			return t.runFallback(fn)
		case ae.Code == htm.AbortExplicit:
			sh.Inc(obs.EvHTMExplicitAbort)
			t.lastAbort = obs.CauseExplicit
			if attempt+1 >= rt.FallbackThreshold {
				return t.runFallback(fn)
			}
		default:
			sh.Inc(obs.EvHTMConflictAbort)
			t.lastAbort = obs.CauseConflict
			if attempt+1 >= rt.FallbackThreshold {
				return t.runFallback(fn)
			}
		}
		// Conflict abort: retry the HTM region; locks and leases persist.
	}
}

// beginAttempt drops what the previous run of the body — an aborted HTM
// attempt — left behind: its deferred inserts / deletes (the body declares
// them again), the value scratch they and its reads were carved from, and on
// every declared local record its writes (dirty; an insert stays dirty, as
// its write-back is the insert itself) and its location memo, which was only
// as good as that attempt's read set.
func (t *Tx) beginAttempt() {
	t.deferred = t.deferred[:0]
	t.awords = t.awords[:0]
	for _, r := range t.locals {
		r.dirty, r.arena = r.insert, nil
	}
}

// attemptWords returns n words of the current attempt's value scratch, valid
// until the attempt ends (the next beginAttempt, or the next transaction on
// this executor). Growing the scratch leaves earlier carvings in the array
// they were made in.
func (t *Tx) attemptWords(n int) []uint64 {
	lo := len(t.awords)
	t.awords = append(t.awords, make([]uint64, n)...)
	return t.awords[lo:len(t.awords):len(t.awords)]
}

// publish is the commit past its serialization point — XEND on the region
// path, the last check under every lock on the fallback's: the write-set goes
// to the backups (FaRM's commit-backup: it must be on every one of them before
// a lock releases or an effect becomes observable remotely), then the region's
// local rows are released and the staged records written back and unlocked,
// then the host ops run, the body's store ops first, then the unlinks.
func (t *Tx) publish() error {
	cstart := int64(t.e.w.VClock.Now())
	if err := t.replicate(); err != nil {
		return err
	}
	t.releaseLocalWrites()
	t.commitRemotes()
	t.vCommit += int64(t.e.w.VClock.Now()) - cstart
	t.e.w.Obs.Add(obs.EvRemoveDead, int64(len(t.removals)))
	t.deferred = append(t.deferred, t.removals...)
	t.e.applyHostOps(t.deferred)
	t.finished = true
	return nil
}

// holdLocalWrites closes the window between XEND and the redo append under
// replication: as the region's last writes it write-locks, for this machine,
// every local row the region wrote or flipped — each local record with an
// update(), at its arena — where the state word shares the line of the
// incarnation|version word the write already put in the write set. A row's
// new value is visible at XEND, but until the backups hold the commit record
// nobody may lock it, read it or build on it: were this machine to die first,
// Failover would drop the commit whole (FaRM's lock, commit-backup,
// commit-primary). releaseLocalWrites frees them once the append wave is
// polled; a dead coordinator's locks die with its memory, as replicas carry
// none. Without replication XEND is the commit point and nothing is held.
func (t *Tx) holdLocalWrites(htx *htm.Txn) {
	if t.e.rt.C.ReplicationFactor() == 0 {
		return
	}
	held := clock.WLocked(uint8(t.e.w.Node.ID))
	for _, r := range t.locals {
		if _, _, ok := r.update(); ok {
			htx.Write(r.arena, kvs.StateOffset(r.off), held)
		}
	}
}

// releaseLocalWrites frees what holdLocalWrites held, with plain stores to
// this machine's memory — no verb, no doorbell — each charged as one
// buffered write. The fallback holds its local rows as staged records, which
// commitRemotes releases.
func (t *Tx) releaseLocalWrites() {
	if t.e.rt.C.ReplicationFactor() == 0 {
		return
	}
	n := 0
	for _, r := range t.locals {
		if _, _, ok := r.update(); ok {
			r.arena.StoreWord(kvs.StateOffset(r.off), clock.Init)
			n++
		}
	}
	t.e.charge(t.e.model().HTMPerWriteNS * int64(n))
}

// commitRemotes writes back dirty staged records and releases exclusive
// locks (REMOTE_WRITE_BACK in Figure 5) as ONE doorbell chain of WRITEs, polled
// once: the remote write set of the region path; every locked record, this
// node's included, of the fallback. Per record with an update, in post order:
// the value, then `commitWord ‖ INIT`; a clean write lock is released. No poll
// separates them: the connection executes same-destination work requests in
// post order and flushes everything behind one that fails
// (rdma.SendQueue.Poll), so no reader can lease a half-written record — a
// release never lands past a value that did not.
func (t *Tx) commitRemotes() {
	t.cops, t.cwords = t.cops[:0], t.cwords[:0]
	for _, r := range t.recs {
		_, val, ok := r.update()
		if !ok {
			if r.write {
				t.unlock(r) // clean write lock
			}
			continue
		}
		// The version word, the state word (reset to INIT = unlock) and the value
		// are contiguous in the entry: one WRITE commits a record that fits a
		// cache line; else the value goes first and `incver ‖ INIT` behind it.
		off := kvs.IncVerOffset(r.off)
		if memory.LineOf(off) != memory.LineOf(off+memory.Offset(1+len(val))) {
			t.queue(r, kvs.ValueOffset(r.off), val)
			val = nil
		}
		t.queue(r, off, t.payload(r.commitWord(), clock.Init, val))
	}
	t.postWave(obs.StagePublish)
	// t.recs stays populated: Execute marks the transaction finished
	// right after, and Exec's recycle harvests the records into the pool.
}

// commitOp is one WRITE of the release side.
type commitOp struct {
	node, region int
	off          memory.Offset
	data         []uint64 // payload; nil for the clean release of a write lock
}

// unlocked is the payload of a clean release: the free state word.
var unlocked = []uint64{clock.Init}

// payload builds the WRITE payload w0, w1, rest... in the transaction's
// commit scratch. Growing the scratch leaves earlier payloads in the array
// they were built in.
func (t *Tx) payload(w0, w1 uint64, rest []uint64) []uint64 {
	lo := len(t.cwords)
	t.cwords = append(append(t.cwords, w0, w1), rest...)
	return t.cwords[lo:len(t.cwords):len(t.cwords)]
}

// postWave is the release side's one post: it rings t.cops — a commit's chain,
// or the clean releases of an abort, a restage or a withdrawn record — as one
// doorbell wave of WRITEs and polls it once. A clean release stores the free
// word where the commit's stores `incver ‖ INIT`: a WRITE that completes was
// issued by a machine the fabric counts alive, and a zombie's fails at the
// source. That no lock was freed behind its back assumes no zombie transaction
// outlives a repair: the owner sweep frees a machine's locks while it is down,
// and one still running after Recover and Revive would post over rows the
// sweep freed. None of these verbs may be lost, so what failed, and what the
// connection flushed behind it, is re-driven in post order through the must*
// helpers — where the owner guard is (mustUnlock), exactly where a lock can
// have changed hands.
//
// The wave is left in flight (rdma.SendQueue.PollDetached): nothing the
// worker or its client does next depends on when the WRITEs land — the
// records stay locked until they do, and the connection runs its later verbs
// after them. Under replication the next redo record tells the backups once
// they have landed (appendRedo's home bit). Only a durable worker without
// backups awaits the wave: its next log restart (reclaimLogs) would drop the
// write-ahead record — the commit record there — while a write-back it names
// is still in flight.
func (t *Tx) postWave(stage obs.Stage) {
	if len(t.cops) == 0 {
		return
	}
	sq := t.e.sendq(stage)
	for _, op := range t.cops {
		data := op.data
		if data == nil {
			data = unlocked
		}
		sq.PostWrite(op.node, op.region, op.off, data)
	}
	var wrs []*rdma.WR
	if t.e.rt.C.Config().Durability && t.e.rt.C.ReplicationFactor() == 0 {
		wrs = sq.Poll()
	} else {
		wrs = sq.PollDetached()
	}
	for i, wr := range wrs {
		switch op := &t.cops[i]; {
		case wr.Err == nil:
		case op.data != nil:
			t.e.mustWrite(op.node, op.region, op.off, op.data)
		default:
			t.e.mustUnlock(op.node, op.region, op.off)
		}
	}
}

// snapshotWriteBufs saves the pristine value of every buffer the body writes
// in place — write-staged records', then local inserts' — before the first
// HTM attempt, so a region retry can roll the transaction-private buffers back
// alongside the HTM write set (see Tx.wsnap).
func (t *Tx) snapshotWriteBufs() {
	t.wsnap = t.wsnap[:0]
	for _, r := range t.recs {
		if r.write {
			t.wsnap = append(t.wsnap, r.buf...)
		}
	}
	for _, r := range t.locals {
		if r.insert {
			t.wsnap = append(t.wsnap, r.buf...)
		}
	}
}

// restoreWriteBufs undoes the aborted attempt's buffered writes. A staged
// insert stays dirty: its write-back is the insert itself, not a body write
// the retry will redo.
func (t *Tx) restoreWriteBufs() {
	i := 0
	for _, r := range t.recs {
		if r.write {
			i += copy(r.buf, t.wsnap[i:])
			r.dirty = r.insert
		}
	}
	for _, r := range t.locals {
		if r.insert {
			i += copy(r.buf, t.wsnap[i:])
		}
	}
}
