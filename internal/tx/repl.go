package tx

import (
	"errors"

	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// FaRM-style commit-backup, transaction side. After the serialization point
// (XEND on the HTM path; the post-lease-confirm point on the fallback path,
// with every lock still held), the transaction's whole write-set is encoded
// as one redo record and appended to a redo log on every backup of every
// touched partition — one-sided log-append WRITEs pushed through the async
// verb engine as a single doorbell wave per destination set, acked by
// polling the wave, before any lock releases or any in-place update becomes
// remotely observable.
//
// Every update carries the view epoch the transaction observed at declare
// time. The backup's sink fences stale epochs (rdma.ErrFenced), so a zombie
// ex-primary cannot smuggle a pre-failover write-set into a post-failover
// log. Updates to partitions that are themselves running promoted (owner !=
// home) are not re-replicated — a promoted partition is single-copy until
// the crashed home returns (documented limitation, DESIGN.md).

// replicate ships the write-set (the region's local WAL captures + every
// staged record the commit writes) to the backups. Called between the
// serialization point and commitRemotes; an error means the transaction must
// not publish (only possible when this machine itself died mid-commit) and
// has released its locks.
func (t *Tx) replicate() error {
	rt := t.e.rt
	if rt.C.ReplicationFactor() == 0 {
		return nil
	}
	t.redoDst = t.redoDst[:0]
	ups := t.redoUps[:0]
	for i := range t.walLocal {
		u := &t.walLocal[i]
		if w, ok := t.replView(u.part); ok {
			ups = append(ups, nvram.RedoUpdate{
				Part: u.part, Epoch: cluster.ViewEpoch(w), Table: u.ltable,
				Key: u.key, Version: u.version, Inc: u.inc, Val: u.val,
			})
		}
	}
	for _, r := range t.remotes {
		inc, val, ok := r.update()
		if !ok {
			continue
		}
		if w, ok := t.replView(r.part); ok {
			ups = append(ups, nvram.RedoUpdate{
				Part: r.part, Epoch: cluster.ViewEpoch(w), Table: r.table,
				Key: r.key, Version: r.version + 1, Inc: inc, Val: val,
			})
		}
	}
	t.redoUps = ups
	if len(ups) == 0 {
		return nil
	}
	rt.stampRedoGens(ups)
	if err := t.appendRedo(ups); err != nil {
		return t.nodeDown()
	}
	return nil
}

// stampRedoGens stamps every update with its key's current delete generation,
// under the lock its partition's generation bumps take — one shard at a time,
// never two held together. Runs after the serialization point; remote records'
// exclusive locks are still held, so no delete of them can race in. (A deferred
// delete of a LOCAL record can slip into the tiny XEND→stamp window — the residual
// of modeling deletes as shipped ops, not transactional writes; see applyRedo.)
func (rt *Runtime) stampRedoGens(ups []nvram.RedoUpdate) {
	for i := 0; i < len(ups); {
		sh := &rt.redoShards[ups[i].Part]
		sh.mu.Lock()
		for p := ups[i].Part; i < len(ups) && ups[i].Part == p; i++ {
			ups[i].Gen = sh.delGen[delKey{ups[i].Table, ups[i].Key}]
		}
		sh.mu.Unlock()
	}
}

// replView returns the view word an update of part should be stamped with
// (the one observed at declare) and whether the update replicates at all:
// replicated tables (part < 0) and promoted partitions (single-copy until
// their home returns) do not.
func (t *Tx) replView(part int) (uint64, bool) {
	if part < 0 {
		return 0, false
	}
	w, ok := t.views[part]
	if !ok {
		w = t.e.rt.C.View(part)
	}
	if cluster.ViewOwner(w) != part {
		return 0, false
	}
	return w, true
}

// appendRedo encodes ups once and appends the record to every backup of
// every touched partition: one posted log-append WR per destination, one
// poll for the wave. Returns ErrNodeDown only when this machine itself is
// the crashed one — the transaction then drops whole (its write-backs are
// dropped by the zombie guards too, and any append that did land is replayed
// by failover, which re-commits it everywhere).
func (t *Tx) appendRedo(ups []nvram.RedoUpdate) error {
	e := t.e
	rt := e.rt
	c := rt.C
	self := e.w.Node.ID

	dsts := t.redoDst[:0]
	for i := range ups {
		if i > 0 && ups[i].Part == ups[i-1].Part {
			continue // same partition, same backups
		}
		t.redoBk = c.Backups(t.redoBk[:0], ups[i].Part)
		for _, b := range t.redoBk {
			seen := false
			for _, d := range dsts {
				if d == b {
					seen = true
					break
				}
			}
			if !seen {
				dsts = append(dsts, b)
			}
		}
	}
	t.redoDst = dsts

	rec := nvram.EncodeRedo(t.redoBuf, t.txid, ups)
	t.redoBuf = rec
	region := cluster.RedoLogRegion(self, e.w.ID)
	sq := e.sendq(obs.StageReplicate)
	for _, b := range dsts {
		sq.PostLogAppend(b, region, rec)
	}

	landed := 0
	dying := false
	retargeted := false
	full := dsts[:0] // the backups whose ring this append filled past the threshold
	for i, wr := range sq.Poll() {
		b := dsts[i]
		err := wr.Err
		if errors.Is(err, rdma.ErrTimeout) || errors.Is(err, rdma.ErrFlushed) {
			// Lost, or never attempted behind one that was: append again.
			err = e.verbRetry(func() error {
				return e.w.QP.TryLogAppend(b, region, rec)
			})
		}
		switch {
		case err == nil:
			landed++
			if c.RedoSinkAt(b, self, e.w.ID).BytesUsed() >= cluster.CheckpointWords*8 {
				full = append(full, b) // checkpointRedo's, once the write-backs are home
			}
		case errors.Is(err, rdma.ErrFenced):
			// A promotion raced into the XEND→append window: the record
			// carries a now-stale epoch. The transaction is already past its
			// serialization point, so retarget instead of aborting — apply
			// the updates directly to the partitions' current owners
			// (version-guarded, so double-apply against another surviving
			// log's replay is harmless).
			if !retargeted {
				for j := range ups {
					rt.applyRedoUpdate(ups[j])
				}
				retargeted = true
			}
		case errors.Is(err, rdma.ErrNodeUnreachable) && e.zombie():
			dying = true
		default:
			// The backup is down (or persistently timing out): degraded
			// replication. The partition keeps running on its remaining
			// copies; re-replication on membership change is future work.
		}
	}
	t.redoDst = full
	if dying && landed == 0 {
		// This machine crashed mid-commit and no append made it out: drop
		// the transaction whole. Its write-backs are dropped by the zombie
		// guards, its locks freed by failover's lock-ahead pass, and its
		// local effects die with the machine's volatile state.
		return ErrNodeDown
	}
	// If the machine is dying but at least one append landed, the
	// transaction commits: failover's crashed-sender drain replays the full
	// write-set from any surviving log, so acking it here is safe — the
	// FaRM rule that one reachable log tail is enough to finish a commit.
	return nil
}

// checkpointRedo asks every backup whose ring this commit's append filled past
// the checkpoint threshold to apply and truncate it. Best-effort: a dead
// backup's ring is either drained by failover or lost with the backup. It runs
// behind commitRemotes, never from appendRedo: a backup's drain applies only
// the partitions it backs up and drops the rest of each full write-set record,
// so a ring may be truncated only when every transaction in it — this one
// included — has written its other partitions' updates home (or parked them
// for a dead node, whose backup's ring this rule keeps whole). Checkpointed
// between the append and the write-back, a coordinator that died there left
// one half of its commit on a replica and the other half nowhere a promotion
// reads (TestLogLifetimeCrashPoints' ring-at-threshold arms).
func (t *Tx) checkpointRedo() {
	e := t.e
	for _, b := range t.redoDst {
		e.ckptMsg = redoCkptMsg{Sender: e.w.Node.ID, Worker: e.w.ID}
		_, _ = e.call(b, msgRedoCheckpoint, &e.ckptMsg, 1, 16, 8)
	}
	t.redoDst = t.redoDst[:0]
}

// drainCheckpoint runs on backup n: apply the (sender, worker) redo log to
// n's replica shards and truncate it — FaRM's "backups consume their logs
// with their own CPUs", keeping promotion's replay tail short. Updates for
// partitions n does not back up (full write-set records) and for promoted
// partitions are skipped; their copies are maintained elsewhere.
func (rt *Runtime) drainCheckpoint(n *cluster.Node, sender, worker int) {
	if rt.C.ReplicationFactor() == 0 {
		return
	}
	rt.C.RedoSinkAt(n.ID, sender, worker).Drain(func(rec []uint64) {
		it, ok := nvram.IterRedo(rec)
		if !ok {
			return
		}
		for u, more := it.Next(); more; u, more = it.Next() {
			if !rt.C.IsBackup(n.ID, u.Part) || rt.C.OwnerOf(u.Part) != u.Part {
				continue
			}
			rt.applyRedo(n, cluster.ReplicaRegion(u.Part, u.Table), u)
		}
	})
}

// applyRedoUpdate applies one redo update to the copy currently serving its
// partition (the home primary, or the promoted backup's replica region after
// failover). Version-guarded and therefore idempotent; returns whether the
// value was written. Skipped when the current owner is itself down.
func (rt *Runtime) applyRedoUpdate(u nvram.RedoUpdate) bool {
	// The membership's owner, not the routing mirror's: during a promotion
	// the replica being brought up to date is not yet routed to.
	owner := cluster.ViewOwner(rt.C.MembershipView(u.Part))
	if rt.C.Fabric.NodeDown(owner) {
		return false
	}
	region := u.Table
	if owner != u.Part {
		region = cluster.ReplicaRegion(u.Part, u.Table)
	}
	return rt.applyRedo(rt.C.Node(owner), region, u)
}

// applyRedo applies one redo update to the copy of its table in a storage
// region of node n: value and version are written iff the logged version is
// newer. The whole check-then-write runs under the partition's redo lock: rings
// drain concurrently (two rings on one backup can hold successive versions of the
// same key when different sender workers committed them, and Failover's
// crashed-sender replay can race a checkpoint drain), so without the lock an
// interleaved pair of drains could publish the older value under the newer
// version word — a lost update that the version guard would then freeze in
// place forever.
//
// A missing key is never re-inserted. Replica shards mirror the primary's
// membership — seeded at load, inserts and deletes shipped synchronously to
// every copy (execStoreOp) — so a miss means the key was deleted after this
// record was logged, and re-inserting would resurrect it. The
// delete-generation guard catches the delete-then-reinsert variant of the
// same staleness, where the key exists again but this record's value
// predates the delete (the reinserted entry restarts at version 0, so the
// version guard alone cannot tell).
//
// An ordered copy adopts the logged incarnation's PARITY, not its counter —
// each copy's incarnation counter advances independently (a replica's dead
// slot may have cycled a different number of times), so only liveness is
// meaningful across copies — and an erase flip (even Inc) carries no value.
func (rt *Runtime) applyRedo(n *cluster.Node, region int, u nvram.RedoUpdate) bool {
	sh := &rt.redoShards[u.Part]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if u.Gen < sh.delGen[delKey{u.Table, u.Key}] {
		return false // logged before a delete of the key: stale
	}
	var (
		arena *memory.Arena
		off   memory.Offset
		found bool
	)
	ordered := rt.Meta(u.Table).Kind == Ordered
	if ordered {
		o, ok := n.OrderedRegion(region)
		if !ok {
			return false
		}
		off, found = o.Lookup(u.Key)
		arena = o.Arena()
	} else {
		host := n.Unordered(region)
		off, found = host.LookupLocal(u.Key)
		arena = host.Arena()
	}
	if !found {
		return false // deleted since the append; never resurrect
	}
	cur := arena.LoadWord(kvs.IncVerOffset(off))
	if kvs.Version(cur) >= u.Version {
		return false
	}
	inc := kvs.Incarnation(cur)
	if ordered && kvs.Live(u.Inc) != kvs.Live(inc) {
		inc++
	}
	if len(u.Val) > 0 {
		arena.Write(kvs.ValueOffset(off), u.Val)
	}
	arena.StoreWord(kvs.IncVerOffset(off), kvs.PackIncVer(inc, u.Version))
	return true
}
