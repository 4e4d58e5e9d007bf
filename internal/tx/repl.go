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
// remotely observable. The region's local writes are held under this
// machine's lock until then (Tx.holdLocalWrites). The record is the commit
// record: under replication no write-ahead record is written (logWAL), and
// the backups truncate a ring as the sender's next record arrives
// (cluster.RedoSink.RemoteAppend), not on a message of their own.
//
// Every update carries the view epoch the transaction observed at declare
// time. The backup's sink fences stale epochs (rdma.ErrFenced), so a zombie
// ex-primary cannot smuggle a pre-failover write-set into a post-failover
// log. Updates to partitions that are themselves running promoted (owner !=
// home) are not re-replicated — a promoted partition is single-copy until
// the crashed home returns (documented limitation, DESIGN.md).

// replicate ships the write-set — every record, local then staged, the commit
// writes, inserts or erases (remoteRec.update) — to the backups. Called
// between the serialization point and commitRemotes; an error means the
// transaction must not publish (only possible when this machine itself died
// mid-commit) and has released its locks.
func (t *Tx) replicate() error {
	rt := t.e.rt
	if rt.C.ReplicationFactor() == 0 {
		return nil
	}
	ups := t.redoUps[:0]
	for _, recs := range [2][]*remoteRec{t.locals, t.recs} {
		for _, r := range recs {
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
//
// The record carries the home bit — this worker's earlier records are home,
// so a backup may apply and truncate them as this one lands — when the worker
// is no zombie (a zombie dropped its write-backs) and its QP is idle: a live
// worker posted the write-back of every earlier commit, or applied it to a dead
// primary's memory itself (defer_), before it returned, and the connection
// completes in post order, so once nothing is in flight every one has landed.
// Without the bit the backup keeps the earlier records one more append; this
// append's wave is awaited and pays what is in flight, so the next record
// normally carries it.
// A one-way Send can leave work in flight past that wait, so once the words
// appended to a backup since its last home record there would pass
// cluster.CheckpointWords, the append first waits out what is in flight
// (rdma.QP.Settle) and sets the bit: a ring stays under twice that. An update
// written back into a dead primary needs no ring kept whole, as it went to
// every backup of its partition, whose drain applies it to that replica and
// whose promotion replays the rest (TestRingDrainsPastDeadWriteBack). A
// backup's drain drops only the updates of partitions it does not back up.
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
	words := 1 + len(rec) // the ring's footprint of the record
	if e.redoSince == nil {
		e.redoSince = make([]int, c.Nodes())
	}
	home := !e.zombie()
	if home && !e.w.QP.Idle() {
		since := 0
		for _, b := range dsts {
			since = max(since, e.redoSince[b])
		}
		if home = since+words > cluster.CheckpointWords; home {
			e.w.QP.Settle()
		}
	}
	if home {
		nvram.MarkRedoHome(rec)
	}
	region := cluster.RedoLogRegion(self, e.w.ID)
	sq := e.sendq(obs.StageReplicate)
	for _, b := range dsts {
		sq.PostLogAppend(b, region, rec)
	}

	landed := 0
	dying := false
	retargeted := false
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
			if home {
				e.redoSince[b] = 0
			} else {
				e.redoSince[b] += words
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
	if dying && landed == 0 {
		// This machine crashed mid-commit and no append made it out: drop
		// the transaction whole. Its write-backs are dropped by the zombie
		// guards, its locks freed by failover's sweep (freeLocksOf), and its
		// local effects die with the machine's volatile state.
		return ErrNodeDown
	}
	// If the machine is dying but at least one append landed, the
	// transaction commits: failover's crashed-sender drain replays the full
	// write-set from any surviving log, so acking it here is safe — the
	// FaRM rule that one reachable log tail is enough to finish a commit.
	return nil
}

// applyBackedUp applies one redo record a ring on host drains to host's
// replica shards — FaRM's "backups consume their logs with their own CPUs",
// keeping promotion's replay tail short. The sink calls it under its lock, as
// it appends the sender's next record (cluster.RedoSink.RemoteAppend). Updates
// for partitions host does not back up (full write-set records) and for
// promoted partitions are skipped; their copies are maintained elsewhere.
func (rt *Runtime) applyBackedUp(host int, rec []uint64) {
	it, ok := nvram.IterRedo(rec)
	if !ok {
		return
	}
	n := rt.C.Node(host)
	for u, more := it.Next(); more; u, more = it.Next() {
		if !rt.C.IsBackup(host, u.Part) || rt.C.OwnerOf(u.Part) != u.Part {
			continue
		}
		rt.applyRedo(n, cluster.CopyRegion(u.Part, u.Table, host), u)
	}
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
	return rt.applyRedo(rt.C.Node(owner), cluster.CopyRegion(u.Part, u.Table, owner), u)
}

// applyRedo applies one redo update to the copy of its table in a storage
// region of node n: value and version are written iff the logged version is
// newer. The whole check-then-write runs under the partition's redo lock: rings
// drain concurrently (two rings on one backup can hold successive versions of the
// same key when different sender workers committed them, and Failover's
// crashed-sender replay can race an append-time drain), so without the lock an
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
