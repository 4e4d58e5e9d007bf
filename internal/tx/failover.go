package tx

import (
	"time"

	"drtm/internal/nvram"
	"drtm/internal/obs"
)

// FailoverReport summarizes one hot-failover promotion.
type FailoverReport struct {
	// Promoted is true when THIS call performed the view handover. A second
	// (racing or repeated) Failover for the same crash reports false and
	// does nothing — promotion is idempotent.
	Promoted bool
	// NewOwner is the backup now owning the crashed node's partition.
	NewOwner int
	// View is the partition's packed view word after promotion.
	View uint64
	// RedoRecords is the number of redo records replayed from log tails.
	RedoRecords int
	// Unlocked is the number of exclusive locks the crashed machine held
	// that the promotion released.
	Unlocked int
}

// Failover promotes a live backup to own a crashed primary's partition —
// the hot path that replaces full NVRAM replay when replication is on.
//
// Ordering is the crux. TryPromote CASes the membership's view word FIRST:
// from that instant the backup's log sinks fence any append stamped with the
// old epoch, so the redo tails drained below are complete — no zombie append
// can slip in behind the drain. Then:
//
//  1. every redo log hosted on the new owner is drained, replaying the
//     tail for the adopted partition and — because records carry the FULL
//     write-set — re-applying surviving transactions' updates to foreign
//     partitions' live owners, keeping cross-partition commits atomic. Only
//     now does PublishView route transactions to the replica: one that ran
//     there while a tail still held a newer version of a row it wrote would
//     leave the replay skipping that row (the version guard) and applying
//     the rest of the logged commit;
//  2. the crashed node's own redo logs on every other host — the crashed
//     host's durable rings included — are drained too: a transaction the
//     crashed machine committed (XEND ran, append landed) but never wrote
//     back must still commit everywhere;
//  3. every exclusive lock the crashed machine still holds is released
//     (freeLocksOf, owner-guarded, so survivors' fresh locks are never
//     clobbered), committed transactions' included, since the redo replay
//     does not touch state words — after the replay, so a survivor locking
//     a freed record sees the replayed value. No log is read, and none is
//     truncated; nothing is parked for the node (defer_) to discard.
//
// The crashed node is NOT revived; its clients fail over at the workload
// level and in-flight transactions that staged against the old view abort
// on the in-region view confirmation and restage. Serialized with Recover
// under recMu.
func (rt *Runtime) Failover(crashed int) FailoverReport {
	rt.recMu.Lock()
	defer rt.recMu.Unlock()
	start := time.Now()
	c := rt.C
	cfg := c.Config()
	var rep FailoverReport

	newOwner := -1
	for _, b := range c.Backups(nil, crashed) {
		if !c.Fabric.NodeDown(b) {
			newOwner = b
			break
		}
	}
	if newOwner < 0 {
		return rep // every backup is down too: the partition is lost
	}
	rep.NewOwner = newOwner

	nv, ok := c.TryPromote(crashed, newOwner)
	rep.View = nv
	if !ok {
		return rep // already promoted (concurrent or repeated call): no-op
	}
	rep.Promoted = true

	replay := func(rec []uint64) {
		it, ok := nvram.IterRedo(rec)
		if !ok {
			return
		}
		for u, more := it.Next(); more; u, more = it.Next() {
			rt.applyRedoUpdate(u)
		}
	}
	for s := 0; s < c.Nodes(); s++ {
		for w := 0; w < cfg.WorkersPerNode; w++ {
			rep.RedoRecords += c.RedoSinkAt(newOwner, s, w).Drain(replay)
		}
	}
	c.PublishView(crashed, nv)

	// The adopted partition is servable from here: its replica shard is
	// current (every committed update for it lived in a log hosted on its
	// backups, drained above) and replica records carry no stale locks —
	// locking happened on the dead primary's copies. Everything below is
	// repair of the crashed machine's COORDINATOR role, running while the
	// partition already serves, so this point ends the unavailability
	// window that EvPromoteNanos reports.
	unavailNS := time.Since(start).Nanoseconds()

	// Crashed-sender logs on every other host, the crashed host included:
	// its rings are durable NVRAM like the WAL, and for a transaction that
	// wrote only foreign partitions the crashed machine's own hosted ring
	// can hold the sole surviving copy of an acked commit.
	for h := 0; h < c.Nodes(); h++ {
		if h == newOwner {
			continue
		}
		for w := 0; w < cfg.WorkersPerNode; w++ {
			rep.RedoRecords += c.RedoSinkAt(h, crashed, w).Drain(replay)
		}
	}

	rep.Unlocked = rt.freeLocksOf(crashed)

	ns := time.Since(start).Nanoseconds()
	sh := c.Obs.Shard(0)
	sh.Inc(obs.EvFailover)
	sh.Add(obs.EvPromoteNanos, unavailNS)
	sh.Add(obs.EvRedoTailLen, int64(rep.RedoRecords))
	sh.Observe(obs.PhaseFailover, ns)
	if sh.TraceEnabled() {
		sh.Trace(obs.TraceEvent{
			Kind: obs.TraceFailover, TxID: nv,
			Node: int32(crashed), Worker: int32(newOwner),
			Attempts: int32(rep.RedoRecords), TotalNS: ns,
		})
	}
	return rep
}
