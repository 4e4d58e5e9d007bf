package tx

import (
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// RecoveryReport summarizes one node's recovery.
type RecoveryReport struct {
	// RedoneTxns is the number of committed transactions whose updates were
	// (re)applied from the write-ahead log (Figure 7(b)).
	RedoneTxns int
	// RedoneRecords is the number of record updates applied.
	RedoneRecords int
	// SkippedRecords is the number of logged updates already present
	// (version on the record >= logged version).
	SkippedRecords int
	// Unlocked is the number of exclusive locks released via the
	// lock-ahead log for uncommitted transactions (Figure 7(a)).
	Unlocked int
	// PendingPieces returns the chopping-log records of transactions that
	// never committed: the chopping layer resumes these pieces.
	PendingPieces [][]uint64
}

// Recover performs crash recovery for a crashed node (Section 4.6): it
// scans the node's NVRAM logs and
//
//   - redoes updates of committed transactions (write-ahead log present ⇒
//     XEND executed ⇒ the transaction must eventually commit everywhere),
//     applying each record update only if its logged version is newer;
//
//   - releases exclusive locks still held by the crashed machine for
//     transactions with no write-ahead record, using the lock-ahead log and
//     the owner-ID bits of the state word.
//
// Recover is driven by a surviving node (or the rebooted machine itself);
// the flush-on-failure model guarantees the logs are intact. It is
// idempotent — logs are truncated after replay, so a second invocation
// (e.g. two coordinators racing across incarnations) finds nothing to do —
// and safe under live traffic: redo is version-guarded and unlock is
// owner-guarded, so survivors' in-flight transactions are never clobbered,
// and no lock is released before every log has been replayed, so no survivor
// gets at a record ahead of an update recovery still owes it.
//
// A replicated cluster writes no write-ahead record, so Recover would take
// its committed transactions for uncommitted ones and free their locks
// without their write-backs: it panics there. Failover repairs it.
func (rt *Runtime) Recover(crashed int) RecoveryReport {
	if rt.C.ReplicationFactor() > 0 {
		panic("tx: Recover on a replicated cluster, which keeps no write-ahead log; repair it with Failover")
	}
	rt.recMu.Lock()
	defer rt.recMu.Unlock()
	start := time.Now()
	var rep RecoveryReport
	sawEntries := false
	var wks []*cluster.Worker // the crashed node's workers that keep logs
	for w := 0; w < rt.C.Config().WorkersPerNode; w++ {
		if wk := rt.C.Worker(crashed, w); wk.WriteAheadLog != nil {
			wks = append(wks, wk)
		}
	}

	// Redo first, every worker's whole log, and unlock nothing meanwhile. A
	// worker restarts its logs at transaction boundaries (reclaimLogs), so a
	// log usually holds the one transaction in flight — but while release-side
	// work is parked it keeps every commit since, and a record's location can
	// appear in it many times, the in-doubt update last. While that update is
	// pending the crashed machine's lock is what keeps survivors off the
	// record: releasing it at an older entry for the same location — this
	// worker's or another's — lets a survivor lock and rewrite the record
	// before the replay reaches the entry that matters, which the version
	// guard then skips, and an acked commit is lost.
	committed := make(map[uint64]bool)
	held := make(map[lockRef]struct{}) // the redone records' locations
	var buf []uint64                   // every scan's record buffer
	for _, wk := range wks {
		sawEntries = sawEntries || wk.WriteAheadLog.BytesUsed() > 0 ||
			wk.LockAheadLog.BytesUsed() > 0 || wk.ChoppingLog.BytesUsed() > 0
		_, buf = wk.WriteAheadLog.Scan(buf, func(rec []uint64) {
			wk.Obs.Inc(obs.EvRecoveryScan)
			txid, recs, ok := parseWAL(rec)
			if !ok {
				return
			}
			committed[txid] = true
			redone := rep.RedoneRecords
			for _, u := range recs {
				if rt.redo(u) {
					rep.RedoneRecords++
					wk.Obs.Inc(obs.EvRecoveryRedo)
				} else {
					rep.SkippedRecords++
				}
				held[lockRef{node: u.node, table: u.table, off: u.off}] = struct{}{}
			}
			if rep.RedoneRecords > redone {
				rep.RedoneTxns++
			}
		})
	}

	// Now the locks: the redone records', then the uncommitted transactions'.
	for l := range held {
		rt.unlockIfOwned(crashed, l)
	}
	for _, wk := range wks {
		_, buf = wk.LockAheadLog.Scan(buf, func(rec []uint64) {
			txid, locks, ok := parseLockAhead(rec)
			if !ok || committed[txid] {
				return
			}
			for _, l := range locks {
				if rt.unlockIfOwned(crashed, l) {
					rep.Unlocked++
					wk.Obs.Inc(obs.EvRecoveryUnlock)
				}
			}
		})

		_, buf = wk.ChoppingLog.Scan(buf, func(rec []uint64) {
			if len(rec) >= 1 && !committed[rec[0]] {
				rep.PendingPieces = append(rep.PendingPieces, append([]uint64(nil), rec[1:]...)) // rec is the scan buffer
			}
		})

		wk.WriteAheadLog.Truncate()
		wk.LockAheadLog.Truncate()
		wk.ChoppingLog.Truncate()
	}

	// Complete what survivors could not: release-side writes and store ops
	// that were parked while the node was unreachable (fault.go).
	if rt.FlushPending(crashed) > 0 {
		sawEntries = true
	}

	sh := rt.C.Obs.Shard(0)
	if sawEntries {
		sh.Inc(obs.EvRecoveryRun)
	}
	sh.Add(obs.EvRecoveryNanos, time.Since(start).Nanoseconds())
	return rep
}

// redo applies one logged update if it is newer than the record's current
// version. Returns whether the value was written. The lock the crashed machine
// may still hold on the record is Recover's to release, once every log is
// replayed.
//
// Ordered rows (inc != 0 in the log) carry the committed incarnation: the
// update applies iff the packed inc<<32|version word exceeds the entry's
// current incver word, and the whole word — liveness included — is restored.
// An erase logs no value words, so redoing it flips the row dead without
// touching the payload.
func (rt *Runtime) redo(u walRec) bool {
	arena := rt.arenaOf(u.node, u.table)
	cur := arena.LoadWord(kvs.IncVerOffset(u.off))
	head := kvs.PackIncVer(u.inc, u.version)
	if u.inc == 0 {
		head = kvs.PackIncVer(kvs.Incarnation(cur), u.version)
	}
	if cur >= head {
		return false
	}
	arena.Write(kvs.ValueOffset(u.off), u.val)
	arena.StoreWord(kvs.IncVerOffset(u.off), head)
	return true
}

// unlockIfOwned clears the record's exclusive lock when held by the crashed
// machine (identified via the state word's owner bits, Figure 4).
func (rt *Runtime) unlockIfOwned(crashed int, l lockRef) bool {
	arena := rt.arenaOf(l.node, l.table)
	stateOff := kvs.StateOffset(l.off)
	s := arena.LoadWord(stateOff)
	if clock.IsWriteLocked(s) && int(clock.Owner(s)) == crashed {
		if _, ok := arena.CAS(stateOff, s, clock.Init); ok {
			return true
		}
	}
	return false
}

// arenaOf resolves a storage region's arena on node: an ordered shard
// (primary or replica) if one is registered under the region ID, else the
// unordered region (plain table or replica region installed by replication).
func (rt *Runtime) arenaOf(node, region int) *memory.Arena {
	n := rt.C.Node(node)
	if o, ok := n.OrderedRegion(region); ok {
		return o.Arena()
	}
	return n.Unordered(region).Arena()
}
