package tx

import (
	"errors"
	"fmt"
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
	// Unlocked is the number of exclusive locks the crashed machine held
	// that recovery released, committed transactions' included.
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
//   - then, while the node is down, releases every exclusive lock the
//     crashed machine still holds (freeLocksOf): a state word's owner bits
//     name its holder; hands back its uncommitted chopped pieces; and
//     truncates its logs. Once the node is revived its locks and its logs
//     are its live transactions', and a later Recover leaves them.
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
// A replicated cluster writes no write-ahead record, so Recover would free
// its committed transactions' locks without their write-backs: it panics
// there. Failover repairs it.
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
	var buf []uint64 // every scan's record buffer
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
			}
			if rep.RedoneRecords > redone {
				rep.RedoneTxns++
			}
		})
	}

	// Now the locks and the logs, while the machine is down: once revived, the
	// locks it holds and its logs are its live transactions'.
	if rt.C.Fabric.NodeDown(crashed) {
		rep.Unlocked = rt.freeLocksOf(crashed)
		for _, wk := range wks {
			_, buf = wk.ChoppingLog.Scan(buf, func(rec []uint64) {
				if len(rec) >= 1 && !committed[rec[0]] {
					rep.PendingPieces = append(rep.PendingPieces, append([]uint64(nil), rec[1:]...)) // rec is the scan buffer
				}
			})

			wk.WriteAheadLog.Truncate()
			wk.LockAheadLog.Truncate()
			wk.ChoppingLog.Truncate()
		}
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
// may still hold on the record is freeLocksOf's to release, once every log is
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

// freeLocksOf frees every exclusive lock the crashed machine holds, on every
// node: a state word names its holder (Figure 4), so a walk over every entry
// slot finds each lock whenever it was taken — in the Start phase, as a slot
// born held, under the fallback — and the CAS from the word read leaves a
// survivor's lock or a lock that changed hands alone. Returns the locks freed.
func (rt *Runtime) freeLocksOf(crashed int) int {
	n := 0
	for node := 0; node < rt.C.Nodes(); node++ {
		rt.C.Node(node).EachEntry(func(_ int, a *memory.Arena, off memory.Offset) {
			so := kvs.StateOffset(off)
			if s := a.LoadWord(so); clock.IsWriteLocked(s) && int(clock.Owner(s)) == crashed {
				if _, ok := a.CAS(so, s, clock.Init); ok {
					n++
				}
			}
		})
	}
	rt.C.Obs.Shard(0).Add(obs.EvRecoveryUnlock, int64(n))
	return n
}

// AuditQuiescent checks what a runtime owes nobody once its workers have
// stopped: on every live machine no state word is write-locked — a lock
// leaked by a commit, an abort or a repair — and no release-side step is
// parked for it (PendingOps). A freed ordered slot, which no index entry points
// at, is skipped: removeDeadEntry leaves it write-locked on purpose. The error
// names each leaked lock by node, region (table, key, a replica's partition),
// offset and word, the first few.
func (rt *Runtime) AuditQuiescent() error {
	const shown = 8
	var errs []error
	locked := 0
	for node := 0; node < rt.C.Nodes(); node++ {
		n := rt.C.Node(node)
		if !n.Alive() {
			continue
		}
		n.EachEntry(func(region int, a *memory.Arena, off memory.Offset) {
			so := kvs.StateOffset(off)
			s := a.LoadWord(so)
			if !clock.IsWriteLocked(s) {
				return
			}
			key := a.LoadWord(off + kvs.EntryKeyWord)
			if o, ok := n.OrderedRegion(region); ok {
				if at, found := o.Lookup(key); !found || at != off {
					return
				}
			}
			if locked++; locked <= shown {
				part, table := cluster.RegionTable(region)
				row := fmt.Sprintf("table %d key %d", table, key)
				if part >= 0 {
					row = fmt.Sprintf("partition %d's replica of %s", part, row)
				}
				errs = append(errs, fmt.Errorf("node %d region %d (%s) offset %d: state word %#x write-locked", node, region, row, so, s))
			}
		})
		if n := rt.PendingOps(node); n > 0 {
			errs = append(errs, fmt.Errorf("node %d: %d release-side steps parked", node, n))
		}
	}
	if locked > shown {
		errs = append(errs, fmt.Errorf("%d write-locked state words in all", locked))
	}
	return errors.Join(errs...)
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
