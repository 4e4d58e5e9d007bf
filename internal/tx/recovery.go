package tx

import (
	"errors"
	"fmt"
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/obs"
)

// RecoveryReport summarizes one node's recovery.
type RecoveryReport struct {
	// RedoneTxns is the number of committed transactions with at least one
	// update installed from the write-ahead log (Figure 7(b)).
	RedoneTxns int
	// RedoneRecords is the number of logged updates installed: the row was
	// still write-locked by the crashed machine, at an older version.
	RedoneRecords int
	// SkippedRecords is the number of logged updates left alone: a later
	// update of the same key follows in the log, or the row is missing, not
	// held by the crashed machine, or not older than the update.
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
//     installing each update the crashed machine still owes: the last of its
//     key in its log (loggedWrites), into a row it holds (redoHeld);
//
//   - then, while the node is down, frees every exclusive lock the crashed
//     machine holds (freeLocksOf), hands back its uncommitted chopped pieces
//     and truncates its logs; once revived, its locks and logs are its live
//     transactions', and a later Recover leaves them.
//
// Recover is driven by a surviving node (or the rebooted machine itself); the
// flush-on-failure model keeps the logs intact. It is idempotent (the logs are
// truncated after replay) and safe under live traffic: redo is version-guarded,
// unlock owner-guarded, and no lock is released before every log is replayed,
// so no survivor gets at a record ahead of an update recovery still owes it.
//
// A replicated cluster keeps no write-ahead record, and Recover would free its
// committed locks without their write-backs: it panics there (use Failover).
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

	// Redo first, every worker's whole log, and unlock nothing meanwhile: the
	// crashed machine's lock keeps survivors off an in-doubt row until its
	// update is installed (freed earlier, a survivor could rewrite the row, the
	// version guard would skip the update, and an acked commit would be lost).
	committed := make(map[uint64]bool)
	redone := make(map[uint64]bool)
	for _, wk := range wks {
		sawEntries = sawEntries || wk.WriteAheadLog.BytesUsed() > 0 ||
			wk.LockAheadLog.BytesUsed() > 0 || wk.ChoppingLog.BytesUsed() > 0
		ws, recs := loggedWrites(wk.WriteAheadLog)
		wk.Obs.Add(obs.EvRecoveryScan, int64(recs))
		for _, w := range ws {
			committed[w.txid] = true
			if w.last && rt.redoHeld(crashed, w.RedoUpdate) {
				rep.RedoneRecords++
				redone[w.txid] = true
				wk.Obs.Inc(obs.EvRecoveryRedo)
			} else {
				rep.SkippedRecords++
			}
		}
	}
	rep.RedoneTxns = len(redone)

	// Now the locks and the logs, while the machine is down: once revived, the
	// locks it holds and its logs are its live transactions'.
	if rt.C.Fabric.NodeDown(crashed) {
		rep.Unlocked = rt.freeLocksOf(crashed)
		for _, wk := range wks {
			wk.ChoppingLog.Scan(nil, func(rec []uint64) {
				if len(rec) >= 1 && !committed[rec[0]] {
					rep.PendingPieces = append(rep.PendingPieces, append([]uint64(nil), rec[1:]...)) // rec is the scan buffer
				}
			})

			wk.WriteAheadLog.Truncate()
			wk.LockAheadLog.Truncate()
			wk.ChoppingLog.Truncate()
		}
	}

	sh := rt.C.Obs.Shard(0)
	if sawEntries {
		sh.Inc(obs.EvRecoveryRun)
	}
	sh.Add(obs.EvRecoveryNanos, time.Since(start).Nanoseconds())
	return rep
}

// redoHeld installs an update of the crashed machine's write-ahead log at its
// row's home copy (homeRow) iff the crashed machine still holds that row
// write-locked (so redo runs ahead of freeLocksOf) and the row is older. A lost
// write-back leaves only such rows short: the region's local rows were published
// at XEND, every other row stayed locked until its write-back landed. A key's
// row erased, unlinked and re-inserted since is another row, not held. The lock
// kept a held row's incarnation, so adopting the logged liveness parity
// (install) gives the commit's.
func (rt *Runtime) redoHeld(crashed int, u nvram.RedoUpdate) bool {
	_, arena, off, ok := rt.homeRow(crashed, u)
	if !ok {
		return false
	}
	if s := arena.LoadWord(kvs.StateOffset(off)); !clock.IsWriteLocked(s) || int(clock.Owner(s)) != crashed {
		return false
	}
	return rt.install(arena, off, u)
}

// loggedWrite is one update of a write-ahead log, with its transaction and
// whether it is the last update of its key (partition, table, key) in the log.
type loggedWrite struct {
	txid uint64
	nvram.RedoUpdate
	last bool
}

// loggedWrites reads a write-ahead log's updates in order and counts its
// records. Only a key's last update in the log can be a write still owed: while
// a commit's write to a row is owed its machine holds the row's lock, so no
// later commit in the log locked the row, and a later update of the key is to
// the row after the write landed or to another row — the key erased, unlinked
// and re-inserted since, at a version that restarted below the earlier one's.
func loggedWrites(l *nvram.Log) (ws []loggedWrite, recs int) {
	recs, _ = l.Scan(nil, func(rec []uint64) {
		it, _ := nvram.IterRedo(append([]uint64(nil), rec...)) // the updates keep the values
		for u, more := it.Next(); more; u, more = it.Next() {
			ws = append(ws, loggedWrite{it.TxID, u, false})
		}
	})
	seen := make(map[[3]uint64]bool) // partition, table, key
	for i := len(ws) - 1; i >= 0; i-- {
		k := [3]uint64{uint64(ws[i].Part), uint64(ws[i].Table), ws[i].Key}
		ws[i].last, seen[k] = !seen[k], true
	}
	return ws, recs
}

// homeRow finds the row an update of node's write-ahead log names, at its home
// copy: on the partition's node, or for a replicated table (part < 0) on node
// itself, in the table's own region — nothing is promoted without replication.
func (rt *Runtime) homeRow(node int, u nvram.RedoUpdate) (home int, arena *memory.Arena, off memory.Offset, ok bool) {
	if home = u.Part; home < 0 {
		home = node
	}
	arena, off, ok = rt.row(rt.C.Node(home), u.Table, u.Table, u.Key)
	return home, arena, off, ok
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
// stopped: on every live machine no state word is write-locked (a lock leaked
// by a commit, an abort or a repair; a freed ordered slot, which removeDeadEntry
// leaves locked on purpose, is skipped), and no key's last update in a
// write-ahead log (loggedWrites) finds its row, on a live node, at an older
// version. The error names the first few leaked locks by node, region (table,
// key, a replica's partition), offset and word, and owed writes by worker,
// table and key.
func (rt *Runtime) AuditQuiescent() error {
	const shown = 8
	var errs []error
	locked, owed := 0, 0
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
		for w := 0; w < rt.C.Config().WorkersPerNode; w++ {
			wal := rt.C.Worker(node, w).WriteAheadLog
			if wal == nil {
				continue
			}
			ws, _ := loggedWrites(wal)
			for _, u := range ws {
				if !u.last {
					continue
				}
				home, a, off, found := rt.homeRow(node, u.RedoUpdate)
				if !found || !rt.C.Node(home).Alive() {
					continue
				}
				if v := kvs.Version(a.LoadWord(kvs.IncVerOffset(off))); v < u.Version {
					if owed++; owed <= shown {
						errs = append(errs, fmt.Errorf("node %d worker %d: write-ahead record owes table %d key %d version %d (node %d holds %d)",
							node, w, u.Table, u.Key, u.Version, home, v))
					}
				}
			}
		}
	}
	if locked > shown {
		errs = append(errs, fmt.Errorf("%d write-locked state words in all", locked))
	}
	if owed > shown {
		errs = append(errs, fmt.Errorf("%d owed writes in all", owed))
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
