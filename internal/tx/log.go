package tx

import (
	"drtm/internal/htm"
	"drtm/internal/memory"
	"drtm/internal/obs"
)

// Durability logging (Section 4.6, Figure 7).
//
// Log record wire formats (words):
//
//	chopping log:   [txid, info...]
//	lock-ahead log: [txid, n, (node, table, off) x n]
//	write-ahead log:[txid, n, (node, table, off, inc<<32|version, vw, val...) x n]
//
// The inc half of the packed word is the committed incarnation for
// ordered-table rows (live odd, erased even) and 0 for unordered rows, whose
// entries have no liveness; recovery redo applies an ordered row iff the
// packed word exceeds the entry's current incver word.
//
// The `table` slots carry the record's storage region — identical to the
// logical table ID except for replica regions after a failover promotion —
// so recovery resolves arenas without consulting the (possibly changed) view.
//
// The write-ahead log is appended transactionally inside the HTM region
// (nvram.Log.AppendTx), so it exists in NVRAM if and only if the
// transaction's XEND executed — the property recovery relies on to decide
// redo. Under replication there is none: a crashed machine is
// repaired by Failover, never by Recover, and the redo record on the backups
// is the commit record (repl.go).
//
// The lock-ahead log is written and read by no repair: both free a crashed
// machine's locks by the state words' owner bits (freeLocksOf). Its appends
// stay for what they cost (Table 6).
//
// Lifetime. Recovery consults a crashed machine's logs for the transactions
// that were in flight (Figure 7): a chopping record until its piece commits, a
// write-ahead record until every write it names is home. A worker
// therefore restarts its three logs (reclaimLogs) where it starts a
// transaction attempt — holding no lock, owing no write — unless some commit's
// release side is parked for an unreachable node (fault.go; only without
// replication does anything park), whose write-ahead record is exactly what a
// crash of this coordinator would still need.

// reclaimLogs applies the lifetime rule at the start of a transaction attempt:
// the worker's logs, if they hold anything, are restarted — all three, the
// write-ahead log last, so no chopping record ever outlives the write-ahead
// record that proved its transaction committed (Recover would hand the piece
// back as pending). They are kept while release-side work is parked anywhere
// in the runtime — the parked write's record must survive this coordinator;
// under replication nothing parks (defer_ runs the step at once). A zombie
// keeps its logs either way: its releases fail at the source, and the repair
// redoes its dropped write-backs (mustWrite, mustUnlock). A zombie that passes
// the check as its machine is declared dead restarts logs recovery may be
// scanning: the window the fault model already assumes away for a zombie's
// commit, and Log.Scan hands out no torn record in it. A restart appends
// nothing and is charged nothing: the next append rewrites the head word anyway.
func (e *Executor) reclaimLogs() {
	w := e.w
	if w.WriteAheadLog == nil {
		return
	}
	live := max(w.ChoppingLog.BytesUsed(), w.LockAheadLog.BytesUsed(), w.WriteAheadLog.BytesUsed())
	if live == 0 {
		return
	}
	w.Obs.Max(obs.GaugeLogWords, int64(live/8))
	if e.zombie() || e.rt.parked() {
		return
	}
	w.ChoppingLog.Truncate()
	w.LockAheadLog.Truncate()
	w.WriteAheadLog.Truncate()
	w.Obs.Inc(obs.EvLogRestart)
}

// logAheadOfRegion writes, before the HTM region (Figure 7, left), the
// chopping log — when the transaction is a piece of a chopped parent — and
// the lock-ahead log, and, without replication, reserves the write-ahead log's
// room for the largest record the region can append (the region's write-set
// bound: AppendTx cannot grow an arena). A restarted log has that room from
// the start.
func (t *Tx) logAheadOfRegion() {
	if t.chopped {
		t.logBuf = append(t.logBuf[:0], t.txid, t.chopInfo[0], t.chopInfo[1])
		t.logged(t.e.w.ChoppingLog.Append(t.logBuf), "chopping", len(t.logBuf))
	}
	t.logLockAhead()
	if t.e.rt.C.ReplicationFactor() == 0 {
		t.e.w.WriteAheadLog.Reserve(t.e.w.Node.Engine.Config().WriteLines * memory.WordsPerLine)
	}
}

// logLockAhead names every record this transaction holds exclusively locked:
// the remote write set of the region path; every write record, this node's
// included, of the fallback, which logs a record of its own once it has taken
// its locks again (at offsets a re-resolve may have moved).
func (t *Tx) logLockAhead() {
	b := append(t.logBuf[:0], t.txid, 0)
	for _, r := range t.recs {
		if r.locked() {
			b = append(b, uint64(r.node), uint64(r.region), uint64(r.off))
			b[1]++
		}
	}
	t.logBuf = b
	if b[1] > 0 {
		t.logged(t.e.w.LockAheadLog.Append(b), "lock-ahead", len(b))
	}
}

// logged accounts for one record appended to the named log. A log full at its
// cap means LogWords of records could not be reclaimed (reclaimLogs): a zombie
// keeps its logs, and so does a worker while release-side work is parked for a
// node nobody recovers (only without replication does anything park).
func (t *Tx) logged(ok bool, log string, words int) {
	if !ok {
		panic("tx: " + log + " log full: LogWords of records not reclaimed")
	}
	t.e.w.Obs.Inc(obs.EvLogRecord)
	t.e.charge(int64(t.e.model().NVRAMAppend(words * 8)))
}

// walBody serializes the transaction's full update set — every record, local
// then staged, the commit writes, inserts or erases (remoteRec.update) — into
// the log scratch; nil when there is none.
func (t *Tx) walBody() []uint64 {
	b := append(t.logBuf[:0], t.txid, 0)
	for _, recs := range [2][]*remoteRec{t.locals, t.recs} {
		for _, r := range recs {
			if inc, val, ok := r.update(); ok {
				b = putWAL(b, r.node, r.region, r.off, inc, r.version+1, val)
			}
		}
	}
	t.logBuf = b
	if b[1] == 0 {
		return nil
	}
	return b
}

// putWAL appends one update to a write-ahead record and counts it.
func putWAL(b []uint64, node, region int, off memory.Offset, inc, version uint32, val []uint64) []uint64 {
	b[1]++
	b = append(b, uint64(node), uint64(region), uint64(off), uint64(inc)<<32|uint64(version), uint64(len(val)))
	return append(b, val...)
}

// logWAL appends the write-ahead record at the commit point. Inside the HTM
// region the append is transactional: durable iff the region commits. Under
// the fallback's locks (htx == nil) it is immediate, ahead of the in-place
// updates ("DrTM will perform logs ahead of updates for them as in normal
// systems", Section 6.2). Under replication it appends nothing: the redo
// record the backups hold decides the commit (appendRedo's one-log rule), and
// Failover, the only repair of a replicated cluster, never reads this log.
func (t *Tx) logWAL(htx *htm.Txn) {
	if t.e.rt.C.ReplicationFactor() > 0 {
		return
	}
	body := t.walBody()
	if body == nil {
		return
	}
	if log := t.e.w.WriteAheadLog; htx != nil {
		t.logged(log.AppendTx(htx, body), "write-ahead", len(body))
	} else {
		t.logged(log.Append(body), "write-ahead", len(body))
	}
}

// parseWAL decodes one write-ahead record; the updates' values alias rec.
func parseWAL(rec []uint64) (txid uint64, recs []walRec, ok bool) {
	if len(rec) < 2 {
		return 0, nil, false
	}
	txid = rec[0]
	n := int(rec[1])
	i := 2
	for r := 0; r < n; r++ {
		if i+5 > len(rec) {
			return 0, nil, false
		}
		vw := int(rec[i+4])
		if i+5+vw > len(rec) {
			return 0, nil, false
		}
		recs = append(recs, walRec{
			node:    int(rec[i]),
			table:   int(rec[i+1]),
			off:     memory.Offset(rec[i+2]),
			version: uint32(rec[i+3]),
			inc:     uint32(rec[i+3] >> 32),
			val:     rec[i+5 : i+5+vw],
		})
		i += 5 + vw
	}
	return txid, recs, true
}
