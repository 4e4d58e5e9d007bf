package tx

import (
	"drtm/internal/cluster"
	"drtm/internal/htm"
	"drtm/internal/memory"
	"drtm/internal/nvram"
	"drtm/internal/obs"
)

// Durability logging (Section 4.6, Figure 7). Record formats, in words:
//
//	chopping log:    [txid, info...]
//	lock-ahead log:  [txid, n, (node, table, off) x n]
//	write-ahead log: a redo record (nvram/redo.go) with epoch and gen 0
//
// The write-ahead record is the commit record the backups receive under
// replication, made by the same builder (updates). It is appended inside the
// HTM region (nvram.Log.AppendTx), so it exists in NVRAM iff the transaction's
// XEND executed — what recovery relies on to decide redo. Under replication
// there is none: Failover, never Recover, repairs a crashed machine from the
// backups' redo records (repl.go). The lock-ahead log is read by no repair
// (freeLocksOf reads the state words' owner bits); its appends stay for what
// they cost (Table 6).

// reclaimLogs applies the logs' lifetime rule. Recovery needs a crashed
// machine's chopping record until its piece commits and its write-ahead record
// until every write it names is home (Figure 7). So where a worker starts an
// attempt — holding no lock, owing no write — it restarts its non-empty logs,
// the write-ahead log last, so no chopping record outlives the write-ahead
// record proving its transaction committed (Recover would hand the piece back
// as pending). Only a zombie keeps them: the repair redoes its dropped
// write-backs (mustWrite). A zombie passing the check as its machine is
// declared dead restarts logs recovery may be scanning, the window the fault
// model assumes away; Log.Scan hands out no torn record in it. A restart appends nothing and
// is charged nothing.
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
	if e.zombie() {
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
// keeps its logs.
func (t *Tx) logged(ok bool, log string, words int) {
	if !ok {
		panic("tx: " + log + " log full: LogWords of records not reclaimed")
	}
	t.e.w.Obs.Inc(obs.EvLogRecord)
	t.e.charge(int64(t.e.model().NVRAMAppend(words * 8)))
}

// updates builds the commit record's update set — every record, local then
// staged, the commit writes, inserts or erases (remoteRec.update). Without
// replication it is every update, with epoch and generation 0: the write-ahead
// record. Under replication it is those replView keeps, stamped with the view
// epoch the transaction observed (replicate stamps their generations).
func (t *Tx) updates() []nvram.RedoUpdate {
	repl := t.e.rt.C.ReplicationFactor() > 0
	ups := t.redoUps[:0]
	for _, recs := range [2][]*remoteRec{t.locals, t.recs} {
		for _, r := range recs {
			inc, val, ok := r.update()
			if !ok {
				continue
			}
			var epoch uint64
			if repl {
				w, ok := t.replView(r.part)
				if !ok {
					continue
				}
				epoch = cluster.ViewEpoch(w)
			}
			ups = append(ups, nvram.RedoUpdate{
				Part: r.part, Epoch: epoch, Table: r.table,
				Key: r.key, Version: r.version + 1, Inc: inc, Val: val,
			})
		}
	}
	t.redoUps = ups
	return ups
}

// logWAL appends the write-ahead record at the commit point of a durable
// worker. Inside the HTM region the append is transactional: durable iff the
// region commits. Under the fallback's locks (htx == nil) it is immediate,
// ahead of the in-place updates ("DrTM will perform logs ahead of updates for
// them as in normal systems", Section 6.2). Under replication it appends
// nothing: the redo record the backups hold decides the commit, and Failover,
// the only repair of a replicated cluster, never reads this log.
func (t *Tx) logWAL(htx *htm.Txn) {
	if t.e.w.WriteAheadLog == nil || t.e.rt.C.ReplicationFactor() > 0 {
		return
	}
	ups := t.updates()
	if len(ups) == 0 {
		return
	}
	rec := nvram.EncodeRedo(t.redoBuf, t.txid, ups)
	t.redoBuf = rec
	if log := t.e.w.WriteAheadLog; htx != nil {
		t.logged(log.AppendTx(htx, rec), "write-ahead", len(rec))
	} else {
		t.logged(log.Append(rec), "write-ahead", len(rec))
	}
}
