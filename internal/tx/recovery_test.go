package tx

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/nvram"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// logRecords copies every record out of an NVRAM log through its scan.
func logRecords(l *nvram.Log) [][]uint64 {
	var out [][]uint64
	l.Scan(nil, func(rec []uint64) { out = append(out, append([]uint64(nil), rec...)) })
	return out
}

func durableRig(t testing.TB, nodes, workers, keys int) (*Runtime, func()) {
	t.Helper()
	return newRig(t, nodes, workers, keys, func(c *cluster.Config) {
		c.Durability = true
		c.LogWords = 1 << 16
	})
}

// TestDurableCommitWritesWAL: a committed transaction leaves exactly one
// write-ahead record with all its updates.
func TestDurableCommitWritesWAL(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 1); err != nil { // remote
			return err
		}
		if err := tx.W(tblAccounts, 2); err != nil { // local
			return err
		}
		return tx.Execute(func(lc *Local) error {
			if err := lc.Write(tblAccounts, 1, []uint64{500, 0}); err != nil {
				return err
			}
			return lc.Write(tblAccounts, 2, []uint64{1500, 0})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	w := rt.C.Worker(0, 0)
	wal := logRecords(w.WriteAheadLog)
	if len(wal) != 1 {
		t.Fatalf("WAL records = %d, want 1", len(wal))
	}
	txid, recs, ok := parseWAL(wal[0])
	if !ok || txid == 0 || len(recs) != 2 {
		t.Fatalf("WAL parse = %d recs, ok=%v", len(recs), ok)
	}
	if n := len(logRecords(w.LockAheadLog)); n != 1 {
		t.Fatalf("lock-ahead records = %d, want 1", n)
	}
}

// TestAbortedTxnLeavesNoWAL: the write-ahead log is transactional.
func TestAbortedTxnLeavesNoWAL(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	e := rt.Executor(0, 0)
	_ = e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 2); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			if err := lc.Write(tblAccounts, 2, []uint64{0, 0}); err != nil {
				return err
			}
			return ErrUserAbort
		})
	})
	if rt.C.Worker(0, 0).WriteAheadLog.BytesUsed() != 0 {
		t.Fatal("aborted transaction left a WAL record")
	}
}

// TestRecoveryUnlocksCrashedLocks is Figure 7(a): crash before XEND — the
// lock-ahead log releases remote locks; no WAL means no redo.
func TestRecoveryUnlocksCrashedLocks(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	// Worker on node 1 locks key 2 (homed on node 0) and "crashes" before
	// the HTM region commits.
	e1 := rt.Executor(1, 0)
	tx := e1.newTx()
	if err := tx.stageRemote(tblAccounts, 2, 0, tblAccounts, 0, true); err != nil {
		t.Fatal(err)
	}
	tx.logAheadOfRegion() // what Execute would log before XBEGIN
	// The record is now locked by node 1.
	host := rt.C.Node(0).Unordered(tblAccounts)
	off, _ := host.LookupLocal(2)
	s := host.Arena().LoadWord(off + 2)
	if !clock.IsWriteLocked(s) || clock.Owner(s) != 1 {
		t.Fatalf("state = %x, want locked by node 1", s)
	}

	rt.C.Crash(1)
	rep := rt.Recover(1)
	if rep.Unlocked != 1 {
		t.Fatalf("Unlocked = %d, want 1", rep.Unlocked)
	}
	if rep.RedoneTxns != 0 {
		t.Fatalf("RedoneTxns = %d, want 0 (no WAL, Figure 7(a))", rep.RedoneTxns)
	}
	if got := host.Arena().LoadWord(off + 2); got != clock.Init {
		t.Fatalf("record still locked after recovery: %x", got)
	}
	// Value untouched.
	v, _ := host.Get(2)
	if v[0] != 1000 {
		t.Fatalf("value corrupted by recovery: %d", v[0])
	}
}

// TestRecoveryUnlocksFallbackLocks: the software fallback drops the Start
// phase's locks and takes new ones — on its local records too, through the
// same persistent state words — so it writes a lock-ahead record of its own.
// Node 1 runs a transaction over local keys 1 and 3 and remote key 2 into the
// fallback and dies inside the body; recovery must free all three.
func TestRecoveryUnlocksFallbackLocks(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	rt.FallbackThreshold = 1
	keys := []uint64{1, 2, 3}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = rt.Executor(1, 0).Exec(func(tx *Tx) error {
			for _, k := range keys {
				if err := tx.W(tblAccounts, k); err != nil {
					return err
				}
			}
			return tx.Execute(func(lc *Local) error {
				if lc.htx != nil {
					lc.htx.Abort(99) // on to the fallback
				}
				runtime.Goexit() // the machine dies holding the fallback's locks
				return nil
			})
		})
	}()
	<-done
	state := func(k uint64) uint64 {
		host := rt.C.Node(int(k) % 2).Unordered(tblAccounts)
		off, _ := host.LookupLocal(k)
		return host.Arena().LoadWord(kvs.StateOffset(off))
	}
	for _, k := range keys {
		if s := state(k); !clock.IsWriteLocked(s) || clock.Owner(s) != 1 {
			t.Fatalf("key %d state = %x, want locked by node 1", k, s)
		}
	}

	rt.C.Crash(1)
	rep := rt.Recover(1)
	if rep.Unlocked != len(keys) || rep.RedoneTxns != 0 {
		t.Errorf("Unlocked = %d, RedoneTxns = %d, want %d and 0", rep.Unlocked, rep.RedoneTxns, len(keys))
	}
	for _, k := range keys {
		if s := state(k); s != clock.Init {
			t.Errorf("key %d still locked after recovery: %x", k, s)
		}
	}
}

// TestRecoveryRedoesCommitted is Figure 7(b): crash after XEND but before
// remote write-back — the WAL redoes the update and unlocks.
func TestRecoveryRedoesCommitted(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	// Simulate a worker on node 1 that committed its HTM region (WAL is
	// durable, remote record still locked) but crashed before write-back.
	e1 := rt.Executor(1, 0)
	tx := e1.newTx()
	if err := tx.stageRemote(tblAccounts, 2, 0, tblAccounts, 0, true); err != nil {
		t.Fatal(err)
	}
	tx.logAheadOfRegion()
	host := rt.C.Node(0).Unordered(tblAccounts)
	off, _ := host.LookupLocal(2)

	// Hand-craft the WAL record the committed HTM region would have left:
	// key 2 updated to {777, 9} at version 1.
	w := rt.C.Worker(1, 0)
	w.WriteAheadLog.Append([]uint64{tx.txid, 1,
		0 /*node*/, tblAccounts, uint64(off), 1 /*version*/, 2 /*vw*/, 777, 9})

	rt.C.Crash(1)
	rep := rt.Recover(1)
	if rep.RedoneTxns != 1 || rep.RedoneRecords != 1 {
		t.Fatalf("redo = %d txns / %d recs, want 1/1", rep.RedoneTxns, rep.RedoneRecords)
	}
	if got := host.Arena().LoadWord(off + 2); got != clock.Init {
		t.Fatalf("record still locked after redo: %x", got)
	}
	v, _ := host.Get(2)
	if v[0] != 777 || v[1] != 9 {
		t.Fatalf("redo lost update: %v", v)
	}
	if kvs.Version(host.Arena().LoadWord(off+1)) != 1 {
		t.Fatal("version not advanced by redo")
	}
}

// TestRecoveryRedoesBeforeItUnlocks: a write-ahead log can hold a long history
// — every commit of its worker since a release was parked for a dead node
// (TestParkedWriteKeepsLogs), hand-appended here — so the location of an
// in-doubt update appears in it many times, the update itself last. The crashed
// machine's lock must hold until that last entry is replayed: released at an
// older entry, it lets a survivor lock and rewrite the record first, the version
// guard then skips the update, and an acked commit is gone (the money the f=0
// chaos runs lost). A survivor spins on the record's lock while Recover replays
// a long history; it must find the in-doubt value there when it gets in.
func TestRecoveryRedoesBeforeItUnlocks(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	tx := rt.Executor(1, 0).newTx()
	if err := tx.stageRemote(tblAccounts, 2, 0, tblAccounts, 0, true); err != nil {
		t.Fatal(err)
	}
	tx.logAheadOfRegion()
	host := rt.C.Node(0).Unordered(tblAccounts)
	arena := host.Arena()
	off, _ := host.LookupLocal(2)

	// History: updates of key 2 long since written back (version 0 is not
	// newer than anything), then the one the crash left in doubt.
	w := rt.C.Worker(1, 0)
	for i := 0; i < 4000; i++ {
		w.WriteAheadLog.Append([]uint64{uint64(i + 1), 1, 0, tblAccounts, uint64(off), 0, 2, 1, 1})
	}
	w.WriteAheadLog.Append([]uint64{tx.txid, 1, 0, tblAccounts, uint64(off), 1, 2, 777, 9})

	// The survivor: lock the record the moment it is free, look, update, unlock.
	var saw []uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, ok := arena.CAS(kvs.StateOffset(off), clock.Init, clock.WLocked(0)); ok {
				break
			}
			runtime.Gosched()
		}
		saw, _ = host.Get(2)
		ver := kvs.Version(arena.LoadWord(kvs.IncVerOffset(off)))
		arena.Write(kvs.ValueOffset(off), []uint64{saw[0] + 1, saw[1]})
		arena.Write(kvs.IncVerOffset(off), []uint64{kvs.PackIncVer(1, ver+1), clock.Init})
	}()

	rt.C.Crash(1)
	rep := rt.Recover(1)
	<-done
	if rep.RedoneRecords != 1 {
		t.Errorf("RedoneRecords = %d, want the one in-doubt update", rep.RedoneRecords)
	}
	if len(saw) != 2 || saw[0] != 777 {
		t.Fatalf("the survivor got the lock and found %v: recovery let go of the record before redoing [777 9]", saw)
	}
	if v, _ := host.Get(2); v[0] != 778 {
		t.Fatalf("key 2 = %v after recovery and the survivor's update, want [778 9]", v)
	}
}

// TestRecoveryIdempotent: a second Recover of the same crash is a no-op —
// the logs were truncated by the first run, so nothing is redone, nothing
// unlocked, nothing pending. Recovery can safely run again (a second
// coordinator, a retried OnDeath handler) without double-applying updates.
func TestRecoveryIdempotent(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	// One uncommitted lock plus one committed-but-unapplied WAL record:
	// both Figure 7 paths have work to do on the first pass.
	e1 := rt.Executor(1, 0)
	tx := e1.newTx()
	if err := tx.stageRemote(tblAccounts, 2, 0, tblAccounts, 0, true); err != nil {
		t.Fatal(err)
	}
	tx.logAheadOfRegion()
	host := rt.C.Node(0).Unordered(tblAccounts)
	off, _ := host.LookupLocal(2)
	w := rt.C.Worker(1, 0)
	w.WriteAheadLog.Append([]uint64{tx.txid, 1,
		0, tblAccounts, uint64(off), 1, 2, 777, 9})

	rt.C.Crash(1)
	first := rt.Recover(1)
	if first.RedoneTxns != 1 || first.RedoneRecords != 1 {
		t.Fatalf("first recovery redo = %d txns / %d recs, want 1/1",
			first.RedoneTxns, first.RedoneRecords)
	}

	second := rt.Recover(1)
	if second.RedoneTxns != 0 || second.RedoneRecords != 0 ||
		second.SkippedRecords != 0 || second.Unlocked != 0 ||
		len(second.PendingPieces) != 0 {
		t.Fatalf("second recovery not a zero-delta no-op: %+v", second)
	}
	if got := host.Arena().LoadWord(off + 2); got != clock.Init {
		t.Fatalf("record locked after double recovery: %x", got)
	}
	v, _ := host.Get(2)
	if v[0] != 777 || v[1] != 9 {
		t.Fatalf("double recovery corrupted the redone value: %v", v)
	}
}

// TestRecoverySkipsStaleVersions: a logged update older than the record's
// current version is not applied (update ordering by version, Section 4.6).
func TestRecoverySkipsStaleVersions(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	host := rt.C.Node(0).Unordered(tblAccounts)
	// Advance key 2 to version 5 through normal puts.
	for i := 0; i < 5; i++ {
		host.Put(2, []uint64{uint64(2000 + i), 0})
	}
	off, _ := host.LookupLocal(2)

	w := rt.C.Worker(1, 0)
	w.WriteAheadLog.Append([]uint64{42, 1,
		0, tblAccounts, uint64(off), 3 /*stale version*/, 2, 111, 111})
	rt.C.Crash(1)
	rep := rt.Recover(1)
	if rep.SkippedRecords != 1 || rep.RedoneRecords != 0 {
		t.Fatalf("skip/redo = %d/%d, want 1/0", rep.SkippedRecords, rep.RedoneRecords)
	}
	v, _ := host.Get(2)
	if v[0] != 2004 {
		t.Fatalf("stale redo clobbered newer value: %d", v[0])
	}
}

// TestRecoveryPendingChoppedPieces: chopping-log records of uncommitted
// transactions surface for re-execution.
func TestRecoveryPendingChoppedPieces(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	e1 := rt.Executor(1, 0)
	tx := e1.newTx()
	tx.SetChoppingInfo(7, 3) // parent 7, next piece 3
	if err := tx.stageRemote(tblAccounts, 2, 0, tblAccounts, 0, true); err != nil {
		t.Fatal(err)
	}
	tx.logAheadOfRegion()
	rt.C.Crash(1)
	rep := rt.Recover(1)
	if len(rep.PendingPieces) != 1 || rep.PendingPieces[0][0] != 7 || rep.PendingPieces[0][1] != 3 {
		t.Fatalf("pending pieces = %v", rep.PendingPieces)
	}
}

// TestCrashRecoveryEndToEnd: run durable transfers, crash one node mid-way,
// recover, and check that the total balance is conserved — committed money
// moved, uncommitted money did not, no locks leaked.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	const nodes, keys = 3, 30
	rt, stop := durableRig(t, nodes, 2, keys)
	defer stop()

	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(n, w int) {
				defer wg.Done()
				e := rt.Executor(n, w)
				for i := 0; i < 60; i++ {
					if !rt.C.Node(n).Alive() {
						return // fail-stop
					}
					from := uint64((n*17+w*5+i)%keys) + 1
					to := uint64((n*29+w*3+i*7)%keys) + 1
					if from == to {
						continue
					}
					_ = e.Exec(func(tx *Tx) error {
						if err := tx.W(tblAccounts, from); err != nil {
							return err
						}
						if err := tx.W(tblAccounts, to); err != nil {
							return err
						}
						return tx.Execute(func(lc *Local) error {
							f, err := lc.Read(tblAccounts, from)
							if err != nil {
								return err
							}
							g, err := lc.Read(tblAccounts, to)
							if err != nil {
								return err
							}
							if f[0] < 3 {
								return nil
							}
							if err := lc.Write(tblAccounts, from, []uint64{f[0] - 3, 0}); err != nil {
								return err
							}
							return lc.Write(tblAccounts, to, []uint64{g[0] + 3, 0})
						})
					})
				}
			}(n, w)
		}
	}
	wg.Wait()

	rt.C.Crash(1)
	rt.Recover(1)
	rt.C.Revive(1)

	// Every record must be unlocked and the total conserved.
	var total uint64
	for k := uint64(1); k <= keys; k++ {
		host := rt.C.Node(int(k) % nodes).Unordered(tblAccounts)
		off, ok := host.LookupLocal(k)
		if !ok {
			t.Fatalf("key %d lost", k)
		}
		if s := host.Arena().LoadWord(off + 2); clock.IsWriteLocked(s) {
			t.Fatalf("key %d locked after recovery (owner %d)", k, clock.Owner(s))
		}
		v, _ := host.Get(k)
		total += v[0]
	}
	if total != keys*1000 {
		t.Fatalf("total = %d, want %d", total, keys*1000)
	}
}

// ---- the logs' lifetime rule at every crash point ---------------------------

// lifetimeRig is three one-worker nodes holding two-line rows (key k homed on
// node k%3), durable, with f backups per partition; the rows go in through
// transactions, so the replicas hold them too.
func lifetimeRig(t *testing.T, f int) (*Runtime, func()) {
	t.Helper()
	rt, stop := newRig(t, 3, 1, 0, func(c *cluster.Config) {
		c.Durability, c.ReplicationFactor, c.LogWords = true, f, 1<<16
	})
	rt.DefineUnordered(tblWideHash, 64, 64, 32, wideWords)
	for k := uint64(1); k <= 9; k++ {
		if err := rt.Executor(int(k)%3, 0).Exec(func(tx *Tx) error {
			return tx.Execute(func(lc *Local) error {
				lc.Insert(tblWideHash, k, wideVal(wideBalance))
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	return rt, stop
}

// pieceTransfer moves one unit from row `from` to row `to` as piece `piece` of
// chopped parent 7. With fallback set the body aborts its region after its last
// write and the transaction commits under the software fallback's locks
// (FallbackThreshold = 1). atBuild runs first in the build callback — Exec has
// restarted the logs by then; atBody first in the run of the body that will
// commit — the lock-ahead record of that path is written; atEnd as that run's
// last step — what follows is the commit point and the transaction's release
// side.
func pieceTransfer(e *Executor, from, to, piece uint64, fallback bool, atBuild, atBody, atEnd func()) error {
	return e.Exec(func(tx *Tx) error {
		if atBuild != nil {
			atBuild()
		}
		tx.SetChoppingInfo(7, piece)
		if err := tx.Stage(Access{Table: tblWideHash, Key: from, Write: true},
			Access{Table: tblWideHash, Key: to, Write: true}); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			commits := (lc.htx == nil) == fallback
			if commits && atBody != nil {
				atBody()
			}
			f, err := lc.Read(tblWideHash, from)
			if err != nil {
				return err
			}
			g, err := lc.Read(tblWideHash, to)
			if err != nil {
				return err
			}
			if err := lc.Write(tblWideHash, from, wideVal(f[0]-1)); err != nil {
				return err
			}
			if err := lc.Write(tblWideHash, to, wideVal(g[0]+1)); err != nil {
				return err
			}
			if !commits {
				lc.htx.Abort(99) // every write made: on to the fallback
			}
			if atEnd != nil {
				atEnd()
			}
			return nil
		})
	})
}

// TestLogLifetimeCrashPoints: a worker restarts its logs where it starts a
// transaction, so after any crash they hold the transaction in flight and
// nothing else. Node 0 commits two transfers into node 1's row 1, then dies in
// a third — after the log restart, after the lock-ahead append, at the commit
// point (XEND, or the fallback's write-ahead append), as the redo append lands
// (f = 1), and as each WRITE of the commit's chain to node 1 lands (after the
// last nothing is owed) —
// through the region and through the fallback, recovered by Recover (f = 0) or
// Failover (f = 1), and with f = 1 also with its redo rings filled to where the
// dying commit's own append trips their checkpoint (a backup's drain keeps the
// partitions it backs up and drops the rest of a record: asked for before the
// write-back, it left the transfer's other half nowhere a promotion reads).
// Whatever the point: the last transfer is whole or absent, and
// whole if its client was acked; no row stays locked by the dead machine;
// no piece that committed comes back as pending (a chopping record outliving
// the write-ahead record that proved it committed); and a second repair finds
// nothing to do.
//
// The sweep runs two transfers. Unprefixed, both rows are node 1's (4 and 1):
// the chain to node 1 is each row's value and release, four WRITEs, so a crash
// also lands between the rows. Under depth=0/ (entries carry no version chain)
// the transfer moves node 0's row 3 into row 1: the chain is that row's value
// and release.
func TestLogLifetimeCrashPoints(t *testing.T) {
	const to = 1
	for _, from := range []uint64{4, 3} {
		publishWRs, prefix := 4, ""
		if from == 3 {
			publishWRs, prefix = 2, "depth=0/"
		}
		points := []string{"restart", "lock-ahead", "commit", "replicate"}
		for k := 1; k <= publishWRs; k++ {
			points = append(points, fmt.Sprintf("publish-%d", k))
		}
		for _, f := range []int{0, 1} {
			for _, fallback := range []bool{false, true} {
				for _, ringFull := range []bool{false, true}[:1+f] {
					for _, point := range points {
						if point == "replicate" && f == 0 {
							continue
						}
						t.Run(fmt.Sprintf("%sf=%d/fallback=%v/ringFull=%v/%s", prefix, f, fallback, ringFull, point), func(t *testing.T) {
							lifetimeCrashPoint(t, f, fallback, ringFull, point, from, to, publishWRs)
						})
					}
				}
			}
		}
	}
}

// transferRedoBytes is the ring footprint of one pieceTransfer's redo record:
// a length word, txid and count, and two updates of 7 header + wideWords value
// words.
const transferRedoBytes = (1 + 2 + 2*(7+wideWords)) * 8

func lifetimeCrashPoint(t *testing.T, f int, fallback, ringFull bool, point string, from, to uint64, publishWRs int) {
	rt, stop := lifetimeRig(t, f)
	defer stop()
	if fallback {
		rt.FallbackThreshold = 1
	}
	e := rt.Executor(0, 0)
	for piece := uint64(1); piece <= 2; piece++ {
		before := rt.C.Obs.Snapshot().Stages[obs.StagePublish].WRs
		if err := pieceTransfer(e, from, to, piece, fallback, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		perRow := rt.C.Obs.Snapshot().Stages[obs.StagePublish].WRs - before
		if fallback && from%3 == 0 {
			perRow /= 2 // the fallback publishes its local row through the chain too
		}
		if piece == 2 && perRow != int64(publishWRs) {
			t.Fatalf("the commit's chain to node 1 is %d WRITEs, the sweep assumes %d", perRow, publishWRs)
		}
	}

	if ringFull {
		// Fill node 0's rings on both backups to where the next append crosses
		// the checkpoint threshold: the crashing commit is the one that asks
		// the backups to apply and truncate them.
		for rt.C.RedoSinkAt(2, 0, 0).BytesUsed()+transferRedoBytes < cluster.CheckpointWords*8 {
			if err := pieceTransfer(e, from, to, 2, fallback, nil, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	row, _ := rt.C.Node(int(to) % 3).Unordered(tblWideHash).Get(to)
	before := row[0] // of wideBalance plus one per committed transfer

	// The third transfer, and the crash.
	plan := rdma.NewFaultPlan(1)
	rt.C.Fabric.SetFaultPlan(plan)
	die := func() { rt.C.Crash(0) } // the goroutine runs on, a zombie: nothing it posts lands
	var atBuild, atBody, atEnd func()
	var k int
	switch _, err := fmt.Sscanf(point, "publish-%d", &k); {
	case point == "restart":
		atBuild = runtime.Goexit
	case point == "lock-ahead":
		atBody = runtime.Goexit
	case point == "commit":
		atEnd = die
	case point == "replicate":
		// Node 2 backs node 1's partition up: the append to it is the one verb
		// node 0 issues against node 2 after the body.
		atEnd = func() { plan.ScriptHook(0, 2, 1, die) }
	case err == nil:
		// With f = 1 and a row of partition 0 written, the redo append to
		// node 1, which backs partition 0 up, is node 0's first verb against
		// it after the body.
		if f == 1 && from%3 == 0 {
			k++
		}
		atEnd = func() { plan.ScriptHook(0, 1, k, die) }
	}
	acked := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		acked = pieceTransfer(e, from, to, 3, fallback, atBuild, atBody, atEnd) == nil
	}()
	<-done
	if point != "restart" && point != "lock-ahead" && rt.C.Node(0).Alive() {
		t.Fatalf("the crash point was never reached")
	}
	rt.C.Crash(0) // the points that kill the goroutine; a no-op after the others

	if f == 0 {
		rep := rt.Recover(0)
		for _, p := range rep.PendingPieces {
			if len(p) != 2 || p[0] != 7 || p[1] != 3 || point != "lock-ahead" {
				t.Errorf("pending piece %v: pieces 1 and 2 committed, and piece 3 is pending only if the crash came between its chopping record and its commit", p)
			}
		}
		if point == "lock-ahead" && len(rep.PendingPieces) != 1 {
			t.Errorf("pending pieces %v, want piece 3 once", rep.PendingPieces)
		}
		if again := rt.Recover(0); again.RedoneRecords+again.SkippedRecords+again.Unlocked+len(again.PendingPieces) != 0 {
			t.Errorf("second Recover found work: %+v", again)
		}
		rt.C.Revive(0)
	} else {
		if rep := rt.Failover(0); !rep.Promoted {
			t.Fatalf("failover did not promote: %+v", rep)
		}
		if again := rt.Failover(0); again.Promoted || again.RedoRecords+again.Unlocked != 0 {
			t.Errorf("second Failover found work: %+v", again)
		}
	}

	// Every lock of the dead machine is gone — on the rows' primaries (node 0's
	// memory is back only when it was revived) and on the copies now serving.
	for _, key := range []uint64{from, to} {
		part := int(key) % 3
		owner, region := rt.C.OwnerOf(part), tblWideHash
		if owner != part {
			region = cluster.ReplicaRegion(part, tblWideHash)
		}
		for _, c := range []struct{ node, region int }{{part, tblWideHash}, {owner, region}} {
			host := rt.C.Node(c.node).Unordered(c.region)
			off, ok := host.LookupLocal(key)
			if !ok {
				t.Fatalf("row %d missing on node %d", key, c.node)
			}
			if s := host.Arena().LoadWord(kvs.StateOffset(off)); clock.IsWriteLocked(s) && rt.C.Node(c.node).Alive() {
				t.Errorf("row %d on node %d still write-locked by node %d", key, c.node, clock.Owner(s))
			}
		}
	}
	// All or nothing, through a survivor's eyes.
	var a, b uint64
	if err := rt.Executor(2, 0).ExecRO(func(ro *RO) error {
		va, err := ro.Read(tblWideHash, from)
		if err != nil {
			return err
		}
		vb, err := ro.Read(tblWideHash, to)
		if err != nil {
			return err
		}
		for _, v := range [][]uint64{va, vb} {
			for _, w := range v {
				if w != v[0] {
					return fmt.Errorf("torn row %v", v)
				}
			}
		}
		a, b = va[0], vb[0]
		return nil
	}); err != nil {
		t.Fatalf("a survivor cannot read the rows: %v", err)
	}
	moved := b - before
	if a+b != 2*wideBalance || moved > 1 {
		t.Fatalf("rows read %d and %d, row %d held %d before: the last transfer is neither whole nor absent", a, b, to, before)
	}
	if acked && moved != 1 {
		t.Errorf("the last transfer was acked and is gone (rows %d, %d)", a, b)
	}
	if (point == "restart" || point == "lock-ahead") && moved != 0 {
		t.Errorf("the last transfer never reached its commit point and is there (rows %d, %d)", a, b)
	}
}

// TestParkedWriteKeepsLogs is the lifetime rule's exception: node 1 dies as
// node 0's commit reaches its release side, so the write-back to node 1 is
// parked and the commit's write-ahead record is the only durable copy of it.
// Node 0's next transactions must not restart its logs; when node 0 then dies
// too, Recover redoes the parked write from that record — before anyone
// drains the parked step, which a real coordinator's volatile memory would
// have lost. Once nothing is parked the logs restart again.
func TestParkedWriteKeepsLogs(t *testing.T) {
	rt, stop := lifetimeRig(t, 0)
	defer stop()
	e, w := rt.Executor(0, 0), rt.C.Worker(0, 0)
	restarts := func() int64 { return rt.C.Obs.Total(obs.EvLogRestart) }
	if err := pieceTransfer(e, 3, 1, 1, false, nil, nil, func() { rt.C.Crash(1) }); err != nil {
		t.Fatalf("the commit whose destination died at its release: %v", err)
	}
	if rt.PendingOps(1) == 0 {
		t.Fatal("nothing parked for the dead destination")
	}
	before, used := restarts(), w.WriteAheadLog.BytesUsed()
	for i := 0; i < 50; i++ {
		if err := pieceTransfer(e, 3, 6, 2, false, nil, nil, nil); err != nil { // both rows local
			t.Fatal(err)
		}
		if now := w.WriteAheadLog.BytesUsed(); now <= used {
			t.Fatalf("transaction %d behind the parked write: write-ahead log at %d bytes, was %d — restarted", i, now, used)
		} else {
			used = now
		}
	}
	if restarts() != before {
		t.Fatalf("%d log restarts while a release was parked", restarts()-before)
	}

	rt.C.Crash(0)
	rep := rt.Recover(0)
	if rep.RedoneRecords == 0 || rt.PendingOps(1) == 0 {
		t.Fatalf("Recover redid %d records with %d steps still parked: the parked write must come from the write-ahead log", rep.RedoneRecords, rt.PendingOps(1))
	}
	host := rt.C.Node(1).Unordered(tblWideHash)
	if v, _ := host.Get(1); v[0] != wideBalance+1 || v[wideWords-1] != wideBalance+1 {
		t.Fatalf("row 1 = %v after node 0's recovery, want the parked write redone", v)
	}
	off, _ := host.LookupLocal(1)
	if s := host.Arena().LoadWord(kvs.StateOffset(off)); clock.IsWriteLocked(s) {
		t.Fatalf("row 1 still locked by node %d", clock.Owner(s))
	}
	if again := rt.Recover(0); again.RedoneRecords+again.SkippedRecords+again.Unlocked != 0 {
		t.Errorf("second Recover found work: %+v", again)
	}
	rt.C.Revive(0)
	rt.Recover(1) // drains what is parked for node 1: the same words again
	rt.C.Revive(1)
	if v, _ := host.Get(1); v[0] != wideBalance+1 {
		t.Fatalf("row 1 = %v after the parked step drained", v)
	}

	// Nothing parked any more: the next transaction starts on fresh logs.
	before = restarts()
	e = rt.Executor(0, 0)
	for i := 0; i < 2; i++ {
		if err := pieceTransfer(e, 3, 1, 3, false, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if restarts() != before+1 || len(logRecords(w.WriteAheadLog)) != 1 {
		t.Fatalf("%d restarts over two transactions with nothing parked, %d write-ahead records; want 1 and 1",
			restarts()-before, len(logRecords(w.WriteAheadLog)))
	}
}
