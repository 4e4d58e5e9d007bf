package tx

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
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

// walUpdate encodes the write-ahead record a commit of txid leaves for one
// write of tblAccounts' key (homed on node key % 2): value val at version.
func walUpdate(txid, key uint64, version uint32, val ...uint64) []uint64 {
	return nvram.EncodeRedo(nil, txid, []nvram.RedoUpdate{{
		Part: int(key % 2), Table: tblAccounts, Key: key, Version: version, Val: val}})
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
	it, ok := nvram.IterRedo(wal[0])
	if !ok || it.TxID == 0 {
		t.Fatalf("WAL record %v: ok=%v", wal[0], ok)
	}
	n := 0
	for _, more := it.Next(); more; _, more = it.Next() {
		n++
	}
	if n != 2 {
		t.Fatalf("WAL record holds %d updates, want 2", n)
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

// TestRecoveryUnlocksCrashedLocks is Figure 7(a): crash before XEND —
// recovery releases the remote lock its state word names; no WAL means no
// redo.
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
// same persistent state words. Node 1 runs a transaction over local keys 1 and
// 3 and remote key 2 into the fallback and dies inside the body; recovery must
// free all three.
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
	w.WriteAheadLog.Append(walUpdate(tx.txid, 2, 1, 777, 9))

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

// TestRecoveryLeavesReinsertedRowAlone: the write-ahead record names a row by
// its key, and a key can name another row by the time of the crash. Node 1
// erases a local ordered row — published at XEND, unlinked at its commit —
// node 0 inserts the key again, and node 1 dies with the erase as its logged
// commit. The new row is at a lower version than the logged erase, but node 1
// does not hold it: Recover must leave it live.
func TestRecoveryLeavesReinsertedRowAlone(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, func(c *cluster.Config) {
		c.Durability, c.LogWords = true, 1<<16
	})
	defer stop()
	key := orderedKey(1, 5) // homed on node 1
	e1 := rt.Executor(1, 0)
	insertOrders(t, e1, 1, []uint64{5})
	if err := e1.Exec(func(tx *Tx) error {
		if _, err := tx.Erase(tblOrders, key); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	o := rt.C.Node(1).Ordered(tblOrders)
	if _, found := o.Lookup(key); found {
		t.Fatal("the erased row is still linked")
	}
	insertOrders(t, rt.Executor(0, 0), 1, []uint64{5})
	off, _ := o.Lookup(key)
	if v := kvs.Version(o.Arena().LoadWord(kvs.IncVerOffset(off))); v >= 2 {
		t.Fatalf("the new row is at version %d, not below the logged erase's 2", v)
	}

	rt.C.Crash(1)
	rep := rt.Recover(1)
	if rep.RedoneRecords != 0 || rep.SkippedRecords != 1 {
		t.Errorf("redone %d, skipped %d, want the logged erase skipped", rep.RedoneRecords, rep.SkippedRecords)
	}
	if v, live := liveOrderedVal(rt, 1, tblOrders, key); !live || v[0] != 500 {
		t.Fatalf("the new row after Recover: %v, live %v; want [500 5] live", v, live)
	}
}

// TestRecoveryRedoesAKeysLastUpdate: a zombie's log keeps every commit since
// its machine died, and one key can name two rows in it. Node 1 is crashed
// first, and its one worker runs on, on a row of its own: it writes the row,
// erases it — the removal unlinks it — inserts the key again at a fresh slot,
// whose version restarts below the erase's, and writes the new row under the
// software fallback, which under IBV_ATOMIC_GLOB locks it by CPU CAS and whose
// write-back a dead machine cannot post (mustWrite drops it). The new row is
// held by node 1 at a version below both the logged erase's and the write's.
// Only the log's last update of the key can be owed: Recover must install the
// write, and not the older erase over the new row.
func TestRecoveryRedoesAKeysLastUpdate(t *testing.T) {
	rt, stop := newOrderedRig(t, 3, 1, func(c *cluster.Config) {
		c.Durability, c.LogWords, c.Atomicity = true, 1<<16, rdma.AtomicGLOB
	})
	defer stop()
	key := orderedKey(1, 5) // homed on node 1
	e1 := rt.Executor(1, 0)
	write := func(v uint64, fallback bool) error {
		return e1.Exec(func(tx *Tx) error {
			if err := tx.W(tblOrders, key); err != nil {
				return err
			}
			tx.escalated = fallback // an escalated attempt runs the software fallback
			return tx.Execute(func(lc *Local) error {
				return lc.Write(tblOrders, key, []uint64{v, 5})
			})
		})
	}
	rt.C.Crash(1)
	insertOrders(t, e1, 1, []uint64{5})
	for v := uint64(1); v <= 3; v++ {
		if err := write(v, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := e1.Exec(func(tx *Tx) error {
		if _, err := tx.Erase(tblOrders, key); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error { return nil })
	}); err != nil {
		t.Fatal(err)
	}
	o := rt.C.Node(1).Ordered(tblOrders)
	if _, found := o.Lookup(key); found {
		t.Fatal("the erased row is still linked")
	}
	insertOrders(t, e1, 1, []uint64{5})
	if err := write(777, true); err != nil {
		t.Fatalf("the last write: %v", err)
	}
	off, _ := o.Lookup(key)
	if s := o.Arena().LoadWord(kvs.StateOffset(off)); !clock.IsWriteLocked(s) || clock.Owner(s) != 1 {
		t.Fatalf("the new row's state word %#x: the last write's write-back is not owed", s)
	}
	if v := kvs.Version(o.Arena().LoadWord(kvs.IncVerOffset(off))); v+1 >= 5 {
		t.Fatalf("the new row is at version %d, not below the logged erase's 5", v)
	}
	if n := len(logRecords(rt.C.Worker(1, 0).WriteAheadLog)); n != 7 {
		t.Fatalf("node 1's write-ahead log holds %d records, want the insert, three writes, the erase, the insert and the write", n)
	}

	rep := rt.Recover(1)
	if rep.RedoneRecords != 1 || rep.SkippedRecords != 6 {
		t.Errorf("redone %d, skipped %d, want the last write alone redone", rep.RedoneRecords, rep.SkippedRecords)
	}
	if v, live := liveOrderedVal(rt, 1, tblOrders, key); !live || v[0] != 777 {
		t.Fatalf("the new row after Recover: %v, live %v; want [777 5] live", v, live)
	}
}

// TestRecoveryRedoesBeforeItUnlocks: a write-ahead log can hold a long history
// — a zombie's keeps every commit of its worker since its machine died
// (TestRecoveryRedoesAKeysLastUpdate), hand-appended here — so the location of an
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
		w.WriteAheadLog.Append(walUpdate(uint64(i+1), 2, 0, 1, 1))
	}
	w.WriteAheadLog.Append(walUpdate(tx.txid, 2, 1, 777, 9))

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
	w.WriteAheadLog.Append(walUpdate(tx.txid, 2, 1, 777, 9))

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

// TestRecoverAfterReviveFreesNothing: once its machine is revived, the locks a
// node holds and its logs are its live transactions'. After Recover(0) and
// Revive(0), a node-0 transfer pauses in its body holding rows 4 and 1 on node
// 1: a second Recover(0) must leave them held, report nothing unlocked and no
// pending piece, and leave the paused worker's logs as they were.
func TestRecoverAfterReviveFreesNothing(t *testing.T) {
	rt, stop := lifetimeRig(t, 0)
	defer stop()
	rt.C.Crash(0)
	rt.Recover(0)
	rt.C.Revive(0)

	paused, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	done := make(chan error, 1)
	go func() {
		done <- pieceTransfer(rt.Executor(0, 0), 4, 1, 1, false, nil, nil, func() {
			once.Do(func() { close(paused); <-resume })
		}, nil)
	}()
	<-paused
	wk := rt.C.Worker(0, 0)
	logs := func() [3]int {
		return [3]int{wk.ChoppingLog.BytesUsed(), wk.LockAheadLog.BytesUsed(), wk.WriteAheadLog.BytesUsed()}
	}
	before := logs()
	rep := rt.Recover(0)
	after := logs()
	host := rt.C.Node(1).Unordered(tblWideHash)
	off, _ := host.LookupLocal(1)
	s := host.Arena().LoadWord(kvs.StateOffset(off))
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if rep.Unlocked != 0 || len(rep.PendingPieces) != 0 || !clock.IsWriteLocked(s) || clock.Owner(s) != 0 {
		t.Fatalf("Recover of a revived node: %+v, row 1 state %#x; want nothing unlocked, no pending piece and row 1 held by node 0", rep, s)
	}
	if before == ([3]int{}) || after != before {
		t.Fatalf("paused worker's logs (chopping, lock-ahead, write-ahead) went from %v to %v bytes; want them kept", before, after)
	}
}

// TestRecoverRefusesReplicatedCluster: under f ≥ 1 nothing writes the
// write-ahead log, so Recover would free committed transactions' locks without
// their write-backs; it panics instead of repairing what only Failover can.
func TestRecoverRefusesReplicatedCluster(t *testing.T) {
	rt, stop := lifetimeRig(t, 1)
	defer stop()
	rt.C.Crash(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Recover ran on a replicated cluster")
		}
	}()
	rt.Recover(1)
}

// TestRecoverySkipsStaleVersions: a logged update older than the record's
// current version is not applied (update ordering by version, Section 4.6),
// though the crashed machine still holds the record.
func TestRecoverySkipsStaleVersions(t *testing.T) {
	rt, stop := durableRig(t, 2, 1, 4)
	defer stop()
	host := rt.C.Node(0).Unordered(tblAccounts)
	// Advance key 2 to version 5 through normal puts.
	for i := 0; i < 5; i++ {
		host.Put(2, []uint64{uint64(2000 + i), 0})
	}
	tx := rt.Executor(1, 0).newTx()
	if err := tx.stageRemote(tblAccounts, 2, 0, tblAccounts, 0, true); err != nil {
		t.Fatal(err)
	}

	w := rt.C.Worker(1, 0)
	w.WriteAheadLog.Append(walUpdate(42, 2, 3 /*stale version*/, 111, 111))
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
	return lifetimeRigDurable(t, f, true, 1<<16)
}

// lifetimeRigDurable is lifetimeRig with its NVRAM logs on or off, each capped
// at logWords.
func lifetimeRigDurable(t *testing.T, f int, durable bool, logWords int) (*Runtime, func()) {
	t.Helper()
	rt, stop := newRig(t, 3, 1, 0, func(c *cluster.Config) {
		c.Durability, c.ReplicationFactor, c.LogWords = durable, f, logWords
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
// restarted the logs by then; atStaged once Stage has locked the remote rows,
// before any log record is written; atBody first in the run of the body that
// will commit — the lock-ahead record of that path is written; atEnd as that
// run's last step — what follows is the commit point and the transaction's
// release side.
func pieceTransfer(e *Executor, from, to, piece uint64, fallback bool, atBuild, atStaged, atBody, atEnd func()) error {
	return e.Exec(func(tx *Tx) error {
		if atBuild != nil {
			atBuild()
		}
		tx.SetChoppingInfo(7, piece)
		if err := tx.Stage(Access{Table: tblWideHash, Key: from, Write: true},
			Access{Table: tblWideHash, Key: to, Write: true}); err != nil {
			return err
		}
		if atStaged != nil {
			atStaged()
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
// a third — after the log restart, once Stage has locked the rows and before
// any log record names them, after the lock-ahead append, at the commit point
// (XEND, or the fallback's write-ahead append), as the redo append lands
// (f = 1), and as each WRITE of the commit's chain to node 1 lands (after the
// last nothing is owed) —
// through the region and through the fallback, recovered by Recover (f = 0) or
// Failover (f = 1), and with f = 1 also with its redo rings filled to where the
// dying commit's own append drains them as it lands (a backup's drain keeps the
// partitions it backs up and drops the rest of a record: run between an append
// and its write-back, a drain of that record left the transfer's other half
// nowhere a promotion reads). At f = 1 every cell runs again without
// Durability: no repair reads a lock-ahead log, so none is needed.
// Whatever the point: the last transfer is whole or absent, and
// whole if its client was acked; no state word anywhere is left write-locked
// by the dead machine; no piece that committed comes back as pending (a
// chopping record outliving the write-ahead record that proved it committed);
// and a second repair finds nothing to do.
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
		points := []string{"restart", "staged", "lock-ahead", "commit", "replicate"}
		for k := 1; k <= publishWRs; k++ {
			points = append(points, fmt.Sprintf("publish-%d", k))
		}
		for _, f := range []int{0, 1} {
			for _, durable := range []bool{true, false}[:1+f] {
				arm := prefix
				if !durable {
					arm += "durability=off/"
				}
				for _, fallback := range []bool{false, true} {
					for _, ringFull := range []bool{false, true}[:1+f] {
						for _, point := range points {
							if point == "replicate" && f == 0 {
								continue
							}
							t.Run(fmt.Sprintf("%sf=%d/fallback=%v/ringFull=%v/%s", arm, f, fallback, ringFull, point), func(t *testing.T) {
								lifetimeCrashPoint(t, f, durable, fallback, ringFull, point, from, to, publishWRs)
							})
						}
					}
				}
			}
		}
	}
}

// assertNoLocksOf fails t for every state word, on any node, that machine dead
// still holds write-locked.
func assertNoLocksOf(t *testing.T, rt *Runtime, dead int) {
	t.Helper()
	for n := 0; n < rt.C.Nodes(); n++ {
		rt.C.Node(n).EachEntry(func(_ int, a *memory.Arena, off memory.Offset) {
			if s := a.LoadWord(kvs.StateOffset(off)); clock.IsWriteLocked(s) && int(clock.Owner(s)) == dead {
				t.Errorf("row %d of region %d on node %d still write-locked by node %d", a.LoadWord(off+kvs.EntryKeyWord), a.ID, n, dead)
			}
		})
	}
}

// transferRedoBytes is the ring footprint of one pieceTransfer's redo record:
// a length word, txid and count, and two updates of 7 header + wideWords value
// words.
const transferRedoBytes = (1 + 2 + 2*(7+wideWords)) * 8

func lifetimeCrashPoint(t *testing.T, f int, durable, fallback, ringFull bool, point string, from, to uint64, publishWRs int) {
	rt, stop := lifetimeRigDurable(t, f, durable, 1<<16)
	defer stop()
	if fallback {
		rt.FallbackThreshold = 1
	}
	e := rt.Executor(0, 0)
	for piece := uint64(1); piece <= 2; piece++ {
		before := rt.C.Obs.Snapshot().Stages[obs.StagePublish].WRs
		if err := pieceTransfer(e, from, to, piece, fallback, nil, nil, nil, nil); err != nil {
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
		// CheckpointWords: the crashing commit's append is the one that has the
		// backups apply and truncate the records ahead of it.
		for rt.C.RedoSinkAt(2, 0, 0).BytesUsed()+transferRedoBytes < cluster.CheckpointWords*8 {
			if err := pieceTransfer(e, from, to, 2, fallback, nil, nil, nil, nil); err != nil {
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
	var atBuild, atStaged, atBody, atEnd func()
	var k int
	switch _, err := fmt.Sscanf(point, "publish-%d", &k); {
	case point == "restart":
		atBuild = runtime.Goexit
	case point == "staged":
		atStaged = runtime.Goexit
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
		acked = pieceTransfer(e, from, to, 3, fallback, atBuild, atStaged, atBody, atEnd) == nil
	}()
	<-done
	killed := point == "restart" || point == "staged" || point == "lock-ahead"
	if !killed && rt.C.Node(0).Alive() {
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

	assertNoLocksOf(t, rt, 0)
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
	if killed && moved != 0 {
		t.Errorf("the last transfer never reached its commit point and is there (rows %d, %d)", a, b)
	}
}
