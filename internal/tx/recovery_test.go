package tx

import (
	"runtime"
	"sync"
	"testing"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/nvram"
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

// TestRecoveryRedoesBeforeItUnlocks: the write-ahead log is the node's history
// since its last recovery, so the location of an in-doubt update appears in it
// many times, the update itself last. The crashed machine's lock must hold
// until that last entry is replayed: released at an older entry, it lets a
// survivor lock and rewrite the record first, the version guard then skips the
// update, and an acked commit is gone (the money the f=0 chaos runs lost). A
// survivor spins on the record's lock while Recover replays a long history; it
// must find the in-doubt value there when it gets in.
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
	tx.SetChoppingInfo([]uint64{7, 3}) // parent 7, next piece 3
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
