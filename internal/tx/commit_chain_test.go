package tx

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm/internal/clock"
	"drtm/internal/cluster"
	"drtm/internal/kvs"
	"drtm/internal/memory"
	"drtm/internal/obs"
	"drtm/internal/rdma"
)

// The release side is one doorbell chain of WRITEs (Tx.commitRemotes,
// Tx.postWave): these tests walk a fault through every position of it under
// concurrent readers, pin the wave count, and pin who may still free a lock
// that changed hands.

// chainRig is three nodes of three workers holding two-line rows (wideWords value words behind
// a three-word header): key k is homed on node k%3.
// Leases are short, so writers wait readers out in fractions of a millisecond.
func chainRig(t *testing.T, keys int, mut func(*cluster.Config)) (*Runtime, func()) {
	t.Helper()
	rt, stop := newRig(t, 3, 3, 0, func(c *cluster.Config) {
		c.LeaseMicros, c.ROLeaseMicros = 400, 400
		if mut != nil {
			mut(c)
		}
	})
	rt.DefineUnordered(tblWideHash, 64, 64, keys+16, wideWords)
	for k := 1; k <= keys; k++ {
		if err := rt.C.Node(k%3).Unordered(tblWideHash).Insert(uint64(k), wideVal(wideBalance)); err != nil {
			t.Fatal(err)
		}
	}
	return rt, stop
}

// scriptFault installs a fault plan that fails exactly the k-th of the next
// verbs node 0 issues against node 1 and no other, by position
// (rdma.FaultPlan.ScriptFaults): which verb that is does not depend on what
// else draws from the plan meanwhile. A work request flushed behind the failed
// one draws nothing and does not count.
func scriptFault(rt *Runtime, k int) {
	plan := rdma.NewFaultPlan(1)
	plan.ScriptFaults(0, 1, k)
	rt.C.Fabric.SetFaultPlan(plan)
}

// wideImage reads key's entry image the way a one-sided READ does: line by
// line, each line consistent, ascending.
func wideImage(t *testing.T, rt *Runtime, key uint64, img []uint64) (*memory.Arena, memory.Offset) {
	host := rt.C.Node(int(key) % 3).Unordered(tblWideHash)
	off, ok := host.LookupLocal(key)
	if !ok {
		t.Errorf("key %d missing", key) // Errorf: the prober is not the test's goroutine
	}
	host.Arena().Read(img, off)
	return host.Arena(), off
}

// transfer moves one unit from row `from` to row `to`; arm, if not nil, runs as
// the body's last step — after it, the transaction's next verbs are its commit
// wave's.
func transfer(e *Executor, from, to uint64, arm func()) error {
	return e.Exec(func(tx *Tx) error {
		if err := tx.Stage(Access{Table: tblWideHash, Key: from, Write: true},
			Access{Table: tblWideHash, Key: to, Write: true}); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
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
			if arm != nil {
				arm()
			}
			return nil
		})
	})
}

// TestCommitChainUnderFaults fails the k-th work request of the commit chain
// for every k — two two-line rows on one host: per row the value, then
// `incver ‖ INIT` — while a reader audits the transfer invariant from a third
// node, under leases and then speculating, and a prober reads raw images. The one
// writer moves one unit per commit, so a row's value is a function of its
// version, and the prober can tell a pre-commit value wherever it may not be:
// in an image whose header is not write-locked. Every transaction that
// returned nil is fully installed: value, version, lock gone. A faulted chain
// is charged as awaited — its wave's timeout, nothing left in flight — where a
// clean one leaves its WRITEs' latency in flight. Then the abort path: a fault
// at each position of a three-lock release wave loses no unlock.
func TestCommitChainUnderFaults(t *testing.T) {
	const a, b = 1, 4 // both homed on node 1
	rt, stop := chainRig(t, 15, nil)
	defer stop()
	writer := rt.Executor(0, 0)
	const chainWRs = 4
	imgWords := kvs.EntryValueWord + wideWords
	img := make([]uint64, imgWords)
	var base [2]uint64 // each row's version at balance wideBalance
	for i, k := range []uint64{a, b} {
		wideImage(t, rt, k, img)
		base[i] = uint64(kvs.Version(img[kvs.EntryIncVerWord]))
	}
	// valueAt is the balance row i (0 = a, 1 = b) holds at a version.
	valueAt := func(i int, incver uint64) uint64 {
		moved := uint64(kvs.Version(incver)) - base[i]
		if i == 0 {
			return wideBalance - moved
		}
		return wideBalance + moved
	}

	// One phase per read arm, the runtime's policy set between them: a lease
	// reader, then a speculative one.
	moved := uint64(0)
	for _, p := range []ReadPolicy{PolicyLease, PolicyAdaptive} {
		rt.ReadPolicy = p
		var done atomic.Bool
		var wg sync.WaitGroup
		var audits atomic.Int64
		wg.Add(1)
		go func() { // the reader
			defer wg.Done()
			ex := rt.Executor(2, 0)
			for !done.Load() {
				var va, vb []uint64
				err := ex.ExecRO(func(ro *RO) error {
					var err error
					if va, err = ro.Read(tblWideHash, a); err != nil {
						return err
					}
					vb, err = ro.Read(tblWideHash, b)
					return err
				})
				if err != nil {
					t.Errorf("%v reader: %v", p, err)
					return
				}
				for _, v := range [][]uint64{va, vb} {
					for _, w := range v[1:] {
						if w != v[0] {
							t.Errorf("%v reader: torn row %v", p, v)
							return
						}
					}
				}
				if va[0]+vb[0] != 2*wideBalance {
					t.Errorf("%v reader: %d + %d, want %d: half a commit", p, va[0], vb[0], 2*wideBalance)
					return
				}
				audits.Add(1)
				runtime.Gosched()
			}
		}()
		wg.Add(1)
		go func() { // the prober
			defer wg.Done()
			img := make([]uint64, imgWords)
			for !done.Load() {
				for i, k := range []uint64{a, b} {
					_, off := wideImage(t, rt, k, img)
					head, val := img[kvs.EntryIncVerWord], img[kvs.EntryValueWord:kvs.EntryValueWord+wideWords]
					want := valueAt(i, head)
					if !clock.IsWriteLocked(img[kvs.EntryStateWord]) {
						// The header's line, read as of one instant.
						for j, w := range val {
							if memory.LineOf(off+memory.Offset(kvs.EntryValueWord+j)) == memory.LineOf(off) && w != want {
								t.Errorf("row %d unlocked at version %d with value word %d = %d, want %d", k, kvs.Version(head), j, w, want)
								return
							}
						}
					}
				}
				runtime.Gosched()
			}
		}()

		// At least six rounds of every position, and on until the reader has
		// committed audits beside them.
		deadline := time.Now().Add(20 * time.Second)
		for round := 0; (round < 6 || audits.Load() < 8) && time.Now().Before(deadline) && !t.Failed(); round++ {
			for k := 0; k <= chainWRs; k++ {
				faults, snap := rt.C.Obs.Total(obs.EvVerbFault), rt.C.Obs.Snapshot()
				err := transfer(writer, a, b, func() {
					if k > 0 {
						scriptFault(rt, k)
					}
				})
				rt.C.Fabric.SetFaultPlan(nil)
				if err != nil {
					t.Fatalf("fault at %d: %v", k, err)
				}
				if n := rt.C.Obs.Total(obs.EvVerbFault) - faults; n != int64(min(k, 1)) {
					t.Fatalf("fault at %d: %d faults drawn, want the scripted one", k, n)
				}
				// The reader's transactions are read-only: the publish stage and the
				// commit phase are the writer's alone.
				d := rt.C.Obs.Snapshot().Delta(snap)
				pub, commit := d.Stages[obs.StagePublish], d.Phases[obs.PhaseCommit].Sum
				if k > 0 && (pub.Inflight != 0 || commit < rt.C.Fabric.Model().TimeoutNS) {
					t.Fatalf("fault at %d: commit charged %d ns, %d left in flight: want its timeout awaited", k, commit, pub.Inflight)
				}
				if k == 0 && (pub.Inflight == 0 || pub.Nanos != chainWRs*rt.C.Fabric.Model().DoorbellNS) {
					t.Fatalf("clean chain: publish stage %+v, want its doorbells charged and its WRITEs in flight", pub)
				}
				moved++
				if audits.Load() < 8 {
					time.Sleep(200 * time.Microsecond) // let a lease in between two locks
				}
				for i, key := range []uint64{a, b} {
					wideImage(t, rt, key, img)
					head := img[kvs.EntryIncVerWord]
					if uint64(kvs.Version(head)) != base[i]+moved || clock.IsWriteLocked(img[kvs.EntryStateWord]) {
						t.Fatalf("fault at %d: row %d committed as head %#x state %#x, want version %d, unlocked",
							k, key, head, img[kvs.EntryStateWord], base[i]+moved)
					}
					for j, w := range img[kvs.EntryValueWord : kvs.EntryValueWord+wideWords] {
						if w != valueAt(i, head) {
							t.Fatalf("fault at %d: row %d value word %d = %d after the commit returned, want %d", k, key, j, w, valueAt(i, head))
						}
					}
				}
			}
		}
		done.Store(true)
		wg.Wait()
		if audits.Load() < 8 && !t.Failed() {
			t.Errorf("%v reader committed %d audits beside %d faulted commits, want 8", p, audits.Load(), moved)
		}
	}

	// The abort path: three locks on node 1, released in one wave with a fault
	// at each position. What fails or is flushed is re-driven; no lock stays.
	for k := 1; k <= 3; k++ {
		tx := writer.newTx()
		if err := tx.Stage(Access{Table: tblWideHash, Key: 7, Write: true}, Access{Table: tblWideHash, Key: 10, Write: true},
			Access{Table: tblWideHash, Key: 13, Write: true}); err != nil {
			t.Fatalf("abort, fault at %d: %v", k, err)
		}
		scriptFault(rt, k)
		snap := rt.C.Obs.Snapshot()
		tx.releaseLocks()
		rt.C.Fabric.SetFaultPlan(nil)
		if rel := rt.C.Obs.Snapshot().Delta(snap).Stages[obs.StageRelease]; rel.Inflight != 0 || rel.Nanos < rt.C.Fabric.Model().TimeoutNS {
			t.Fatalf("abort, fault at %d: release stage %+v, want its timeout awaited", k, rel)
		}
		for _, key := range []uint64{7, 10, 13} {
			wideImage(t, rt, key, img)
			if s := img[kvs.EntryStateWord]; clock.IsWriteLocked(s) {
				t.Fatalf("abort, fault at %d: row %d still locked (%#x)", k, key, s)
			}
		}
	}
}

// TestCleanReleaseNeverClobbers: a clean release is a blind WRITE of the free
// word, so it must never be issued for a lock that can have changed hands. Node
// 1 takes two clean write locks on node 0 and crashes before its commit;
// recovery frees them and a survivor on node 2 locks
// the rows again. The zombie's commit and its abort path then release "their"
// locks: the WRITEs fail at the dead source, the re-drive is mustUnlock's
// owner-guarded CAS — applied at once when the host is up, parked and drained
// at its revival when it is down too — and the survivor's lock words stand.
//
// The zombie holds two transactions open at once on one executor; recovery
// frees both transactions' locks, found by their state words.
func TestCleanReleaseNeverClobbers(t *testing.T) {
	for _, hostDown := range []bool{false, true} {
		t.Run(fmt.Sprintf("hostDown=%v", hostDown), func(t *testing.T) {
			rt, stop := chainRig(t, 9, func(c *cluster.Config) {
				c.Durability = true
				c.LogWords = 1 << 16
			})
			defer stop()
			const viaCommit, viaAbort = 3, 6 // homed on node 0
			zombie := rt.Executor(1, 0)
			var txs []*Tx
			for _, key := range []uint64{viaCommit, viaAbort} {
				tx := zombie.newTx()
				if err := tx.W(tblWideHash, key); err != nil {
					t.Fatal(err)
				}
				tx.logAheadOfRegion()
				tx.snapshotWriteBufs()
				txs = append(txs, tx)
			}
			rt.C.Crash(1)
			if rep := rt.Recover(1); rep.Unlocked != 2 {
				t.Fatalf("recovery freed %d locks, want 2", rep.Unlocked)
			}
			survivor := rt.Executor(2, 0).newTx()
			if err := survivor.Stage(Access{Table: tblWideHash, Key: viaCommit, Write: true},
				Access{Table: tblWideHash, Key: viaAbort, Write: true}); err != nil {
				t.Fatal(err)
			}
			img := make([]uint64, kvs.EntryValueWord)
			check := func(when string) {
				t.Helper()
				for _, key := range []uint64{viaCommit, viaAbort} {
					wideImage(t, rt, key, img)
					if s := img[kvs.EntryStateWord]; s != clock.WLocked(2) {
						t.Fatalf("%s: row %d state %#x, want the survivor's lock %#x", when, key, s, clock.WLocked(2))
					}
				}
			}
			check("after the survivor locked")
			if hostDown {
				rt.C.Crash(0)
			}
			txs[0].commitRemotes() // clean write lock: the commit's release
			txs[1].releaseLocks()  // the abort path's
			check("after the zombie's releases")
			if hostDown {
				if n := rt.PendingOps(0); n != 2 {
					t.Fatalf("%d release steps parked for the dead host, want 2", n)
				}
				rt.C.Revive(0)
				if n := rt.FlushPending(0); n != 2 {
					t.Fatalf("revival drained %d parked steps, want 2", n)
				}
				check("after the parked releases drained")
			}
			survivor.releaseLocks()
			for _, key := range []uint64{viaCommit, viaAbort} {
				wideImage(t, rt, key, img)
				if s := img[kvs.EntryStateWord]; s != clock.Init {
					t.Fatalf("row %d state %#x after the survivor released, want free", key, s)
				}
			}
		})
	}
}

// TestCommitIsOneDoorbell: everything a distributed read-write transaction
// posts after its serialization point is one polled wave — two with
// replication, whose redo append keeps its own wave ahead of every release —
// and so is an abort's release of three remote locks. With replication the
// backup's ring is first filled to where the first measured commit's append
// takes it past CheckpointWords: the backup applies and truncates the ring as
// that append lands, and the commit still posts two waves and no message.
func TestCommitIsOneDoorbell(t *testing.T) {
	for _, repl := range []int{0, 1} {
		t.Run(fmt.Sprintf("f=%d", repl), func(t *testing.T) {
			rt, stop := chainRig(t, 9, func(c *cluster.Config) { c.ReplicationFactor = repl })
			defer stop()
			e := rt.Executor(0, 0)
			batches := func() int64 { return rt.C.Obs.Total(obs.EvRDMABatch) }
			msgs := func() int64 { return rt.C.Obs.Total(obs.EvVerbsMsg) }
			drains := func() int64 { return rt.C.Obs.Total(obs.EvRingDrain) }
			if repl > 0 {
				// Node 2 backs node 1's partition up.
				for rt.C.RedoSinkAt(2, 0, 0).BytesUsed()+transferRedoBytes < cluster.CheckpointWords*8 {
					if err := transfer(e, 1, 4, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			base := rt.C.Obs.Snapshot()
			// Rows 1 and 4 live on node 1: per row the value and the release.
			for i := 0; i < 2; i++ {
				var before, msgsBefore, drainsBefore int64
				if err := transfer(e, 1, 4, func() { before, msgsBefore, drainsBefore = batches(), msgs(), drains() }); err != nil {
					t.Fatal(err)
				}
				if n, m := batches()-before, msgs()-msgsBefore; n != int64(1+repl) || m != 0 {
					t.Fatalf("commit %d: %d polled waves and %d messages past the serialization point, want %d and 0", i, n, m, 1+repl)
				}
				if d := drains() - drainsBefore; (i == 0 && repl > 0) != (d > 0) {
					t.Fatalf("commit %d: its append drained %d records", i, d)
				}
			}
			stages := rt.C.Obs.Snapshot().Delta(base).Stages
			if w := stages[obs.StagePublish]; w.Waves != 2 || w.WRs != 2*4 || w.CASes != 0 {
				t.Fatalf("publish stage = %+v, want 2 waves of 4 WRITEs", w)
			}
			if w := stages[obs.StageReplicate]; w.Waves != int64(2*repl) {
				t.Fatalf("replicate stage = %+v, want %d waves", w, 2*repl)
			}

			tx := e.newTx()
			if err := tx.Stage(Access{Table: tblWideHash, Key: 1, Write: true}, Access{Table: tblWideHash, Key: 4, Write: true},
				Access{Table: tblWideHash, Key: 2, Write: true}); err != nil { // nodes 1, 1 and 2
				t.Fatal(err)
			}
			before, cas := batches(), rt.C.Obs.Total(obs.EvRDMACAS)
			tx.releaseLocks()
			if n, c := batches()-before, rt.C.Obs.Total(obs.EvRDMACAS)-cas; n != 1 || c != 0 {
				t.Fatalf("abort holding three remote locks: %d polled waves and %d CASes, want 1 and 0", n, c)
			}
			img := make([]uint64, kvs.EntryValueWord)
			for _, key := range []uint64{1, 4, 2} {
				wideImage(t, rt, key, img)
				if s := img[kvs.EntryStateWord]; s != clock.Init {
					t.Fatalf("row %d state %#x after the abort, want free", key, s)
				}
			}
		})
	}
}
