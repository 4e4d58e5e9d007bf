package tx

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm/internal/clock"
	"drtm/internal/kvs"
	"drtm/internal/obs"
)

// Tests of the read routes this file's subjects share: the local records of a
// read-only transaction and ordered-table records, which PolicyAdaptive routes
// like remote hash records.

// stateWord loads a record's lock/lease word straight from its home arena.
func stateWord(t *testing.T, rt *Runtime, node, table int, key uint64) uint64 {
	t.Helper()
	n := rt.C.Node(node)
	if rt.Meta(table).Kind == Ordered {
		off, ok := n.Ordered(table).Lookup(key)
		if !ok {
			t.Fatalf("ordered key %#x missing", key)
		}
		return n.Ordered(table).Arena().LoadWord(kvs.StateOffset(off))
	}
	off, ok := n.Unordered(table).LookupLocal(key)
	if !ok {
		t.Fatalf("hash key %d missing", key)
	}
	return n.Unordered(table).Arena().LoadWord(kvs.StateOffset(off))
}

// TestReadOnlyAdaptiveLeavesNoLease is the mirror of
// TestReadOnlyLeaseVisibleToWriters: under PolicyAdaptive a read-only
// transaction over local rows — hash, ordered by key and ordered by
// offset — speculates on all of them, so every state word is still clock.Init
// afterwards and a local writer commits on its first attempt.
func TestReadOnlyAdaptiveLeavesNoLease(t *testing.T) {
	rt, stop := newOrderedRig(t, 1, 1, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	rt.DefineUnordered(tblAccounts, 64, 64, 64, 2)
	hashKeys := []uint64{1, 2, 3}
	for _, k := range hashKeys {
		if err := rt.C.Node(0).Unordered(tblAccounts).Insert(k, []uint64{1000, 0}); err != nil {
			t.Fatal(err)
		}
	}
	e := rt.Executor(0, 0)
	subs := []uint64{1, 2, 3, 4}
	insertOrders(t, e, 0, subs)
	reg := rt.C.Obs
	retries0 := reg.Total(obs.EvTxRetry)

	var sum uint64
	if err := e.ExecRO(func(ro *RO) error {
		sum = 0
		for _, k := range hashKeys {
			v, err := ro.Read(tblAccounts, k)
			if err != nil {
				return err
			}
			sum += v[0]
		}
		for _, s := range subs[:2] {
			v, err := ro.Read(tblOrders, orderedKey(0, s))
			if err != nil {
				return err
			}
			sum += v[0]
		}
		for _, ko := range ro.ScanLocal(tblOrders, orderedKey(0, subs[2]), orderedKey(0, 0xFF), 0) {
			v, err := ro.ReadAtLocal(tblOrders, ko.Off)
			if err != nil {
				return err
			}
			sum += v[0]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := uint64(3*1000 + 100 + 200 + 300 + 400); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
	nrecs := int64(len(hashKeys) + len(subs))
	if n := reg.Total(obs.EvAdaptSpec); n != nrecs {
		t.Fatalf("EvAdaptSpec = %d, want %d", n, nrecs)
	}
	if n := reg.Total(obs.EvSpecRead); n != nrecs {
		t.Fatalf("EvSpecRead = %d, want %d", n, nrecs)
	}
	if n := reg.Total(obs.EvLeaseGrant) + reg.Total(obs.EvLeaseShare); n != 0 {
		t.Fatalf("read-only transaction took %d leases, want 0", n)
	}
	for _, k := range hashKeys {
		if w := stateWord(t, rt, 0, tblAccounts, k); w != clock.Init {
			t.Fatalf("hash key %d state = %#x, want Init", k, w)
		}
	}
	for _, s := range subs {
		if w := stateWord(t, rt, 0, tblOrders, orderedKey(0, s)); w != clock.Init {
			t.Fatalf("ordered row %d state = %#x, want Init", s, w)
		}
	}

	// A writer of the rows just read meets no lease to wait out.
	if err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 1); err != nil {
			return err
		}
		if err := tx.W(tblOrders, orderedKey(0, 1)); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			if err := lc.Write(tblAccounts, 1, []uint64{999, 0}); err != nil {
				return err
			}
			return lc.Write(tblOrders, orderedKey(0, 1), []uint64{101, 1})
		})
	}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Total(obs.EvTxRetry) - retries0; n != 0 {
		t.Fatalf("writer retried %d times after the read-only transaction", n)
	}
	if n := htmAborts(rt); n != 0 {
		t.Fatalf("writer's region aborted %d times", n)
	}
}

// TestROSpecLocalValidation: a local record that a writer commits to between
// a speculative read-only fetch and the confirmation fails the confirmation —
// the unchanged-header check is all that protects a local speculative read.
func TestROSpecLocalValidation(t *testing.T) {
	rt, stop := newOrderedRig(t, 1, 2, nil)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	e := rt.Executor(0, 0)
	insertOrders(t, e, 0, []uint64{1, 2})
	write := func(sub, v uint64) {
		t.Helper()
		if err := rt.Executor(0, 1).Exec(func(tx *Tx) error {
			if err := tx.W(tblOrders, orderedKey(0, sub)); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				return lc.Write(tblOrders, orderedKey(0, sub), []uint64{v, sub})
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	begin := func() *RO {
		ro := &RO{readSet: readSet{e: e, index: map[refKey]*remoteRec{}}, policy: PolicyAdaptive}
		for _, s := range []uint64{1, 2} {
			if _, err := ro.Read(tblOrders, orderedKey(0, s)); err != nil {
				t.Fatal(err)
			}
		}
		return ro
	}

	ro := begin()
	if !ro.confirm() {
		t.Fatal("confirmation failed with no writer")
	}
	ro = begin()
	write(2, 777)
	if ro.confirm() {
		t.Fatal("confirmation passed over a row rewritten since its fetch")
	}
	if n := rt.C.Obs.Total(obs.EvSpecValidateFail); n != 1 {
		t.Fatalf("EvSpecValidateFail = %d, want 1", n)
	}
	// The retry sees the new value and confirms.
	ro = begin()
	if v := ro.recs[1].buf[0]; v != 777 {
		t.Fatalf("re-read value = %d, want 777", v)
	}
	if !ro.confirm() {
		t.Fatal("confirmation failed after the writer finished")
	}
}

// Wide tables for the stress test: an eight-word value puts the entry's
// header and the value's head on one cache line and its tail on the next, so
// a reader that mixed two commits would see a row that disagrees with itself.
const (
	tblWideHash    = 11
	tblWideOrdered = 12
	wideWords      = 8
	wideRows       = 6
	wideBalance    = 1000
)

func wideVal(bal uint64) []uint64 {
	v := make([]uint64, wideWords)
	for i := range v {
		v[i] = bal
	}
	return v
}

// TestROSpecLocalStress is the transfer invariant under fire for the local
// speculative route: a read-only transaction on the rows' home node sums
// multi-line rows with plain image reads while a local HTM writer and a
// remote locking writer (lock CAS, value WRITEs, then the release WRITE) move
// balance between them. A committed audit must see every row agree with
// itself and the total conserved; a torn or half-committed image fails one
// or the other. Hash and ordered tables.
func TestROSpecLocalStress(t *testing.T) {
	for _, table := range []int{tblWideHash, tblWideOrdered} {
		t.Run(fmt.Sprintf("table%d", table), func(t *testing.T) {
			rt, stop := newOrderedRig(t, 2, 2, nil)
			defer stop()
			rt.ReadPolicy = PolicyAdaptive
			rt.DefineUnordered(tblWideHash, 16, 16, 32, wideWords)
			rt.DefineOrderedSeg(tblWideOrdered, 32, wideWords, 8)
			// Keys 1..wideRows are entity 0: homed on node 0.
			for k := uint64(1); k <= wideRows; k++ {
				var err error
				if table == tblWideHash {
					err = rt.C.Node(0).Unordered(table).Insert(k, wideVal(wideBalance))
				} else {
					err = rt.C.Node(0).Ordered(table).Insert(k, wideVal(wideBalance))
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			deadline := time.Now().Add(150 * time.Millisecond)
			var wg sync.WaitGroup
			writer := func(e *Executor, step uint64) {
				defer wg.Done()
				for i := uint64(0); time.Now().Before(deadline); i++ {
					from, to := 1+i%wideRows, 1+(i*step+1)%wideRows
					if from == to {
						continue
					}
					err := e.Exec(func(tx *Tx) error {
						if err := tx.W(table, from); err != nil {
							return err
						}
						if err := tx.W(table, to); err != nil {
							return err
						}
						return tx.Execute(func(lc *Local) error {
							f, err := lc.Read(table, from)
							if err != nil {
								return err
							}
							g, err := lc.Read(table, to)
							if err != nil {
								return err
							}
							if f[0] == 0 {
								return nil
							}
							if err := lc.Write(table, from, wideVal(f[0]-1)); err != nil {
								return err
							}
							return lc.Write(table, to, wideVal(g[0]+1))
						})
					})
					if err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}
			audits := 0
			auditor := func(e *Executor) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					var total uint64
					torn := false
					err := e.ExecRO(func(ro *RO) error {
						total, torn = 0, false
						for k := uint64(1); k <= wideRows; k++ {
							v, err := ro.Read(table, k)
							if err != nil {
								return err
							}
							for _, w := range v[1:] {
								torn = torn || w != v[0]
							}
							total += v[0]
						}
						return nil
					})
					switch {
					case err != nil:
						t.Errorf("auditor: %v", err)
						return
					case torn:
						t.Error("committed audit read a torn row")
						return
					case total != wideRows*wideBalance:
						t.Errorf("committed audit summed %d, want %d", total, wideRows*wideBalance)
						return
					}
					audits++
				}
			}
			wg.Add(3)
			go auditor(rt.Executor(0, 0)) // local speculative reader
			go writer(rt.Executor(0, 1), 2)
			go writer(rt.Executor(1, 0), 3) // remote write-backs
			wg.Wait()

			if audits == 0 {
				t.Fatal("no audit committed")
			}
			// A speculative run leases nothing — except in escalated attempts
			// (the progress guarantee), an audit's of which lease every row.
			leases := rt.C.Obs.Total(obs.EvLeaseGrant) + rt.C.Obs.Total(obs.EvLeaseShare)
			if esc := rt.C.Obs.Total(obs.EvTxEscalate); leases > esc*wideRows {
				t.Fatalf("speculative run took %d leases in %d escalated attempts of %d rows", leases, esc, wideRows)
			}
			var total uint64
			for k := uint64(1); k <= wideRows; k++ {
				var v []uint64
				var ok bool
				if table == tblWideHash {
					v, ok = rt.C.Node(0).Unordered(table).Get(k)
				} else {
					v, ok = liveOrderedVal(rt, 0, table, k)
				}
				if !ok {
					t.Fatalf("row %d lost", k)
				}
				total += v[0]
			}
			if total != wideRows*wideBalance {
				t.Fatalf("final total = %d, want %d", total, wideRows*wideBalance)
			}
		})
	}
}

// TestROEscalationPinsScannedRows is the progress guarantee for a scan: a
// remote writer moves balance between the rows of one entity as fast as it
// can, so on one core a commit lands between every collection and its
// confirmation and an optimistic scan never confirms. Past escalateAfter
// failed attempts the scanned entries are leased, the writer's lock CASes
// wait, and the read-only transaction commits: a starved one would never
// return. The case is named for the speculative arm its scans start on.
func TestROEscalationPinsScannedRows(t *testing.T) {
	t.Run("spec", func(t *testing.T) {
		rt, stop := newOrderedRig(t, 2, 2, nil)
		defer stop()
		rt.ReadPolicy = PolicyAdaptive
		const entity = 3 // homed on node 1
		insertOrders(t, rt.Executor(1, 1), entity, []uint64{1, 2, 3, 4})
		var done atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := rt.Executor(0, 1) // remote from the rows: every commit locks by CAS
			for i := uint64(0); !done.Load(); i++ {
				from, to := orderedKey(entity, 1+i%4), orderedKey(entity, 1+(i+1)%4)
				_ = w.Exec(func(tx *Tx) error {
					if err := tx.Stage(Access{Table: tblOrders, Key: from, Write: true},
						Access{Table: tblOrders, Key: to, Write: true}); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error {
						f, _ := lc.Read(tblOrders, from)
						g, _ := lc.Read(tblOrders, to)
						if err := lc.Write(tblOrders, from, []uint64{f[0] - 1, f[1]}); err != nil {
							return err
						}
						return lc.Write(tblOrders, to, []uint64{g[0] + 1, g[1]})
					})
				})
			}
		}()
		e := rt.Executor(0, 0)
		deadline := time.Now().Add(200 * time.Millisecond)
		for scans := 0; scans < 20 || time.Now().Before(deadline); scans++ {
			var sum uint64
			err := e.ExecRO(func(ro *RO) error {
				rows, err := ro.Scan(tblOrders, orderedKey(entity, 0), orderedKey(entity, 0xFF), 0)
				sum = 0
				for _, r := range rows {
					sum += r.Val[0]
				}
				return err
			})
			if err != nil {
				t.Errorf("scan %d: %v after %d escalated attempts", scans, err, rt.C.Obs.Total(obs.EvTxEscalate))
				break
			}
			if sum != 1000 {
				t.Errorf("scan %d summed %d, want 1000", scans, sum)
				break
			}
		}
		done.Store(true)
		wg.Wait()
		t.Logf("%d escalated attempts", rt.C.Obs.Total(obs.EvTxEscalate))
	})
}
