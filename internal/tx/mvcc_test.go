package tx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"drtm/internal/cluster"
	"drtm/internal/obs"
)

// withChains builds every entry with a 4-deep version chain, as a PolicyMVCC
// deployment does (drtm.Open); the default cluster has none.
func withChains(cfg *cluster.Config) { cfg.MVCCDepth = 4 }

// TestMVCCPointRead: PolicyMVCC point reads resolve the current value with
// no lease CAS and no confirm wave.
func TestMVCCPointRead(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 8, withChains)
	defer stop()
	e := rt.Executor(0, 0)
	if err := e.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 1); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			return lc.Write(tblAccounts, 1, []uint64{777, 9})
		})
	}); err != nil {
		t.Fatal(err)
	}
	// The snapshot stamp trails the soft clock by one tick (bounded
	// staleness): let a tick pass so the write is inside the snapshot.
	time.Sleep(time.Millisecond)
	before := rt.C.Obs.Snapshot()
	var got []uint64
	err := e.ExecROWith(PolicyMVCC, func(ro *RO) error {
		v, err := ro.Read(tblAccounts, 1) // remote (node 1)
		if err != nil {
			return err
		}
		got = append([]uint64(nil), v...)
		v2, err := ro.Read(tblAccounts, 2) // local (node 0)
		if err != nil {
			return err
		}
		_ = v2
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 777 || got[1] != 9 {
		t.Fatalf("mvcc read = %v, want [777 9]", got)
	}
	d := rt.C.Obs.Snapshot().Delta(before)
	if d.Counter(obs.EvMVCCRead) < 2 {
		t.Fatalf("EvMVCCRead = %d, want ≥ 2", d.Counter(obs.EvMVCCRead))
	}
	if d.Counter(obs.EvLeaseGrant) != 0 || d.Counter(obs.EvSpecRead) != 0 {
		t.Fatalf("mvcc read took a confirm-wave arm: leases=%d specs=%d",
			d.Counter(obs.EvLeaseGrant), d.Counter(obs.EvSpecRead))
	}
}

// TestMVCCReadNotFound: a key absent at the snapshot reports ErrNotFound.
func TestMVCCReadNotFound(t *testing.T) {
	rt, stop := newRig(t, 1, 1, 4, withChains)
	defer stop()
	e := rt.Executor(0, 0)
	err := e.ExecROWith(PolicyMVCC, func(ro *RO) error {
		_, err := ro.Read(tblAccounts, 999)
		return err
	})
	if err != ErrNotFound {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestMVCCSnapshotAtomicity: a transfer loop keeps sum(k1,k2) constant;
// MVCC readers must never observe half a commit, under concurrency, with
// both keys on different nodes.
func TestMVCCSnapshotAtomicity(t *testing.T) {
	rt, stop := newRig(t, 2, 2, 8, withChains)
	defer stop()
	const k1, k2 = 1, 2 // nodes 1 and 0
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e := rt.Executor(1, 1)
		for i := 0; ; i++ {
			select {
			case <-stopCh:
				return
			default:
			}
			_ = e.Exec(func(tx *Tx) error {
				if err := tx.W(tblAccounts, k1); err != nil {
					return err
				}
				if err := tx.W(tblAccounts, k2); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					a, _ := lc.Read(tblAccounts, k1)
					b, _ := lc.Read(tblAccounts, k2)
					if err := lc.Write(tblAccounts, k1, []uint64{a[0] - 1, a[1]}); err != nil {
						return err
					}
					return lc.Write(tblAccounts, k2, []uint64{b[0] + 1, b[1]})
				})
			})
		}
	}()
	e := rt.Executor(0, 0)
	var reads atomic.Int64
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		var a, b []uint64
		err := e.ExecROWith(PolicyMVCC, func(ro *RO) error {
			var err error
			if a, err = ro.Read(tblAccounts, k1); err != nil {
				return err
			}
			b, err = ro.Read(tblAccounts, k2)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if sum := a[0] + b[0]; sum != 2000 {
			t.Fatalf("torn snapshot: %d + %d = %d, want 2000", a[0], b[0], sum)
		}
		reads.Add(1)
	}
	close(stopCh)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no snapshot reads completed")
	}
}

// TestMVCCScanSnapshot: an erase+insert loop keeps an entity's live row
// count constant; MVCC scans (local and remote) must always see exactly
// that count — phantom safety without segment-stamp validation.
func TestMVCCScanSnapshot(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 2, withChains)
	defer stop()
	const entity = 3 // home node 1: remote from the reader on node 0
	w := rt.Executor(1, 1)
	insertOrders(t, w, entity, []uint64{1, 2, 3, 4})
	time.Sleep(time.Millisecond) // let the snapshot stamp pass the inserts
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Atomically swap row 4 for row 5 and back: the live count is 4 in
		// every committed state. The loop runs as fast as it can: where it
		// laps the chain ring (depth 4) inside a snapshot's staleness window
		// the reader falls back to the confirm wave and, failing that too,
		// escalates (ExecRO). The yield is not a throttle: this writer is
		// local to its rows, so it posts no verb — the engine's yield points —
		// and on one core the Go scheduler would otherwise run it for a whole
		// time slice, thousands of commits, between any two steps of the
		// reader; no protocol makes progress against a scheduler that does
		// not run it.
		for i := uint64(0); ; i++ {
			select {
			case <-stopCh:
				return
			default:
			}
			runtime.Gosched()
			out, in := uint64(4), uint64(5)
			if i%2 == 1 {
				out, in = in, out
			}
			_ = w.Exec(func(tx *Tx) error {
				if _, err := tx.Erase(tblOrders, orderedKey(entity, out)); err != nil {
					return err
				}
				if err := tx.WInsert(tblOrders, orderedKey(entity, in),
					[]uint64{i, i}); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error { return nil })
			})
		}
	}()
	for _, node := range []int{0, 1} { // remote scan, then local scan
		e := rt.Executor(node, 0)
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			var rows []ScanRow
			err := e.ExecROWith(PolicyMVCC, func(ro *RO) error {
				var err error
				rows, err = ro.Scan(tblOrders, orderedKey(entity, 0),
					orderedKey(entity, 0xFF), 0)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != 4 {
				t.Fatalf("node %d: snapshot scan saw %d live rows, want 4: %v",
					node, len(rows), rows)
			}
		}
	}
	close(stopCh)
	wg.Wait()
}

// TestMVCCFallbackWhenChainsDisabled: PolicyMVCC on a cluster built at the
// default MVCCDepth = 0 degrades to the confirm-wave scheme and still commits.
func TestMVCCFallbackWhenChainsDisabled(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 8, nil)
	defer stop()
	e := rt.Executor(0, 0)
	err := e.ExecROWith(PolicyMVCC, func(ro *RO) error {
		v, err := ro.Read(tblAccounts, 1)
		if err != nil {
			return err
		}
		if v[0] != 1000 {
			t.Fatalf("v = %v", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.C.Obs.Snapshot().Counter(obs.EvMVCCRead) != 0 {
		t.Fatal("chains disabled but an MVCC read was counted")
	}
}

// TestAdaptiveScanRoutesMVCC: under PolicyAdaptive a wide RO scan enters the
// snapshot arm, a narrow one keeps the confirm-wave scheme.
func TestAdaptiveScanRoutesMVCC(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 1, withChains)
	defer stop()
	rt.ReadPolicy = PolicyAdaptive
	const entity = 3
	w := rt.Executor(1, 0)
	subs := make([]uint64, 40)
	for i := range subs {
		subs[i] = uint64(i + 1)
	}
	insertOrders(t, w, entity, subs)
	time.Sleep(time.Millisecond) // let the snapshot stamp pass the inserts
	e := rt.Executor(0, 0)

	before := rt.C.Obs.Snapshot()
	if err := e.ExecRO(func(ro *RO) error {
		rows, err := ro.Scan(tblOrders, orderedKey(entity, 0), orderedKey(entity, 0xFF), 40)
		if err == nil && len(rows) != 40 {
			t.Fatalf("wide scan rows = %d", len(rows))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	d := rt.C.Obs.Snapshot().Delta(before)
	if d.Counter(obs.EvMVCCRead) == 0 {
		t.Fatal("wide adaptive scan did not take the MVCC arm")
	}

	before = rt.C.Obs.Snapshot()
	if err := e.ExecRO(func(ro *RO) error {
		_, err := ro.Scan(tblOrders, orderedKey(entity, 0), orderedKey(entity, 4), 4)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	d = rt.C.Obs.Snapshot().Delta(before)
	if d.Counter(obs.EvMVCCRead) != 0 {
		t.Fatal("narrow adaptive scan took the MVCC arm")
	}
}
