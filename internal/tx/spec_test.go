package tx

import (
	"errors"
	"sync"
	"testing"
	"time"

	"drtm/internal/obs"
)

// specRig is newRig with the speculative read arm enabled.
func specRig(t testing.TB, nodes, workers, keys int) (*Runtime, func()) {
	rt, stop := newRig(t, nodes, workers, keys, nil)
	rt.ReadPolicy = PolicyAdaptive
	return rt, stop
}

func TestSpecReadCommit(t *testing.T) {
	rt, stop := specRig(t, 2, 1, 4)
	defer stop()
	e := rt.Executor(0, 0)
	// Key 1 is remote (node 1): read it speculatively, write local key 2.
	var got uint64
	err := e.Exec(func(tx *Tx) error {
		if err := tx.R(tblAccounts, 1); err != nil {
			return err
		}
		if err := tx.W(tblAccounts, 2); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			v, err := lc.Read(tblAccounts, 1)
			if err != nil {
				return err
			}
			got = v[0]
			return lc.Write(tblAccounts, 2, []uint64{v[0] + 1, 0})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1000 {
		t.Fatalf("spec read saw %d, want 1000", got)
	}
	if v, _ := rt.C.Node(0).Unordered(tblAccounts).Get(2); v[0] != 1001 {
		t.Fatalf("write-back = %d, want 1001", v[0])
	}
	if n := rt.C.Obs.Total(obs.EvSpecRead); n != 1 {
		t.Fatalf("EvSpecRead = %d, want 1", n)
	}
	if n := rt.C.Obs.Total(obs.EvSpecValidateFail); n != 0 {
		t.Fatalf("EvSpecValidateFail = %d, want 0", n)
	}
}

// TestSpecGoldenCost pins the speculative read's one-RTT cost shape: staging
// a remote read-set record posts only READs — the lookup walk and the entry
// fetch — with zero CAS charges, and its modeled cost stays far below a
// single RDMA CAS (the whole point of the arm).
func TestSpecGoldenCost(t *testing.T) {
	rt, stop := specRig(t, 2, 1, 4)
	defer stop()
	e := rt.Executor(0, 0)
	model := rt.C.Fabric.Model()

	tx0 := e.newTx()
	cas0 := rt.C.Obs.Total(obs.EvRDMACAS)
	reads0 := rt.C.Obs.Total(obs.EvRDMARead)
	v0 := e.w.VClock.Now()
	if err := tx0.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, false); err != nil {
		t.Fatal(err)
	}
	v1 := e.w.VClock.Now()
	if d := rt.C.Obs.Total(obs.EvRDMACAS) - cas0; d != 0 {
		t.Fatalf("spec staging charged %d CAS verbs, want 0", d)
	}
	nreads := rt.C.Obs.Total(obs.EvRDMARead) - reads0
	if nreads < 2 { // at least the main-bucket lookup READ + the entry READ
		t.Fatalf("spec staging posted %d READs, want >= 2", nreads)
	}
	cost := int64(v1 - v0)
	if min := 2 * model.RDMAReadBaseNS; cost < min {
		t.Fatalf("spec staging cost %dns, want >= %dns (two READ round trips)", cost, min)
	}
	if cost >= model.RDMACASNS {
		t.Fatalf("spec staging cost %dns, want < one CAS (%dns)", cost, model.RDMACASNS)
	}
	tx0.releaseLocks()

	// The lease arm pays the CAS on the same access shape.
	rt.ReadPolicy = PolicyLease
	tx1 := e.newTx()
	v2 := e.w.VClock.Now()
	if err := tx1.stageRemote(tblAccounts, 3, 1, tblAccounts, 1, false); err != nil {
		t.Fatal(err)
	}
	leaseCost := int64(e.w.VClock.Now() - v2)
	tx1.releaseLocks()
	if leaseCost < model.RDMACASNS {
		t.Fatalf("lease staging cost %dns, want >= one CAS (%dns)", leaseCost, model.RDMACASNS)
	}
	if cost*2 > leaseCost {
		t.Fatalf("spec staging (%dns) not ≥2x cheaper than lease staging (%dns)", cost, leaseCost)
	}
}

// TestSpecValidationAbortsOnWriterBump stages a speculative read, lets a
// writer commit a new version underneath it, and asserts the transaction
// refuses to commit the stale buffer.
func TestSpecValidationAbortsOnWriterBump(t *testing.T) {
	rt, stop := specRig(t, 2, 2, 4)
	defer stop()
	e0 := rt.Executor(0, 0)
	e1 := rt.Executor(1, 1)

	tx0 := e0.newTx()
	if err := tx0.stageRemote(tblAccounts, 1, 1, tblAccounts, 1, false); err != nil {
		t.Fatal(err)
	}
	// Writer on key 1's home node commits a version bump.
	if err := e1.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, 1); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			return lc.Write(tblAccounts, 1, []uint64{555, 0})
		})
	}); err != nil {
		t.Fatal(err)
	}
	err := tx0.Execute(func(lc *Local) error {
		_, err := lc.Read(tblAccounts, 1)
		return err
	})
	if !errors.Is(err, ErrRetry) {
		t.Fatalf("stale speculative read committed: err=%v", err)
	}
	if n := rt.C.Obs.Total(obs.EvSpecValidateFail); n < 1 {
		t.Fatalf("EvSpecValidateFail = %d, want >= 1", n)
	}
}

// TestSpecUpgrade reads a record speculatively and then declares a write on
// it: the record must be re-acquired as an exclusive lock (nothing to CAS
// away — a speculative read holds no lease) and committed normally.
func TestSpecUpgrade(t *testing.T) {
	rt, stop := specRig(t, 2, 1, 4)
	defer stop()
	e := rt.Executor(0, 0)
	err := e.Exec(func(tx *Tx) error {
		if err := tx.R(tblAccounts, 1); err != nil { // remote, speculative
			return err
		}
		if err := tx.W(tblAccounts, 1); err != nil { // upgrade in place
			return err
		}
		return tx.Execute(func(lc *Local) error {
			v, err := lc.Read(tblAccounts, 1)
			if err != nil {
				return err
			}
			return lc.Write(tblAccounts, 1, []uint64{v[0] + 7, v[1]})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rt.C.Node(1).Unordered(tblAccounts).Get(1); v[0] != 1007 {
		t.Fatalf("upgraded write-back = %d, want 1007", v[0])
	}
	// The record must be unlocked after commit.
	host := rt.C.Node(1).Unordered(tblAccounts)
	off, _ := host.LookupLocal(1)
	if host.Arena().LoadWord(off+2) != 0 {
		t.Fatal("record still locked after upgraded commit")
	}
}

// TestROSpecRead covers the read-only spec arm: fetch without a lease,
// confirm via the header re-READ wave.
func TestROSpecRead(t *testing.T) {
	rt, stop := specRig(t, 2, 1, 4)
	defer stop()
	e := rt.Executor(0, 0)
	var got uint64
	if err := e.ExecRO(func(ro *RO) error {
		v, err := ro.Read(tblAccounts, 1) // remote
		if err != nil {
			return err
		}
		got = v[0]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1000 {
		t.Fatalf("RO spec read = %d, want 1000", got)
	}
	if n := rt.C.Obs.Total(obs.EvSpecRead); n != 1 {
		t.Fatalf("EvSpecRead = %d, want 1", n)
	}
	// No lease CAS was spent on the remote record.
	if n := rt.C.Obs.Total(obs.EvLeaseGrant) + rt.C.Obs.Total(obs.EvLeaseShare); n != 0 {
		t.Fatalf("RO spec read took %d leases, want 0", n)
	}
}

// TestSpecStress is the validation-under-fire test: concurrent writers
// transfer between two accounts while speculative readers (both read-write
// and read-only transactions) repeatedly read the pair. Every committed read
// must observe a version-consistent snapshot — the pair sum never deviates —
// and the final balances conserve the total. Run with -race.
func TestSpecStress(t *testing.T) {
	rt, stop := specRig(t, 2, 4, 4)
	defer stop()
	const (
		keyA, keyB = 1, 3 // both on node 1
		total      = 2000
	)
	deadline := time.Now().Add(400 * time.Millisecond)
	var wg sync.WaitGroup
	fail := make(chan string, 16)

	reader := func(node, worker int, ro bool) {
		defer wg.Done()
		e := rt.Executor(node, worker)
		for time.Now().Before(deadline) {
			var a, b uint64
			var err error
			if ro {
				err = e.ExecRO(func(r *RO) error {
					va, err := r.Read(tblAccounts, keyA)
					if err != nil {
						return err
					}
					vb, err := r.Read(tblAccounts, keyB)
					if err != nil {
						return err
					}
					a, b = va[0], vb[0]
					return nil
				})
			} else {
				err = e.Exec(func(tx *Tx) error {
					if err := tx.Stage(
						Access{Table: tblAccounts, Key: keyA, Write: false},
						Access{Table: tblAccounts, Key: keyB, Write: false},
					); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error {
						va, err := lc.Read(tblAccounts, keyA)
						if err != nil {
							return err
						}
						vb, err := lc.Read(tblAccounts, keyB)
						if err != nil {
							return err
						}
						a, b = va[0], vb[0]
						return nil
					})
				})
			}
			if err != nil {
				select {
				case fail <- "reader: " + err.Error():
				default:
				}
				return
			}
			if a+b != total {
				select {
				case fail <- "inconsistent snapshot committed":
				default:
				}
				return
			}
		}
	}
	writer := func(node, worker int, delta uint64) {
		defer wg.Done()
		e := rt.Executor(node, worker)
		for time.Now().Before(deadline) {
			err := e.Exec(func(tx *Tx) error {
				if err := tx.Stage(
					Access{Table: tblAccounts, Key: keyA, Write: true},
					Access{Table: tblAccounts, Key: keyB, Write: true},
				); err != nil {
					return err
				}
				return tx.Execute(func(lc *Local) error {
					va, err := lc.Read(tblAccounts, keyA)
					if err != nil {
						return err
					}
					vb, err := lc.Read(tblAccounts, keyB)
					if err != nil {
						return err
					}
					if err := lc.Write(tblAccounts, keyA, []uint64{va[0] - delta, va[1]}); err != nil {
						return err
					}
					return lc.Write(tblAccounts, keyB, []uint64{vb[0] + delta, vb[1]})
				})
			})
			if err != nil {
				select {
				case fail <- "writer: " + err.Error():
				default:
				}
				return
			}
		}
	}

	wg.Add(5)
	go reader(0, 0, false) // remote speculative RW reader
	go reader(0, 1, true)  // remote speculative RO reader
	go reader(1, 0, false) // local HTM reader (no spec records)
	go writer(1, 1, 1)     // local HTM writer on the records' home
	go writer(0, 2, 2)     // remote locking writer (write-back path)
	wg.Wait()

	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	va, _ := rt.C.Node(1).Unordered(tblAccounts).Get(keyA)
	vb, _ := rt.C.Node(1).Unordered(tblAccounts).Get(keyB)
	if va[0]+vb[0] != total {
		t.Fatalf("conservation violated: %d + %d != %d", va[0], vb[0], total)
	}
	if n := rt.C.Obs.Total(obs.EvSpecRead); n == 0 {
		t.Fatal("stress run exercised no speculative reads")
	}
}
