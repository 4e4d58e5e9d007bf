package tx

import (
	"testing"

	"drtm/internal/obs"
)

// TestRegionRetryRestoresWriteBuffers pins the buffered-remote-write
// rollback on HTM region retries. A conflict abort re-runs the region with
// locks held; the HTM side rolls its write set back, and the staged remote
// buffers — mutated in place by lc.Write — must roll back with it.
// Before the fix the retried body read the aborted attempt's value out of
// the dirty buffer and applied its update a second time, so a transaction
// pairing a local write (rolled back) with a remote write (leaked) split
// in two: this is exactly the money-conservation leak the adaptive
// shifting-hotset stress first caught.
func TestRegionRetryRestoresWriteBuffers(t *testing.T) {
	rt, stop := newRig(t, 2, 2, 4, nil)
	defer stop()
	e0 := rt.Executor(0, 0)
	e1 := rt.Executor(1, 0)
	const (
		kLocal  = 2 // homed on node 0: HTM write, rolled back on abort
		kRemote = 1 // homed on node 1: buffered write, must roll back too
	)

	attempts := 0
	err := e0.Exec(func(tx *Tx) error {
		if err := tx.W(tblAccounts, kLocal); err != nil {
			return err
		}
		if err := tx.W(tblAccounts, kRemote); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			attempts++
			// The Figure 6 state-word check puts kLocal's line in the HTM
			// read set before the interference below bumps it.
			w, err := lc.Read(tblAccounts, kLocal)
			if err != nil {
				return err
			}
			v, err := lc.Read(tblAccounts, kRemote)
			if err != nil {
				return err
			}
			// Increment through the buffer: a leaked buffer makes the
			// retry read its own aborted write and increment twice.
			if err := lc.Write(tblAccounts, kRemote, []uint64{v[0] + 1, 0}); err != nil {
				return err
			}
			if attempts == 1 {
				// Force a conflict abort: a concurrent transaction from
				// node 1 write-locks kLocal on this node, bumping the
				// line this region already read.
				if err := e1.Exec(func(tx2 *Tx) error {
					if err := tx2.W(tblAccounts, kLocal); err != nil {
						return err
					}
					return tx2.Execute(func(lc2 *Local) error {
						w2, err := lc2.Read(tblAccounts, kLocal)
						if err != nil {
							return err
						}
						return lc2.Write(tblAccounts, kLocal, []uint64{w2[0] + 100, 0})
					})
				}); err != nil {
					return err
				}
			}
			return lc.Write(tblAccounts, kLocal, []uint64{w[0] + 1, 0})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("interference did not retry the region (attempts = %d)", attempts)
	}

	// Read back through transactions to avoid entry-layout assumptions.
	check := func(key uint64, want uint64) {
		t.Helper()
		var v []uint64
		if err := e0.Exec(func(tx *Tx) error {
			if err := tx.R(tblAccounts, key); err != nil {
				return err
			}
			return tx.Execute(func(lc *Local) error {
				r, err := lc.Read(tblAccounts, key)
				if err != nil {
					return err
				}
				v = append([]uint64(nil), r...)
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		if v[0] != want {
			t.Errorf("key %d = %d, want %d", key, v[0], want)
		}
	}
	// kRemote: exactly one increment despite the retry (1000 + 1).
	check(kRemote, 1001)
	// kLocal: interferer's +100 then our +1 on the retried attempt.
	check(kLocal, 1101)
}

// TestRegionRetryKeepsRemoteInsert pins the other half of the rollback: a
// staged remote WInsert carries its value in the record's buffer and is
// dirty from declare, not from a body write, so a region retry must leave it
// dirty. Before the fix the restore cleared the flag, and the retried commit
// unlocked the staged dead entry without flipping it live while the
// transaction's local write committed — half a transaction.
func TestRegionRetryKeepsRemoteInsert(t *testing.T) {
	rt, stop := newOrderedRig(t, 2, 2, nil)
	defer stop()
	e0 := rt.Executor(0, 0)
	e1 := rt.Executor(1, 0)
	kLocal := orderedKey(0, 1)  // homed on node 0
	kRemote := orderedKey(1, 1) // homed on node 1
	insertOrders(t, e0, 0, []uint64{1})

	attempts := 0
	err := e0.Exec(func(tx *Tx) error {
		if err := tx.WInsert(tblOrders, kRemote, []uint64{77, 7}); err != nil {
			return err
		}
		if err := tx.W(tblOrders, kLocal); err != nil {
			return err
		}
		return tx.Execute(func(lc *Local) error {
			attempts++
			w, err := lc.Read(tblOrders, kLocal)
			if err != nil {
				return err
			}
			if attempts == 1 {
				// Node 1 write-locks and updates kLocal on this node: the line
				// this region already read moves, so the region retries.
				if err := e1.Exec(func(tx2 *Tx) error {
					if err := tx2.W(tblOrders, kLocal); err != nil {
						return err
					}
					return tx2.Execute(func(lc2 *Local) error {
						w2, err := lc2.Read(tblOrders, kLocal)
						if err != nil {
							return err
						}
						return lc2.Write(tblOrders, kLocal, []uint64{w2[0] + 1000, w2[1]})
					})
				}); err != nil {
					return err
				}
			}
			return lc.Write(tblOrders, kLocal, []uint64{w[0] + 1, w[1]})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("interference did not retry the region (attempts = %d)", attempts)
	}
	if v, live := liveOrderedVal(rt, 0, tblOrders, kLocal); !live || v[0] != 1101 {
		t.Errorf("local row = %v (live %v), want [1101 1]", v, live)
	}
	if v, live := liveOrderedVal(rt, 1, tblOrders, kRemote); !live || v[0] != 77 || v[1] != 7 {
		t.Errorf("remote insert lost across the region retry: row = %v, live = %v", v, live)
	}
}

// TestAbortedAttemptRestoresOwnInserts: a body may write to a row its own
// transaction inserts, and the write lands in the insert's value buffer. An
// aborted region attempt must give that buffer back as declared — to the
// region retry and to the software fallback alike, for a local insert (a
// structural op's value) and a remote one (a staged record's buffer). The body
// inserts [1 0], reads it back and writes v[0]+1; its first attempt aborts
// after the write. Anything but [2 0] means the second run read the first
// one's write.
func TestAbortedAttemptRestoresOwnInserts(t *testing.T) {
	for _, home := range []struct {
		name string
		ent  uint64
	}{{"local", 0}, {"remote", 1}} {
		for _, into := range []struct {
			name      string
			threshold int
		}{{"region retry", 8}, {"fallback", 1}} {
			t.Run(home.name+"/"+into.name, func(t *testing.T) {
				rt, e := equivRig(t)
				rt.FallbackThreshold = into.threshold
				key := orderedKey(home.ent, 1)
				runs := 0
				if err := e.Exec(func(tx *Tx) error {
					if err := tx.WInsert(tblOrders, key, []uint64{1, 0}); err != nil {
						return err
					}
					return tx.Execute(func(lc *Local) error {
						v, err := lc.Read(tblOrders, key)
						if err != nil {
							return err
						}
						if err := lc.Write(tblOrders, key, []uint64{v[0] + 1, v[1]}); err != nil {
							return err
						}
						if runs++; runs == 1 {
							lc.htx.Abort(99)
						}
						return nil
					})
				}); err != nil {
					t.Fatal(err)
				}
				if fb := rt.C.Obs.Total(obs.EvFallback); runs != 2 || (fb == 1) != (into.threshold == 1) {
					t.Fatalf("body ran %d times with %d fallbacks", runs, fb)
				}
				if v, live := liveOrderedVal(rt, int(home.ent), tblOrders, key); !live || v[0] != 2 || v[1] != 0 {
					t.Fatalf("committed row = %v (live %v), want [2 0]", v, live)
				}
			})
		}
	}
}
