//go:build !race

package tx

import "testing"

// TestExecAllocSteadyState pins the pooled hot path: once the executor's
// pools are warm, what a committed transaction allocates is the value slices
// that cross the body's boundary (Local.Read's copy of a local record, the
// new value the body builds) — one object measured, local or remote. The HTM
// region, the commit waves and the remote lookup run from recycled scratch.
// The budget is what is measured plus one. Excluded under -race: the detector
// adds shadow allocations.
func TestExecAllocSteadyState(t *testing.T) {
	rt, stop := newRig(t, 2, 1, 20, nil)
	defer stop()
	rt.ReadPolicy = PolicySpeculative
	e := rt.Executor(0, 0)
	for i := 0; i < 16; i++ { // warm the pools
		if err := benchRemoteTxn(e, true); err != nil {
			t.Fatal(err)
		}
		if err := benchLocalTxn(e); err != nil {
			t.Fatal(err)
		}
	}
	local := testing.AllocsPerRun(50, func() {
		if err := benchLocalTxn(e); err != nil {
			t.Fatal(err)
		}
	})
	remote := testing.AllocsPerRun(50, func() {
		if err := benchRemoteTxn(e, true); err != nil {
			t.Fatal(err)
		}
	})
	if local > 2 {
		t.Errorf("local txn allocates %.0f objects, budget 2", local)
	}
	if remote > 2 {
		t.Errorf("remote spec txn allocates %.0f objects, budget 2", remote)
	}

	// The snapshot RO path (one remote + one local chain-resolved read)
	// measured 11 objects/op when introduced — the entry image, the value
	// copies, and the verb round-trip. Budget 15 so a regression that starts
	// allocating per-slot or per-attempt scratch trips the guard.
	rt.ReadPolicy = PolicyMVCC
	for i := 0; i < 16; i++ {
		if err := benchMVCCROTxn(e); err != nil {
			t.Fatal(err)
		}
	}
	mvcc := testing.AllocsPerRun(50, func() {
		if err := benchMVCCROTxn(e); err != nil {
			t.Fatal(err)
		}
	})
	if mvcc > 15 {
		t.Errorf("mvcc RO allocates %.0f objects, budget 15", mvcc)
	}

	// The confirm-wave RO path over ten local and ten remote records allocates
	// the twenty value copies it hands to the body and nothing else: the
	// shell, its index and its staged records are recycled on the executor.
	rt.ReadPolicy = PolicyAdaptive
	for i := 0; i < 16; i++ {
		if err := benchRO20Txn(e); err != nil {
			t.Fatal(err)
		}
	}
	ro20 := testing.AllocsPerRun(50, func() {
		if err := benchRO20Txn(e); err != nil {
			t.Fatal(err)
		}
	})
	if ro20 > 21 {
		t.Errorf("20-record RO allocates %.0f objects, budget 21", ro20)
	}
}
