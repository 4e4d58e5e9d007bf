//go:build !race

package smallbank

import "testing"

// TestAllocSteadyState pins what the SmallBank bodies allocate once the
// executor's pools are warm: nothing. The row a body writes is the client's
// scratch word (Local.Write copies it), the values it reads are the
// transaction's, and the Start and commit waves run from recycled scratch —
// for a local deposit and for a payment to an account on the other node alike.
// Excluded under -race: the detector adds shadow allocations.
func TestAllocSteadyState(t *testing.T) {
	w, rt, stop := newWorkload(t, 2, 1, nil)
	defer stop()
	cl := w.NewClient(rt.Executor(0, 0), 1)
	deposit := func() {
		if err := cl.DepositChecking(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	payment := func() { // account 201 lives on node 1
		if err := cl.SendPayment(1, 201, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools
		deposit()
		payment()
	}
	if n := testing.AllocsPerRun(50, deposit); n > 0 {
		t.Errorf("local DepositChecking allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(50, payment); n > 0 {
		t.Errorf("distributed SendPayment allocates %.0f objects, want 0", n)
	}
}
