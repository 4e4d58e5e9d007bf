//go:build !race

package tpcc

import (
	"testing"

	"drtm/internal/tx"
)

// TestAllocSteadyState pins what the five TPC-C transactions allocate once
// the executor's pools and the client's scratch are warm: nothing but the B+
// tree leaves a new-order's inserts split. A payment, an order-status, a
// stock-level and a delivery — whose deferred ops only delete, so no index
// splits — allocate nothing. A new-order's four ordered inserts go to the
// ascending ends of their indexes, where a leaf splits once every
// degree/2 keys: a fraction of an object per transaction. Excluded under
// -race: the detector adds shadow allocations.
func TestAllocSteadyState(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	cl := w.NewClient(rt.Executor(0, 0), 1, 1)
	lines := make([]OrderLineInput, 8)
	for i := range lines {
		lines[i] = OrderLineInput{ItemID: 1 + 7*i, SupplyW: 1, Quantity: 1}
	}
	d := 0
	newOrder := func() { // round robin over the districts
		d = d%w.cfg.Districts + 1
		if _, err := cl.NewOrder(1, d, 1+d, lines); err != nil {
			t.Fatal(err)
		}
	}
	delivered := 0
	delivery := func() {
		n, err := cl.Delivery(1, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		delivered = n
	}
	var hSeq uint64
	payment := func() {
		hSeq++
		if err := cl.Payment(1, 2, 1, 2, 3, 100, hSeq); err != nil {
			t.Fatal(err)
		}
	}
	orderStatus := func() {
		if _, err := cl.OrderStatus(1, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	stockLevel := func() {
		if _, err := cl.StockLevel(1, 1, 15); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools, and deliver the initial orders
		newOrder()
		delivery()
		payment()
		orderStatus()
		stockLevel()
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{{"payment", payment}, {"order-status", orderStatus}, {"stock-level", stockLevel}} {
		if n := testing.AllocsPerRun(30, c.fn); n != 0 {
			t.Errorf("%s allocates %.0f objects, want 0", c.name, n)
		}
	}
	if n := testing.AllocsPerRun(30, func() {
		if err := cl.RunNewOrder(false); err != nil && err != tx.ErrUserAbort {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("new-order allocates %.0f objects, budget 1 (leaf splits)", n)
	}
	for i := 0; i < 3*w.cfg.Districts; i++ {
		newOrder() // every district has three orders to deliver
	}
	if n := testing.AllocsPerRun(2, func() {
		delivery()
		if delivered != w.cfg.Districts {
			t.Fatalf("delivery delivered %d orders, want one per district", delivered)
		}
	}); n != 0 {
		t.Errorf("delivery allocates %.0f objects, want 0", n)
	}
}
