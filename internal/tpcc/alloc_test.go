//go:build !race

package tpcc

import "testing"

// TestAllocSteadyState pins what the three index-heavy TPC-C transactions
// allocate once the executor's pools are warm. A new-order — eight stock rows
// read and written, eleven deferred inserts into four ordered tables — builds
// every row in the client's scratch and applies its inserts without boxing
// them: what is left is the B+ trees growing, a leaf split or a longer key
// array every few keys (3 objects measured). A delivery allocates its piece
// closures, their slice and the reconnaissance reads of each district, nothing
// per row it rewrites (19 measured over three districts, one of them with an
// order to deliver). A stock-level allocates the scan's result and its set of
// items as they grow, nothing per record it reads (12 measured, for some
// hundred and fifty records). The budgets leave a margin for slice and map
// growth. Excluded under -race: the detector adds shadow allocations.
func TestAllocSteadyState(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	cl := w.NewClient(rt.Executor(0, 0), 1, 1)
	lines := make([]OrderLineInput, 8)
	for i := range lines {
		lines[i] = OrderLineInput{ItemID: 1 + 7*i, SupplyW: 1, Quantity: 1}
	}
	d := 0
	newOrder := func() {
		d = d%w.cfg.Districts + 1
		if _, err := cl.NewOrder(1, d, 1+d, lines); err != nil {
			t.Fatal(err)
		}
	}
	delivery := func() {
		newOrder() // one order to deliver, whichever district's turn it is
		if n, err := cl.Delivery(1, 1, 1); err != nil || n == 0 {
			t.Fatalf("delivery: %d orders, %v", n, err)
		}
	}
	stockLevel := func() {
		if _, err := cl.StockLevel(1, 1, 15); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools, and deliver the initial orders
		delivery()
		stockLevel()
	}
	if n := testing.AllocsPerRun(30, newOrder); n > 5 {
		t.Errorf("new-order allocates %.0f objects, budget 5", n)
	}
	if n := testing.AllocsPerRun(10, delivery); n > 28 {
		t.Errorf("new-order + delivery allocate %.0f objects, budget 28", n)
	}
	if n := testing.AllocsPerRun(10, stockLevel); n > 20 {
		t.Errorf("stock-level allocates %.0f objects, budget 20", n)
	}
}
