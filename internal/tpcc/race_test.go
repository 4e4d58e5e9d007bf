package tpcc

import (
	"sync"
	"testing"
)

// TestConcurrentDeliveryNoDoubleDelivery: two clients running delivery on
// the same warehouse must never deliver the same order twice — the
// district's next-delivery sequence field arbitrates via HTM conflicts and
// the recon-verify retry.
func TestConcurrentDeliveryNoDoubleDelivery(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 2)
	defer stop()
	node := rt.C.Node(0)
	undelivered := node.Ordered(TableNewOrder).Len()
	if undelivered < 2 {
		t.Fatalf("need >= 2 undelivered orders, have %d", undelivered)
	}

	var wg sync.WaitGroup
	delivered := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := rt.Executor(0, i)
			cl := w.NewClient(e, 1, 1)
			n, err := cl.Delivery(1, i+1, uint64(i+1))
			if err != nil {
				t.Errorf("delivery %d: %v", i, err)
				return
			}
			delivered[i] = n
		}(i)
	}
	wg.Wait()

	total := delivered[0] + delivered[1]
	if node.Ordered(TableNewOrder).Len() != undelivered-total {
		t.Fatalf("NEW-ORDER rows %d != %d - %d (double delivery?)",
			node.Ordered(TableNewOrder).Len(), undelivered, total)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatalf("consistency after concurrent delivery: %v", err)
	}
}

// TestOrderStatusSeesNewOrder: order-status returns the order a new-order
// just created, and keeps working after that order is delivered.
func TestOrderStatusSeesNewOrder(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	oID, err := cl.NewOrder(1, 2, 7, []OrderLineInput{{ItemID: 4, SupplyW: 1, Quantity: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.OrderStatus(1, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != oID {
		t.Fatalf("order-status = %d, want %d", got, oID)
	}
	// Deliver everything in district 2, then order-status must still work.
	for i := 0; i < 20; i++ {
		if n, err := cl.Delivery(1, 3, uint64(100+i)); err != nil {
			t.Fatal(err)
		} else if n == 0 {
			break
		}
	}
	if got, err := cl.OrderStatus(1, 2, 7); err != nil || got != oID {
		t.Fatalf("order-status after delivery = %d,%v", got, err)
	}
}

// TestStockLevelReflectsNewOrders: stock consumed by new-orders shows up in
// the stock-level count.
func TestStockLevelReflectsNewOrders(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	node := rt.C.Node(0)

	// Drive item 1's stock just below 12 with repeated orders.
	for {
		sv, _ := node.Unordered(TableStock).Get(SKey(1, 1))
		if sv[SQuantity] < 12 {
			break
		}
		if _, err := cl.NewOrder(1, 1, 1,
			[]OrderLineInput{{ItemID: 1, SupplyW: 1, Quantity: 9}}); err != nil {
			t.Fatal(err)
		}
	}
	low, err := cl.StockLevel(1, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if low == 0 {
		t.Fatal("stock-level missed the depleted item")
	}
}

// TestPaymentByLastNameEndToEnd exercises the reconnaissance-query path.
func TestPaymentByLastNameEndToEnd(t *testing.T) {
	w, rt, stop := newTPCC(t, 2, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 99)
	for i := 0; i < 40; i++ {
		if err := cl.RunPayment(); err != nil {
			t.Fatalf("payment %d: %v", i, err)
		}
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	// History rows were created (one per payment).
	var hist int
	for n := 0; n < 2; n++ {
		hist += rt.C.Node(n).Unordered(TableHistory).Len()
	}
	if hist != 40 {
		t.Fatalf("history rows = %d, want 40", hist)
	}
}
