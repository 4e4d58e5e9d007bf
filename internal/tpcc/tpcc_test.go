package tpcc

import (
	"slices"
	"sync"
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/tx"
)

func testCfg(nodes, wPerNode int) Config {
	cfg := DefaultConfig(nodes, wPerNode)
	cfg.Districts = 3
	cfg.CustomersPerDist = 30
	cfg.Items = 100
	cfg.InitialOrders = 9
	cfg.ExtraOrdersPerDistrict = 500
	return cfg
}

func newTPCC(t testing.TB, nodes, wPerNode, workers int) (*Workload, *tx.Runtime, func()) {
	t.Helper()
	ccfg := cluster.DefaultConfig(nodes, workers)
	ccfg.LeaseMicros = 5_000
	ccfg.ROLeaseMicros = 10_000
	c := cluster.New(ccfg)
	c.Start()
	cfg := testCfg(nodes, wPerNode)
	rt := tx.NewRuntime(c, cfg.Partitioner())
	w, err := Setup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every test that uses the rig ends in the quiescence audit: no lock
	// leaked, no logged write owed.
	return w, rt, func() {
		if err := rt.AuditQuiescent(); err != nil {
			t.Error(err)
		}
		c.Stop()
	}
}

func TestKeyEncodings(t *testing.T) {
	cfg := testCfg(2, 2)
	cases := []struct {
		table int
		key   uint64
		want  int // warehouse
	}{
		{TableWarehouse, WKey(3), 3},
		{TableDistrict, DKey(3, 7), 3},
		{TableCustomer, CKey(4, 10, 2999), 4},
		{TableStock, SKey(4, 99999), 4},
		{TableOrder, OKey(3, 10, 1<<20), 3},
		{TableOrderLine, OLKey(3, 10, 1<<20, 15), 3},
		{TableOrderCust, OCKey(4, 9, 2999, 1<<20), 4},
		{TableHistory, HKey(2, 1, 7, 123), 2},
	}
	for _, c := range cases {
		if got := warehouseOfKey(c.table, c.key); got != c.want {
			t.Errorf("warehouseOfKey(%d, %x) = %d, want %d", c.table, c.key, got, c.want)
		}
	}
	if cfg.Partitioner()(TableItem, 5) != -1 {
		t.Error("ITEM must be replicated (partition -1)")
	}
	if cfg.Partitioner()(TableWarehouse, WKey(3)) != 1 {
		t.Error("warehouse 3 should live on node 1 with 2 per node")
	}
}

func TestSetupConsistent(t *testing.T) {
	w, _, stop := newTPCC(t, 2, 1, 1)
	defer stop()
	if err := w.CheckConsistency(); err != nil {
		t.Fatalf("fresh database inconsistent: %v", err)
	}
}

func TestNewOrderBasic(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	lines := []OrderLineInput{{ItemID: 1, SupplyW: 1, Quantity: 3}, {ItemID: 2, SupplyW: 1, Quantity: 1}}
	oID, err := cl.NewOrder(1, 1, 1, lines)
	if err != nil {
		t.Fatal(err)
	}
	node := rt.C.Node(0)
	ov, ok := node.Ordered(TableOrder).Get(OKey(1, 1, oID))
	if !ok || ov[OCID] != 1 || ov[OOlCnt] != 2 || ov[OAllLocal] != 1 {
		t.Fatalf("order = %v,%v", ov, ok)
	}
	if _, ok := node.Ordered(TableNewOrder).Get(OKey(1, 1, oID)); !ok {
		t.Fatal("NEW-ORDER row missing")
	}
	olv, ok := node.Ordered(TableOrderLine).Get(OLKey(1, 1, oID, 1))
	if !ok || olv[OLIID] != 1 || olv[OLQuantity] != 3 {
		t.Fatalf("order line = %v,%v", olv, ok)
	}
	// Stock decremented.
	sv, _ := node.Unordered(TableStock).Get(SKey(1, 1))
	if sv[SYtd] != 3 || sv[SOrderCnt] != 1 {
		t.Fatalf("stock = %v", sv)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestNewOrderCrossWarehouse(t *testing.T) {
	w, rt, stop := newTPCC(t, 2, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	// Supply from warehouse 2 (node 1): a distributed transaction.
	lines := []OrderLineInput{{ItemID: 1, SupplyW: 2, Quantity: 5}}
	if _, err := cl.NewOrder(1, 1, 1, lines); err != nil {
		t.Fatal(err)
	}
	sv, _ := rt.C.Node(1).Unordered(TableStock).Get(SKey(2, 1))
	if sv[SRemoteCnt] != 1 || sv[SYtd] != 5 {
		t.Fatalf("remote stock = %v", sv)
	}
}

func TestNewOrderInvalidItemRollsBack(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	node := rt.C.Node(0)
	dBefore, _ := node.Unordered(TableDistrict).Get(DKey(1, 1))
	lines := []OrderLineInput{
		{ItemID: 1, SupplyW: 1, Quantity: 1},
		{ItemID: w.cfg.Items + 1, SupplyW: 1, Quantity: 1}, // unused item
	}
	_, err := cl.NewOrder(1, 1, 1, lines)
	if err != tx.ErrUserAbort {
		t.Fatalf("err = %v, want ErrUserAbort", err)
	}
	dAfter, _ := node.Unordered(TableDistrict).Get(DKey(1, 1))
	if dAfter[DNextOID] != dBefore[DNextOID] {
		t.Fatal("rolled-back new-order advanced next_o_id")
	}
	sv, _ := node.Unordered(TableStock).Get(SKey(1, 1))
	if sv[SOrderCnt] != 0 {
		t.Fatal("rolled-back new-order touched stock")
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestPaymentLocalAndRemote(t *testing.T) {
	w, rt, stop := newTPCC(t, 2, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	// Local customer.
	if err := cl.Payment(1, 1, 1, 1, 1, 1000, 1); err != nil {
		t.Fatal(err)
	}
	// Remote customer (warehouse 2 lives on node 1).
	if err := cl.Payment(1, 1, 2, 1, 1, 500, 2); err != nil {
		t.Fatal(err)
	}
	wv, _ := rt.C.Node(0).Unordered(TableWarehouse).Get(WKey(1))
	if wv[WYtd] != 1500 {
		t.Fatalf("w_ytd = %d", wv[WYtd])
	}
	cv, _ := rt.C.Node(1).Unordered(TableCustomer).Get(CKey(2, 1, 1))
	if u2i(cv[CBalance]) != -500 || cv[CYtdPayment] != 500 || cv[CPaymentCnt] != 1 {
		t.Fatalf("remote customer = %v", cv)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if w.TotalPayments() != 1500 {
		t.Fatalf("TotalPayments = %d", w.TotalPayments())
	}
}

func TestOrderStatus(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	// Create an order for customer 5 so the latest is well-defined.
	oID, err := cl.NewOrder(1, 1, 5, []OrderLineInput{{ItemID: 3, SupplyW: 1, Quantity: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.OrderStatus(1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != oID {
		t.Fatalf("latest order = %d, want %d", got, oID)
	}
}

func TestDeliveryDrainsNewOrders(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	node := rt.C.Node(0)
	undelivered := node.Ordered(TableNewOrder).Len()
	if undelivered == 0 {
		t.Fatal("setup produced no undelivered orders")
	}
	n, err := cl.Delivery(1, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != w.cfg.Districts {
		t.Fatalf("delivered %d, want %d (one per district)", n, w.cfg.Districts)
	}
	if node.Ordered(TableNewOrder).Len() != undelivered-n {
		t.Fatalf("NEW-ORDER rows = %d, want %d",
			node.Ordered(TableNewOrder).Len(), undelivered-n)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestStockLevel(t *testing.T) {
	w, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	cl := w.NewClient(e, 1, 1)
	low, err := cl.StockLevel(1, 1, 200) // threshold above max: all low
	if err != nil {
		t.Fatal(err)
	}
	if low == 0 {
		t.Fatal("no items counted; order lines not scanned?")
	}
	none, err := cl.StockLevel(1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if none != 0 {
		t.Fatalf("threshold 0 counted %d items", none)
	}
}

// lowStockRecount is StockLevel the slow way: every line of the district's
// last 20 orders read by key, the distinct items collected in a map, and each
// one's stock read outside any transaction.
func lowStockRecount(t *testing.T, w *Workload, wID, d int, threshold uint64) int {
	t.Helper()
	node := w.rt.C.Node(w.cfg.NodeOfWarehouse(wID))
	dv, _ := node.Unordered(TableDistrict).Get(DKey(wID, d))
	next := int(dv[DNextOID])
	items := map[int]bool{}
	for o := max(next-20, 1); o < next; o++ {
		ov, ok := node.Ordered(TableOrder).Get(OKey(wID, d, o))
		if !ok {
			t.Fatalf("order %d missing", o)
		}
		for ol := 1; ol <= int(ov[OOlCnt]); ol++ {
			olv, ok := node.Ordered(TableOrderLine).Get(OLKey(wID, d, o, ol))
			if !ok {
				t.Fatalf("order line %d/%d missing", o, ol)
			}
			items[int(olv[OLIID])] = true
		}
	}
	low := 0
	for iID := range items {
		if sv, _ := node.Unordered(TableStock).Get(SKey(wID, iID)); sv[SQuantity] < threshold {
			low++
		}
	}
	return low
}

// TestStockLevelDeterministic runs the same seeded mix on two clients of two
// identical databases: after every transaction StockLevel's count equals the
// brute-force recount, and the two clients have read the same stock rows in
// the same, ascending item order.
func TestStockLevelDeterministic(t *testing.T) {
	wa, rta, stopA := newTPCC(t, 1, 1, 1)
	defer stopA()
	wb, rtb, stopB := newTPCC(t, 1, 1, 1)
	defer stopB()
	a := wa.NewClient(rta.Executor(0, 0), 1, 5)
	b := wb.NewClient(rtb.Executor(0, 0), 1, 5)
	levels := 0
	for i := 0; i < 300; i++ {
		ta, errA := a.RunOne()
		tb, errB := b.RunOne()
		if errA != nil || errB != nil || ta != tb {
			t.Fatalf("txn %d: %v (%v) vs %v (%v)", i, ta, errA, tb, errB)
		}
		if ta != TxnStockLevel {
			continue
		}
		levels++
		if !slices.Equal(a.items, b.items) {
			t.Fatalf("txn %d: same seed, different stock reads:\n%v\n%v", i, a.items, b.items)
		}
		for j := 1; j < len(a.items); j++ {
			if a.items[j] <= a.items[j-1] {
				t.Fatalf("txn %d: stock reads not strictly ascending: %v", i, a.items)
			}
		}
		d := 1 + i%wa.cfg.Districts
		for _, threshold := range []uint64{10, 15, 20, 200} {
			low, err := a.StockLevel(1, d, threshold)
			if err != nil {
				t.Fatal(err)
			}
			if want := lowStockRecount(t, wa, 1, d, threshold); low != want {
				t.Fatalf("txn %d: district %d below %d: StockLevel %d, recount %d", i, d, threshold, low, want)
			}
		}
	}
	if levels == 0 {
		t.Fatal("the mix ran no stock-level")
	}
}

// TestMixedConcurrent runs the full mix on multiple nodes/workers and then
// checks every consistency condition.
func TestMixedConcurrent(t *testing.T) {
	const nodes, wPer, workers = 2, 1, 2
	w, rt, stop := newTPCC(t, nodes, wPer, workers)
	defer stop()

	var wg sync.WaitGroup
	errs := make(chan error, nodes*workers)
	for n := 0; n < nodes; n++ {
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(n, k int) {
				defer wg.Done()
				home := n*wPer + (k % wPer) + 1
				cl := w.NewClient(rt.Executor(n, k), home, int64(n*100+k))
				for i := 0; i < 120; i++ {
					if _, err := cl.RunOne(); err != nil {
						errs <- err
						return
					}
				}
			}(n, k)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("mix: %v", err)
	}
	if err := w.CheckConsistency(); err != nil {
		t.Fatalf("post-run consistency: %v", err)
	}
}

func TestLookupByLastName(t *testing.T) {
	w, rt, stop := newTPCC(t, 2, 1, 1)
	defer stop()
	e := rt.Executor(0, 0)
	c, ok := w.LookupByLastName(e, 1, 1, 5)
	if !ok || c%lastNameBuckets != 5 {
		t.Fatalf("lookup = %d,%v", c, ok)
	}
	// Remote lookup charges verbs time.
	before := e.Worker().VClock.Now()
	if _, ok := w.LookupByLastName(e, 2, 1, 5); !ok {
		t.Fatal("remote lookup failed")
	}
	if e.Worker().VClock.Now() == before {
		t.Fatal("remote last-name lookup cost nothing")
	}
}

// TestHistoryHoldsItsCapacity: HISTORY's bucket pools must take as many rows
// as its entry pool does — a payment's deferred insert has no way to fail.
func TestHistoryHoldsItsCapacity(t *testing.T) {
	_, rt, stop := newTPCC(t, 1, 1, 1)
	defer stop()
	h := rt.C.Node(0).Unordered(TableHistory)
	val := make([]uint64, HValueWords)
	n := testCfg(1, 1).historyRows()
	for seq := 0; seq < n; seq++ {
		if err := h.Insert(HKey(1, 0, 0, uint64(seq)), val); err != nil {
			t.Fatalf("row %d of %d: %v", seq+1, n, err)
		}
	}
}
