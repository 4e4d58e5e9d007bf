//go:build !race

package tpcc

import (
	"testing"

	"drtm/internal/cluster"
	"drtm/internal/tx"
)

// TestOrderReserveCoversWarmUp: a driver that caps its measured run at the
// order headroom, ExtraOrdersPerDistrict per district, spends up to as much
// again warming up (the repo benchmark's warm-up is capped at the measured
// run's budget). One warehouse takes 1.6 times the headroom in new-orders —
// more than a quarter's reserve holds — and no order, new-order, order-line or
// order-customer insert finds its table full: a full ORDER shard panics in the
// commit's deferred insert. (Excluded under -race for its 3 200 new-orders.)
func TestOrderReserveCoversWarmUp(t *testing.T) {
	c := cluster.New(cluster.DefaultConfig(1, 1))
	c.Start()
	defer c.Stop()
	cfg := DefaultConfig(1, 1)
	cfg.CustomersPerDist, cfg.Items, cfg.ExtraOrdersPerDistrict = 30, 100, 200
	rt := tx.NewRuntime(c, cfg.Partitioner())
	w, err := Setup(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := w.NewClient(rt.Executor(0, 0), 1, 1)
	n := cfg.ExtraOrdersPerDistrict * cfg.Districts * 8 / 5
	done := 0
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("new-order %d of %d: %v", done+1, n, r)
		}
	}()
	for ; done < n; done++ {
		if err := cl.RunNewOrder(false); err != nil && err != tx.ErrUserAbort {
			t.Fatalf("new-order %d of %d: %v", done+1, n, err)
		}
	}
	if got, want := c.Node(0).Ordered(TableOrder).Len(), cfg.Districts*cfg.InitialOrders+n*9/10; got < want {
		t.Fatalf("ORDER holds %d rows after %d new-orders, want at least %d", got, n, want)
	}
}
