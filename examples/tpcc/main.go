// TPC-C example: runs the standard five-transaction mix on a small DrTM
// cluster, reports modeled throughput, and verifies the TPC-C consistency
// conditions afterwards.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"drtm/internal/cluster"
	"drtm/internal/tpcc"
	"drtm/internal/tx"
)

func main() {
	const (
		nodes         = 2
		workers       = 4
		txnsPerWorker = 400
	)
	ccfg := cluster.DefaultConfig(nodes, workers)
	ccfg.LeaseMicros = 5_000
	ccfg.ROLeaseMicros = 10_000
	c := cluster.New(ccfg)
	c.Start()
	defer c.Stop()

	tcfg := tpcc.DefaultConfig(nodes, workers) // one warehouse per worker
	tcfg.CustomersPerDist = 100
	tcfg.ExtraOrdersPerDistrict = txnsPerWorker*workers/tcfg.Districts + 64
	rt := tx.NewRuntime(c, tcfg.Partitioner())

	fmt.Printf("populating %d warehouses (%d districts, %d customers/district, %d items)...\n",
		tcfg.Warehouses(), tcfg.Districts, tcfg.CustomersPerDist, tcfg.Items)
	w, err := tpcc.Setup(rt, tcfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running the standard mix: %d workers x %d transactions...\n",
		nodes*workers, txnsPerWorker)
	var mu sync.Mutex
	var newOrder, total int64
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func(n, k int) {
				defer wg.Done()
				home := n*workers + k + 1
				cl := w.NewClient(rt.Executor(n, k), home, int64(n*100+k))
				for i := 0; i < txnsPerWorker; i++ {
					if _, err := cl.RunOne(); err != nil {
						log.Fatalf("txn failed: %v", err)
					}
				}
				mu.Lock()
				newOrder += cl.NewOrderCount()
				total += cl.TotalCount()
				mu.Unlock()
			}(n, k)
		}
	}
	wg.Wait()

	var maxV time.Duration
	for _, wk := range c.Workers() {
		if t := wk.VClock.Now(); t > maxV {
			maxV = t
		}
	}
	fmt.Printf("committed: %d new-order, %d total\n", newOrder, total)
	fmt.Printf("modeled throughput: %.0f new-order/s, %.0f standard-mix/s\n",
		float64(newOrder)/maxV.Seconds(), float64(total)/maxV.Seconds())

	st := c.Obs.Snapshot()
	fmt.Printf("htm aborts=%d, whole-txn retries=%d, fallbacks=%d, RO commits=%d\n",
		st.Count("htm.abort"), st.Count("tx.retry"), st.Count("tx.fallback"), st.Count("ro.commit"))

	fmt.Print("checking TPC-C consistency conditions... ")
	if err := w.CheckConsistency(); err != nil {
		log.Fatalf("FAILED: %v", err)
	}
	fmt.Println("ok")
}
