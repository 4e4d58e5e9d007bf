// kvcache: demonstrates the DrTM-KV memory store on its own — one-sided
// remote GETs against the cluster-chaining hash table, with and without the
// location-based cache (Section 5.3), including incarnation checking after
// a delete invalidates a cached location.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"drtm/internal/htm"
	"drtm/internal/kvs"
	"drtm/internal/obs"
	"drtm/internal/rdma"
	"drtm/internal/vtime"
)

func main() {
	const keys = 50_000

	table := kvs.New(kvs.Config{
		Node: 0, RegionID: 0,
		MainBuckets:     keys / 4,
		IndirectBuckets: keys / 8,
		Capacity:        keys + 64,
		ValueWords:      8, // 64-byte values
	}, htm.NewEngine(htm.Config{}))

	fabric := rdma.NewFabric(2, vtime.DefaultModel(), rdma.AtomicHCA)
	fabric.Register(0, 0, table.Arena())

	fmt.Printf("populating %d keys...\n", keys)
	val := make([]uint64, 8)
	for k := uint64(1); k <= keys; k++ {
		val[0] = k * 7
		if err := table.Insert(k, val); err != nil {
			log.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	sh := obs.NewShard() // the client's tally: its verbs and its cache probes
	lookup := func(cache *kvs.LocationCache, n int) (reads float64, cost float64) {
		var clk vtime.Clock
		qp := fabric.NewQP(1, &clk)
		qp.Obs = sh
		reads0 := sh.Count(obs.EvRDMARead)
		for i := 0; i < n; i++ {
			k := uint64(rng.Intn(keys)) + 1
			e, ok := table.GetRemote(qp, cache, k)
			if !ok || e.Value[0] != k*7 {
				log.Fatalf("GET %d returned %v,%v", k, e, ok)
			}
		}
		return float64(sh.Count(obs.EvRDMARead)-reads0) / float64(n),
			float64(clk.Now().Microseconds()) / float64(n)
	}

	const n = 20_000
	r0, c0 := lookup(nil, n)
	fmt.Printf("no cache:     %.3f RDMA READs/GET, %.2f us/GET modeled\n", r0, c0)

	cache := kvs.NewLocationCache(4 << 20)
	r1, c1 := lookup(cache, n) // cold
	fmt.Printf("cold cache:   %.3f RDMA READs/GET, %.2f us/GET modeled\n", r1, c1)
	r2, c2 := lookup(cache, n) // warm
	fmt.Printf("warm cache:   %.3f RDMA READs/GET, %.2f us/GET modeled\n", r2, c2)
	fmt.Printf("cache hits=%d misses=%d\n", sh.Count(obs.EvCacheHit), sh.Count(obs.EvCacheMiss))

	// Incarnation checking: delete + reuse a key's entry, then read through
	// the stale cached location.
	fmt.Print("incarnation checking after delete/reinsert... ")
	qp := fabric.NewQP(1, nil)
	if _, ok := table.GetRemote(qp, cache, 1); !ok {
		log.Fatal("prefetch failed")
	}
	table.Delete(1)
	val[0] = 999
	if err := table.Insert(keys+1, val); err != nil { // reuses entry memory
		log.Fatal(err)
	}
	if _, ok := table.GetRemote(qp, cache, 1); ok {
		log.Fatal("FAILED: stale read of deleted key succeeded")
	}
	if e, ok := table.GetRemote(qp, cache, keys+1); !ok || e.Value[0] != 999 {
		log.Fatal("FAILED: new key unreadable")
	}
	fmt.Println("ok (stale location detected, cache refreshed)")
}
