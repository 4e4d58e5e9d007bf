// Recovery example: durable transactions, a fail-stop crash under live
// traffic, and the full Section 4.6 failure path — no oracle anywhere.
// Survivors notice the crashed node's membership lease has expired,
// confirm the death by probing, elect a recovery coordinator with RDMA
// CAS, replay the NVRAM logs (committed transactions are redone from the
// write-ahead log), free every lock the crashed machine holds (its state
// words name it), and revive the node — while the other nodes keep committing. The balance
// invariant survives it all.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"drtm"
)

const accounts = 1

func main() {
	const nodes, workers, keys = 3, 2, 60
	db := drtm.MustOpen(drtm.Options{
		Nodes: nodes, WorkersPerNode: workers,
		Durability:       true,
		FailureDetection: true, // lease-based membership + auto recovery
	}, func(table int, key uint64) int { return int(key) % nodes })
	defer db.Close()

	db.CreateHashTable(accounts, 1024, 1)
	for k := uint64(1); k <= keys; k++ {
		if err := db.Load(accounts, k, []uint64{1000}); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("running durable transfers on all nodes...")
	var (
		stop sync.WaitGroup
		done atomic.Bool
	)
	for n := 0; n < nodes; n++ {
		for w := 0; w < workers; w++ {
			stop.Add(1)
			go func(n, w int) {
				defer stop.Done()
				e := db.Executor(n, w)
				for i := 0; !done.Load(); i++ {
					if !db.C.Node(n).Alive() {
						// Fail-stop: a crashed machine runs nothing until the
						// recovery coordinator revives it.
						time.Sleep(200 * time.Microsecond)
						continue
					}
					from := uint64((n*17+w*5+i)%keys) + 1
					to := uint64((n*29+w*3+i*7)%keys) + 1
					if from == to {
						continue
					}
					err := e.Exec(func(t *drtm.Tx) error {
						if err := t.W(accounts, from); err != nil {
							return err
						}
						if err := t.W(accounts, to); err != nil {
							return err
						}
						return t.Execute(func(lc *drtm.Local) error {
							f, _ := lc.Read(accounts, from)
							g, _ := lc.Read(accounts, to)
							if f[0] < 5 {
								return nil
							}
							if err := lc.Write(accounts, from, []uint64{f[0] - 5}); err != nil {
								return err
							}
							return lc.Write(accounts, to, []uint64{g[0] + 5})
						})
					})
					// ErrNodeDown is the expected abort while a peer is dead.
					if err != nil && !errors.Is(err, drtm.ErrNodeDown) {
						log.Fatalf("transfer: %v", err)
					}
				}
			}(n, w)
		}
	}

	time.Sleep(20 * time.Millisecond)
	fmt.Println("crashing node 1 (fail-stop; NVRAM logs survive)...")
	db.Crash(1)

	fmt.Print("waiting for survivors to detect, recover and revive it... ")
	deadline := time.Now().Add(10 * time.Second)
	for !db.C.Node(1).Alive() {
		if time.Now().After(deadline) {
			log.Fatal("node 1 was never revived")
		}
		time.Sleep(time.Millisecond)
	}
	fmt.Println("back online")

	time.Sleep(20 * time.Millisecond) // post-revival traffic on all nodes
	done.Store(true)
	stop.Wait()

	st := db.Stats()
	fmt.Printf("counters: detections=%d recoveries=%d recovery-time=%v\n",
		st.Count("fault.detect"), st.Count("recovery.run"), time.Duration(st.Count("recovery.ns")))
	fmt.Printf("          verb-faults=%d node-down-aborts=%d log-records=%d recovery-redos=%d recovery-unlocks=%d\n",
		st.Count("fault.verb"), st.Count("tx.node_down"), st.Count("nvram.log_record"), st.Count("recovery.redo"), st.Count("recovery.unlock"))

	fmt.Print("verifying conservation after recovery... ")
	var total uint64
	for k := uint64(1); k <= keys; k++ {
		v, ok := db.Get(accounts, k)
		if !ok {
			log.Fatalf("key %d lost", k)
		}
		total += v[0]
	}
	if total != keys*1000 {
		log.Fatalf("FAILED: total=%d want=%d", total, keys*1000)
	}
	fmt.Printf("ok (total=%d)\n", total)
}
