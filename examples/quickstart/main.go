// Quickstart: a two-node DrTM deployment running local and distributed
// bank transfers, demonstrating the Start/LocalTX/Commit protocol, the
// read-only transaction scheme, and the runtime statistics.
package main

import (
	"fmt"
	"log"

	"drtm"
)

const accounts = 1 // table ID

func main() {
	// Two logical machines, two worker threads each; accounts are
	// partitioned by key parity.
	db := drtm.MustOpen(drtm.Options{Nodes: 2, WorkersPerNode: 2},
		func(table int, key uint64) int { return int(key) % 2 })
	defer db.Close()

	db.CreateHashTable(accounts, 1024, 1)
	for k := uint64(1); k <= 10; k++ {
		if err := db.Load(accounts, k, []uint64{100}); err != nil {
			log.Fatal(err)
		}
	}

	e := db.Executor(0, 0)

	// A distributed transfer: account 1 lives on node 1 (remote — locked
	// and prefetched with one-sided RDMA in the Start phase), account 2 on
	// node 0 (local — accessed inside the HTM region).
	err := e.Exec(func(t *drtm.Tx) error {
		if err := t.W(accounts, 1); err != nil {
			return err
		}
		if err := t.W(accounts, 2); err != nil {
			return err
		}
		return t.Execute(func(lc *drtm.Local) error {
			from, _ := lc.Read(accounts, 1)
			to, _ := lc.Read(accounts, 2)
			if from[0] < 30 {
				return drtm.ErrUserAbort // insufficient funds: roll back
			}
			if err := lc.Write(accounts, 1, []uint64{from[0] - 30}); err != nil {
				return err
			}
			return lc.Write(accounts, 2, []uint64{to[0] + 30})
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	v1, _ := db.Get(accounts, 1)
	v2, _ := db.Get(accounts, 2)
	fmt.Printf("after transfer: account1=%d account2=%d\n", v1[0], v2[0])

	// A read-only audit over all accounts via the lease-based scheme
	// (Section 4.5): one consistent snapshot, no HTM region.
	var total uint64
	err = e.ExecRO(func(ro *drtm.RO) error {
		total = 0
		for k := uint64(1); k <= 10; k++ {
			v, err := ro.Read(accounts, k)
			if err != nil {
				return err
			}
			total += v[0]
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if total != 1000 {
		log.Fatalf("audit total: %d, want 1000", total)
	}
	fmt.Printf("audit total: %d (expected 1000)\n", total)

	// The full observability snapshot: protocol counters by cause plus
	// phase latency summaries (see the README's Observability section).
	fmt.Print(db.Stats())
	fmt.Printf("worker 0/0 modeled execution time: %v\n", db.WorkerVirtualTime(0, 0))
}
