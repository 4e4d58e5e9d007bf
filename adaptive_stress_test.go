package drtm_test

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"drtm"
)

// TestAdaptiveShiftingHotset is PolicyAdaptive's race/consistency stress:
// concurrent transfer and audit traffic over a Zipf hotset that jumps to a
// different key range mid-run. The total money must be conserved throughout,
// whatever mix of spec validation failures, lease conflicts, escalated
// (leased) attempts and whole-transaction retries the traffic provokes. Run
// under -race via `make race`.
func TestAdaptiveShiftingHotset(t *testing.T) {
	const (
		nodes    = 2
		workers  = 2
		accounts = 512 // keys 1..512, hot windows [1,64] then [257,320]
		balance  = 1000
		phaseTxn = 300
		tblBank  = 7
	)
	db := drtm.MustOpen(drtm.Options{
		Nodes: nodes, WorkersPerNode: workers,
		ReadPolicy: drtm.PolicyAdaptive,
	}, func(table int, key uint64) int { return int(key) % nodes })
	defer db.Close()
	db.CreateHashTable(tblBank, 2048, 1)
	for k := uint64(1); k <= accounts; k++ {
		if err := db.Load(tblBank, k, []uint64{balance}); err != nil {
			t.Fatal(err)
		}
	}

	for phase := 0; phase < 2; phase++ {
		hotBase := uint64(phase * 256) // the hotset jumps 256 keys at half-time
		var wg sync.WaitGroup
		for n := 0; n < nodes; n++ {
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(n, w int) {
					defer wg.Done()
					e := db.Executor(n, w)
					rng := rand.New(rand.NewSource(int64(phase*100+n*workers+w) + 1))
					z := rand.NewZipf(rng, 1.3, 1, 63)
					hotKey := func() uint64 { return hotBase + 1 + z.Uint64() }
					anyKey := func() uint64 { return 1 + uint64(rng.Intn(accounts)) }
					for i := 0; i < phaseTxn; i++ {
						var src, dst uint64
						for src, dst = hotKey(), anyKey(); dst == src; dst = anyKey() {
						}
						// Audit keys: one from the hot window (spec reads
						// here conflict with the transfers), one uniform.
						audit := [2]uint64{hotKey(), anyKey()}
						err := e.Exec(func(tx *drtm.Tx) error {
							if err := tx.W(tblBank, src); err != nil {
								return err
							}
							if err := tx.W(tblBank, dst); err != nil {
								return err
							}
							for _, k := range audit {
								if k == src || k == dst {
									continue
								}
								if err := tx.R(tblBank, k); err != nil {
									return err
								}
							}
							return tx.Execute(func(lc *drtm.Local) error {
								s, err := lc.Read(tblBank, src)
								if err != nil {
									return err
								}
								d, err := lc.Read(tblBank, dst)
								if err != nil {
									return err
								}
								for _, k := range audit {
									if k == src || k == dst {
										continue
									}
									if _, err := lc.Read(tblBank, k); err != nil {
										return err
									}
								}
								if s[0] == 0 {
									return nil // broke account: transfer nothing
								}
								if err := lc.Write(tblBank, src, []uint64{s[0] - 1}); err != nil {
									return err
								}
								return lc.Write(tblBank, dst, []uint64{d[0] + 1})
							})
						})
						// Retry-budget exhaustion aborts cleanly; anything
						// else is a bug.
						if err != nil && !errors.Is(err, drtm.ErrRetry) {
							t.Error(err)
							return
						}
					}
				}(n, w)
			}
		}
		wg.Wait()
	}

	// Conservation: committed transfers move money, aborted ones must not.
	var total uint64
	for k := uint64(1); k <= accounts; k++ {
		v, ok := db.Get(tblBank, k)
		if !ok {
			t.Fatalf("account %d vanished", k)
		}
		total += v[0]
	}
	if total != accounts*balance {
		t.Fatalf("conservation broken: total = %d, want %d", total, accounts*balance)
	}

	if s := db.Stats(); s.Count("adapt.route_spec") == 0 {
		t.Fatalf("no read was routed adaptively: %+v", s)
	}
}
