package drtm_test

// One testing.B benchmark per table/figure of the paper's evaluation, each
// delegating to the experiment registry at smoke scale and reporting the
// headline modeled metric. Run the full-scale versions with:
//
//	go run ./cmd/drtm-bench -exp all
//
// plus micro-benchmarks of the public API's hot paths (wall-clock).

import (
	"testing"

	"drtm"
	"drtm/internal/bench"
)

// benchExperiment runs a registered experiment once per b.N batch; the
// interesting output is the experiment's own table, so N is forced to 1.
func benchExperiment(b *testing.B, id string) {
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := e.Run(bench.Options{Quick: true, Seed: 42})
		if len(res.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

func BenchmarkTable2ConflictMatrix(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable4LookupReads(b *testing.B)    { benchExperiment(b, "table4") }
func BenchmarkFig10aRDMARead(b *testing.B)       { benchExperiment(b, "fig10a") }
func BenchmarkFig10bKVThroughput(b *testing.B)   { benchExperiment(b, "fig10b") }
func BenchmarkFig10cKVLatency(b *testing.B)      { benchExperiment(b, "fig10c") }
func BenchmarkFig10dCacheSweep(b *testing.B)     { benchExperiment(b, "fig10d") }
func BenchmarkFig11Softtime(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFig12TPCCvsCalvin(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13Threads(b *testing.B)         { benchExperiment(b, "fig13") }
func BenchmarkFig14LogicalNodes(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15SmallBank(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16CrossWarehouse(b *testing.B)  { benchExperiment(b, "fig16") }
func BenchmarkFig17ReadLease(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkTable6Durability(b *testing.B)     { benchExperiment(b, "table6") }
func BenchmarkAblateCache(b *testing.B)          { benchExperiment(b, "ablate-cache") }
func BenchmarkAblateFallbackThresh(b *testing.B) { benchExperiment(b, "ablate-fallback") }
func BenchmarkAblateAtomicityLevel(b *testing.B) { benchExperiment(b, "ablate-atomics") }

// ---- public-API micro-benchmarks (wall clock) ----------------------------

func BenchmarkLocalTxn(b *testing.B) {
	db := drtm.MustOpen(drtm.Options{Nodes: 1, WorkersPerNode: 1},
		func(table int, key uint64) int { return 0 })
	defer db.Close()
	db.CreateHashTable(1, 1024, 1)
	for k := uint64(1); k <= 100; k++ {
		_ = db.Load(1, k, []uint64{0})
	}
	e := db.Executor(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i%100) + 1
		err := e.Exec(func(tx *drtm.Tx) error {
			if err := tx.W(1, k); err != nil {
				return err
			}
			return tx.Execute(func(lc *drtm.Local) error {
				v, _ := lc.Read(1, k)
				return lc.Write(1, k, []uint64{v[0] + 1})
			})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedTxn(b *testing.B) {
	db := drtm.MustOpen(drtm.Options{Nodes: 2, WorkersPerNode: 1},
		func(table int, key uint64) int { return int(key) % 2 })
	defer db.Close()
	db.CreateHashTable(1, 1024, 1)
	for k := uint64(1); k <= 100; k++ {
		_ = db.Load(1, k, []uint64{0})
	}
	e := db.Executor(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local := uint64((i%50)*2+2) - 0 // even: node 0
		remote := uint64((i%50)*2) + 1  // odd: node 1
		err := e.Exec(func(tx *drtm.Tx) error {
			if err := tx.W(1, remote); err != nil {
				return err
			}
			if err := tx.W(1, local); err != nil {
				return err
			}
			return tx.Execute(func(lc *drtm.Local) error {
				v, _ := lc.Read(1, remote)
				if err := lc.Write(1, remote, []uint64{v[0] + 1}); err != nil {
					return err
				}
				w, _ := lc.Read(1, local)
				return lc.Write(1, local, []uint64{w[0] + 1})
			})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadOnlyTxn20Records(b *testing.B) {
	db := drtm.MustOpen(drtm.Options{Nodes: 2, WorkersPerNode: 1},
		func(table int, key uint64) int { return int(key) % 2 })
	defer db.Close()
	db.CreateHashTable(1, 1024, 1)
	for k := uint64(1); k <= 100; k++ {
		_ = db.Load(1, k, []uint64{0})
	}
	e := db.Executor(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := e.ExecRO(func(ro *drtm.RO) error {
			for k := uint64(1); k <= 20; k++ {
				if _, err := ro.Read(1, k); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
