package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"drtm/internal/obs"
	"drtm/internal/tx"
	"drtm/internal/vtime"
)

// The `occ` experiment compares DrTM's two read-set protocols head to head,
// reproducing the central trade of Wang et al.'s RDMA concurrency-control
// framework (PAPERS.md):
//
//	lease — every remote read takes a shared lock with an RDMA CAS
//	        (~14.5µs modeled) before fetching the value.
//	spec  — PolicySpeculative: one versioned READ per record
//	        (~1.5µs), re-validated at commit time by a doorbell-batched
//	        header re-READ wave; any version bump retries the transaction.
//
// Part one is uncontended: one worker staging an all-remote read set, where
// the arms differ only by the CAS tax. Part two sweeps write ratio × Zipf
// skew with concurrent workers on both nodes, exposing the crossover: the
// spec arm's Start phase stays cheap, but its validation aborts climb with
// write contention until retries eat the saving — the lease arm pays up
// front and keeps its abort rate flat.
func runOCC(o Options) *Result {
	res := &Result{
		ID:    "occ",
		Title: "Speculative (OCC) reads vs lease locks: cost and crossover",
		Headers: []string{"theta", "write%", "arm", "start/txn", "per-rec",
			"retries/txn", "spec-fails/txn", "vs lease"},
	}
	txns := 300
	if o.Quick {
		txns = 80
	}
	model := vtime.DefaultModel()

	// ---- uncontended Start-phase cost (write ratio 0, no skew) ------------
	const nrec = 8
	var leaseCost float64
	for _, spec := range []bool{false, true} {
		m := measureOCCCost(o, txns, nrec, spec)
		ratio := "1.00x"
		if !spec {
			leaseCost = m.lockNS
		} else {
			ratio = fmt.Sprintf("%.2fx", m.lockNS/leaseCost)
		}
		res.AddRow("-", "0", armName(spec),
			fmt.Sprintf("%.1fus", m.lockNS/1e3),
			fmt.Sprintf("%.2fus", m.lockNS/float64(nrec)/1e3),
			fmt.Sprintf("%.3f", m.retriesPerTx),
			fmt.Sprintf("%.3f", m.specFailsPerTx), ratio)
	}

	// ---- contention sweep: write ratio x skew, concurrent workers ---------
	for _, theta := range []float64{0.20, 0.99} {
		for _, writePct := range []int{0, 25, 75} {
			var leaseStart float64
			for _, spec := range []bool{false, true} {
				m := measureOCC(o, txns, theta, writePct, spec)
				ratio := "1.00x"
				if !spec {
					leaseStart = m.lockNS
				} else if leaseStart > 0 {
					ratio = fmt.Sprintf("%.2fx", m.lockNS/leaseStart)
				}
				res.AddRow(fmt.Sprintf("%.2f", theta), fmt.Sprintf("%d", writePct),
					armName(spec),
					fmt.Sprintf("%.1fus", m.lockNS/1e3),
					"-",
					fmt.Sprintf("%.3f", m.retriesPerTx),
					fmt.Sprintf("%.3f", m.specFailsPerTx), ratio)
			}
		}
	}
	res.Note("lease arm: lookup READ + %dns CAS + prefetch READ per read record;", model.RDMACASNS)
	res.Note("spec arm: lookup READ + one %dns versioned READ, validated at commit by a", model.RDMAReadBaseNS)
	res.Note("batched header re-READ wave — version bumps and live locks retry the txn.")
	res.Note("The crossover: spec start cost stays flat while retries climb with write%%.")
	return res
}

func armName(spec bool) string {
	if spec {
		return "spec"
	}
	return "lease"
}

// occMetrics summarizes one measured configuration.
type occMetrics struct {
	lockNS         float64 // PhaseLockRemote mean per Start phase
	commits        int64
	retriesPerTx   float64 // whole-txn retries per commit
	specFailsPerTx float64 // commit-time validation failures per commit
	specReads      int64
}

// measureOCCCost is the uncontended arm comparison: one worker, an
// all-remote read set of n fresh records per transaction, location cache
// off so both arms pay the same lookup READs.
func measureOCCCost(o Options, txns, n int, spec bool) occMetrics {
	const perNode = 8192
	rt, stop := buildMicro(2, 1, perNode, nil, func(rt *tx.Runtime) {
		rt.ReadPolicy = tx.PolicyLease
		if spec {
			rt.ReadPolicy = tx.PolicySpeculative
		}
		rt.CacheBudgetBytes = 0
	})
	defer stop()
	resetClocks(rt)
	e := rt.Executor(0, 0)
	before := rt.C.Obs.Snapshot()

	next := uint64(perNode) // keys perNode+1..2*perNode are homed on node 1
	accs := make([]tx.Access, n)
	for t := 0; t < txns; t++ {
		for j := range accs {
			next = next%uint64(2*perNode) + 1
			if next <= perNode {
				next = perNode + 1
			}
			accs[j] = tx.Access{Table: benchTable, Key: next}
		}
		err := e.Exec(func(t1 *tx.Tx) error {
			if err := t1.Stage(accs...); err != nil {
				return err
			}
			return t1.Execute(func(lc *tx.Local) error {
				for _, a := range accs {
					if _, err := lc.Read(benchTable, a.Key); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			panic(err)
		}
	}
	return occSnapshot(rt, before)
}

// measureOCC is the contended sweep: two workers per node, every access
// targeting the peer node, keys zipfian with the given theta, each access a
// write with probability writePct/100, with a 20 µs real-time pause between
// the Start phase and the HTM region. Hot keys collide across workers, so
// the spec arm's validation failures (and both arms' lock conflicts) grow
// with contention.
func measureOCC(o Options, txns int, theta float64, writePct int, spec bool) occMetrics {
	const (
		perNode = 4096
		nrec    = 4
		nodes   = 2
		workers = 2
	)
	rt, stop := buildMicro(nodes, workers, perNode, nil, func(rt *tx.Runtime) {
		rt.ReadPolicy = tx.PolicyLease
		if spec {
			rt.ReadPolicy = tx.PolicySpeculative
		}
		rt.CacheBudgetBytes = 0
	})
	defer stop()
	resetClocks(rt)
	before := rt.C.Obs.Snapshot()

	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(node, w int) {
				defer wg.Done()
				e := rt.Executor(node, w)
				rng := rand.New(rand.NewSource(o.Seed + int64(node*workers+w)*7919))
				z := NewZipf(rng, perNode, theta)
				peerBase := uint64((1 - node) * perNode)
				accs := make([]tx.Access, nrec)
				for t := 0; t < txns; t++ {
					for j := range accs {
						accs[j] = tx.Access{
							Table: benchTable,
							Key:   peerBase + 1 + z.Scrambled(),
							Write: rng.Intn(100) < writePct,
						}
					}
					err := e.Exec(func(t1 *tx.Tx) error {
						if err := t1.Stage(accs...); err != nil {
							return err
						}
						// A pause between the Start phase and the region: a
						// worker's transactions fit in one scheduler slice, so
						// without it the two workers that share a key range
						// may never overlap on a machine with few CPUs, and a
						// write-hot cell would read as conflict-free.
						time.Sleep(20 * time.Microsecond)
						return t1.Execute(func(lc *tx.Local) error {
							for _, a := range accs {
								v, err := lc.Read(benchTable, a.Key)
								if err != nil {
									return err
								}
								if a.Write {
									if err := lc.Write(benchTable, a.Key,
										[]uint64{v[0] + 1, v[1]}); err != nil {
										return err
									}
								}
							}
							return nil
						})
					})
					// Retry-budget exhaustion under extreme contention is a
					// data point, not a harness failure.
					if err != nil && !errors.Is(err, tx.ErrRetry) {
						panic(err)
					}
				}
			}(node, w)
		}
	}
	wg.Wait()
	return occSnapshot(rt, before)
}

func occSnapshot(rt *tx.Runtime, before obs.Snapshot) occMetrics {
	sn := rt.C.Obs.Snapshot().Delta(before)
	m := occMetrics{
		commits:   sn.Counters[obs.EvTxCommit],
		specReads: sn.Counters[obs.EvSpecRead],
	}
	lock := sn.Phases[obs.PhaseLockRemote]
	if lock.Count > 0 {
		m.lockNS = float64(lock.Sum) / float64(lock.Count)
	}
	if m.commits > 0 {
		m.retriesPerTx = float64(sn.Counters[obs.EvTxRetry]) / float64(m.commits)
		m.specFailsPerTx = float64(sn.Counters[obs.EvSpecValidateFail]) / float64(m.commits)
	}
	return m
}

func init() {
	Register(Experiment{ID: "occ", Title: "Speculative reads vs lease locks", Run: runOCC})
}
