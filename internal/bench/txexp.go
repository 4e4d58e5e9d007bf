package bench

import (
	"errors"
	"fmt"
	"sync"

	"drtm/internal/btree"
	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/smallbank"
	"drtm/internal/tpcc"
	"drtm/internal/tx"
	"drtm/internal/vtime"
)

// numaPenalty models Section 6.4: the B+ tree (and allocator locality) stop
// scaling past one socket (8-10 cores); workers beyond 8 on one machine pay
// growing cross-socket costs. DrTM(S) avoids it by running one logical node
// per socket.
func numaPenalty(workersPerNode int) float64 {
	if workersPerNode <= 8 {
		return 1
	}
	return 1 + 0.45*float64(workersPerNode-8)
}

func applyNUMA(m *vtime.Model, workersPerNode int) {
	f := numaPenalty(workersPerNode)
	m.BTreeOpNS = int64(float64(m.BTreeOpNS) * f)
	m.HashProbeNS = int64(float64(m.HashProbeNS) * f)
	m.HTMPerReadNS = int64(float64(m.HTMPerReadNS) * f)
	m.HTMPerWriteNS = int64(float64(m.HTMPerWriteNS) * f)
}

// ---- Figure 12: TPC-C throughput vs machines, DrTM vs Calvin ------------

func runFig12(o Options) *Result {
	s := tpccScaleFor(o)
	res := &Result{
		ID:      "fig12",
		Title:   "TPC-C throughput vs machines (Figure 12)",
		Headers: []string{"machines", "DrTM new-order/s", "DrTM standard-mix/s", "Calvin mix/s", "DrTM/Calvin"},
	}
	machines := []int{1, 2, 3, 4, 5, 6}
	if o.Quick {
		machines = []int{1, 2}
	}
	const workers = 8
	for _, n := range machines {
		dep := buildTPCC(o, n, workers, workers, nil, nil)
		no, total := dep.runMix(o, s.txnsPerWorker)
		noTput := throughput(no, dep.rt.C.Workers())
		mixTput := throughput(total, dep.rt.C.Workers())
		dep.stop()

		ct := buildCalvinTPCC(o, n, workers, workers)
		_, ctotal := ct.runMix(o, s.txnsPerWorker/4)
		cTput := throughput(ctotal, ct.c.Workers(), ct.lockMgrTimes()...)
		ct.stop()

		speedup := mixTput / cTput
		res.AddRow(fmt.Sprintf("%d", n), fmtK(noTput), fmtK(mixTput), fmtK(cTput),
			fmt.Sprintf("%.1fx", speedup))
	}
	res.Note("each machine: %d workers, 1 warehouse per worker (paper setup)", workers)
	res.Note("paper: 1.65M new-order, 3.67M mix on 6 machines; >= 17.9x over Calvin")
	return res
}

// ---- Figure 13: TPC-C throughput vs threads ------------------------------

func runFig13(o Options) *Result {
	s := tpccScaleFor(o)
	res := &Result{
		ID:      "fig13",
		Title:   "TPC-C throughput vs threads on 6 machines (Figure 13)",
		Headers: []string{"threads", "DrTM new-order/s", "DrTM mix/s", "DrTM(S) mix/s"},
	}
	threads := []int{1, 2, 4, 8, 10, 12, 16}
	machines := 6
	if o.Quick {
		threads = []int{1, 4, 10}
		machines = 2
	}
	for _, th := range threads {
		// DrTM: one logical node per machine; NUMA penalty beyond 8 threads.
		dep := buildTPCC(o, machines, th, th, nil, func(c *cluster.Config) {
			applyNUMA(&c.Model, th)
		})
		no, total := dep.runMix(o, s.txnsPerWorker)
		noT := throughput(no, dep.rt.C.Workers())
		mixT := throughput(total, dep.rt.C.Workers())
		dep.stop()

		// DrTM(S): two logical nodes per machine (one per socket), threads
		// split between them; no cross-socket penalty.
		sCell := "-"
		if th >= 2 && th%2 == 0 {
			dep2 := buildTPCC(o, machines*2, th/2, th/2, nil, nil)
			_, total2 := dep2.runMix(o, s.txnsPerWorker)
			sCell = fmtK(throughput(total2, dep2.rt.C.Workers()))
			dep2.stop()
		}
		res.AddRow(fmt.Sprintf("%d", th), fmtK(noT), fmtK(mixT), sCell)
	}
	res.Note("NUMA model: per-op local costs x%.2f at 16 threads (Section 6.4)", numaPenalty(16))
	res.Note("paper: DrTM peaks at 8 threads (5.56x); DrTM(S) reaches 8.29x at 16")
	return res
}

// ---- Figure 14: logical-node scale-out -----------------------------------

func runFig14(o Options) *Result {
	s := tpccScaleFor(o)
	res := &Result{
		ID:      "fig14",
		Title:   "TPC-C throughput vs logical nodes, 4 workers each (Figure 14)",
		Headers: []string{"nodes", "new-order/s", "standard-mix/s"},
	}
	nodes := []int{2, 4, 8, 12, 16, 20, 24}
	if o.Quick {
		nodes = []int{2, 4, 6}
	}
	for _, n := range nodes {
		dep := buildTPCC(o, n, 4, 4, nil, nil)
		no, total := dep.runMix(o, s.txnsPerWorker)
		res.AddRow(fmt.Sprintf("%d", n),
			fmtK(throughput(no, dep.rt.C.Workers())),
			fmtK(throughput(total, dep.rt.C.Workers())))
		dep.stop()
	}
	res.Note("paper: scales to 24 nodes, 2.42M new-order / 5.38M mix")
	return res
}

// ---- TPC-C per-type ledger -------------------------------------------------

// runTPCCTypes prints where the standard mix spends its modeled time, type by
// type, beside the local B+ tree work each transaction does: root-to-leaf
// descents, by why they were made, and hits on the executor's leaf cache.
func runTPCCTypes(o Options) *Result {
	s := tpccScaleFor(o)
	res := &Result{
		ID:      "tpcc-types",
		Title:   "TPC-C per transaction type: modeled time, B+ tree descents and finger hits",
		Headers: []string{"type", "txns", "mean", "descents/txn", "no leaf covers", "leaf full", "finger-hits/txn", "share of modeled time"},
	}
	// The repository benchmark's tpcc_mix shape: one warehouse and one worker
	// on each of two machines.
	txns := 4 * s.txnsPerWorker
	dep := buildTPCC(o, 2, 1, 1, func(c *tpcc.Config) {
		c.ExtraOrdersPerDistrict = txns/c.Districts + 64
	}, nil)
	dep.runMix(o, txns)
	dep.stop()
	var all int64
	for _, l := range dep.ledger {
		all += l.modelNS
	}
	for typ, l := range dep.ledger {
		if l.txns == 0 {
			continue
		}
		n := float64(l.txns)
		res.AddRow(tpcc.TxnType(typ).String(), fmt.Sprintf("%d", l.txns),
			fmt.Sprintf("%.2fus", float64(l.modelNS)/n/1e3),
			fmt.Sprintf("%.1f", float64(l.uncovered+l.full)/n), fmt.Sprintf("%.2f", float64(l.uncovered)/n),
			fmt.Sprintf("%.2f", float64(l.full)/n), fmt.Sprintf("%.1f", float64(l.hits)/n),
			fmt.Sprintf("%.0f%%", 100*float64(l.modelNS)/float64(all)))
	}
	res.Note("2 machines x 1 worker x 1 warehouse, standard mix; a descent is charged BTreeOpNS, a finger hit HashProbeNS")
	res.Note(fmt.Sprintf("the finger remembers %d leaves per ordered table: a descent is made when none of them covers the key, or when the one that does is full and the insert must split it", btree.FingerLeaves))
	res.Note("user-aborted new-orders and the retries of contended transactions are in their type's row")
	return res
}

// ---- Figure 15: SmallBank -------------------------------------------------

func runFig15(o Options) *Result {
	res := &Result{
		ID:      "fig15",
		Title:   "SmallBank throughput vs machines and distributed fraction (Figure 15)",
		Headers: []string{"machines", "workers", "dist%", "txns/s"},
	}
	txns := 4000
	accounts := 20_000
	machines := []int{1, 2, 4, 6}
	workerCounts := []int{8}
	if o.Quick {
		txns = 400
		accounts = 2_000
		machines = []int{1, 2}
	}
	run := func(n, workers int, distPct float64) float64 {
		ccfg := simClusterConfig(n, workers)
		c := cluster.New(ccfg)
		c.Start()
		defer c.Stop()
		cfg := smallbank.DefaultConfig(n)
		cfg.AccountsPerNode = accounts
		cfg.HotAccounts = accounts / 100
		cfg.DistProb = distPct / 100
		rt := tx.NewRuntime(c, cfg.Partitioner())
		w, err := smallbank.Setup(rt, cfg)
		if err != nil {
			panic(err)
		}
		resetClocks(rt)
		var committed int64
		var mu sync.Mutex
		ws := rt.C.Workers()
		runWorkers(len(ws), func(i int) {
			wk := ws[i]
			cl := w.NewClient(rt.Executor(wk.Node.ID, wk.ID), o.Seed+int64(i))
			for t := 0; t < txns; t++ {
				if _, err := cl.RunOne(); err != nil && !errors.Is(err, tx.ErrRetry) {
					panic(err)
				}
			}
			mu.Lock()
			committed += int64(txns)
			mu.Unlock()
		})
		return throughput(committed, ws)
	}
	for _, dist := range []float64{1, 5, 10} {
		for _, n := range machines {
			for _, wk := range workerCounts {
				res.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", wk),
					fmt.Sprintf("%.0f", dist), fmtK(run(n, wk, dist)))
			}
		}
	}
	// Thread scaling at 6 machines, 1% distributed.
	if !o.Quick {
		for _, wk := range []int{1, 2, 4, 8, 16} {
			n := 6
			model := run(n, wk, 1)
			res.AddRow(fmt.Sprintf("%d*", n), fmt.Sprintf("%d", wk), "1", fmtK(model))
		}
		res.Note("rows marked * are the thread-scaling series at 6 machines")
	}
	res.Note("paper: 138M txns/s at 6 machines, 1%% distributed")
	return res
}

// ---- Figure 16: cross-warehouse sweep ------------------------------------

func runFig16(o Options) *Result {
	s := tpccScaleFor(o)
	res := &Result{
		ID:      "fig16",
		Title:   "New-order throughput vs cross-warehouse probability (Figure 16)",
		Headers: []string{"cross-warehouse%", "new-order/s", "slowdown"},
	}
	pcts := []int{1, 5, 10, 25, 50, 75, 100}
	machines := 6
	if o.Quick {
		pcts = []int{1, 10, 100}
		machines = 2
	}
	var base float64
	for _, pct := range pcts {
		dep := buildTPCC(o, machines, 8, 8, func(c *tpcc.Config) {
			c.CrossNewOrderPct = pct
		}, nil)
		// New-order-only load isolates the knob, as in the paper's text.
		resetClocks(dep.rt)
		var committed int64
		var mu sync.Mutex
		ws := dep.rt.C.Workers()
		runWorkers(len(ws), func(i int) {
			wk := ws[i]
			e := dep.rt.Executor(wk.Node.ID, wk.ID)
			home := wk.Node.ID*dep.cfg.WarehousesPerNode + (wk.ID % dep.cfg.WarehousesPerNode) + 1
			cl := dep.w.NewClient(e, home, o.Seed+int64(i))
			n := 0
			for t := 0; t < s.txnsPerWorker; t++ {
				err := cl.RunNewOrder(false)
				switch {
				case err == nil:
					n++
				case err == tx.ErrUserAbort || errors.Is(err, tx.ErrRetry):
					// intentional rollback / contention exhaustion
				default:
					panic(err)
				}
			}
			mu.Lock()
			committed += int64(n)
			mu.Unlock()
		})
		tput := throughput(committed, ws)
		dep.stop()
		if base == 0 {
			base = tput
		}
		res.AddRow(fmt.Sprintf("%d", pct), fmtK(tput),
			fmt.Sprintf("%.0f%%", (1-tput/base)*100))
	}
	res.Note("paper: 100%% cross-warehouse => ~85%% slowdown; 5%% => ~15%%")
	return res
}

// ---- Table 6: durability --------------------------------------------------

func runTable6(o Options) *Result {
	s := tpccScaleFor(o)
	res := &Result{
		ID:      "table6",
		Title:   "Durability impact on TPC-C (Table 6)",
		Headers: []string{"config", "new-order/s", "capacity-abort%", "fallback%", "p50", "p90", "p99"},
	}
	machines := 6
	if o.Quick {
		machines = 2
	}
	for _, durable := range []bool{false, true} {
		dep := buildTPCC(o, machines, 8, 8, nil, func(c *cluster.Config) {
			c.Durability = durable
		})
		no, total := dep.runMix(o, s.txnsPerWorker)
		ws := dep.rt.C.Workers()
		noT := throughput(no, ws)
		hist := vtime.NewHistogram()
		for _, w := range ws {
			hist.Merge(w.Hist)
		}
		capPct := float64(totals(dep.rt, obs.EvHTMCapacityAbort)) / float64(total) * 100
		fbPct := float64(totals(dep.rt, obs.EvFallback)) / float64(total) * 100
		name := "logging off"
		if durable {
			name = "logging on"
		}
		res.AddRow(name, fmtK(noT),
			fmt.Sprintf("%.2f", capPct), fmt.Sprintf("%.2f", fbPct),
			hist.Percentile(50).String(), hist.Percentile(90).String(),
			hist.Percentile(99).String())
		dep.stop()
	}
	res.Note("paper: logging costs ~11.6%% new-order throughput; latency +<10us at p50/90/99")
	return res
}

func init() {
	Register(Experiment{ID: "fig12", Title: "TPC-C vs machines (DrTM vs Calvin)", Run: runFig12})
	Register(Experiment{ID: "fig13", Title: "TPC-C vs threads", Run: runFig13})
	Register(Experiment{ID: "fig14", Title: "TPC-C logical-node scale-out", Run: runFig14})
	Register(Experiment{ID: "fig15", Title: "SmallBank sweep", Run: runFig15})
	Register(Experiment{ID: "fig16", Title: "Cross-warehouse sweep", Run: runFig16})
	Register(Experiment{ID: "table6", Title: "Durability impact", Run: runTable6})
	Register(Experiment{ID: "tpcc-types", Title: "TPC-C per-type modeled time and B+ tree work", Run: runTPCCTypes})
}
