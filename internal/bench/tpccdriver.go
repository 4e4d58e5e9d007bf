package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"drtm/internal/calvin"
	"drtm/internal/cluster"
	"drtm/internal/obs"
	"drtm/internal/tpcc"
	"drtm/internal/tx"
)

// tpccScale holds per-mode sizing.
type tpccScale struct {
	customersPerDist int
	items            int
	initialOrders    int
	txnsPerWorker    int
}

func tpccScaleFor(o Options) tpccScale {
	if o.Quick {
		return tpccScale{customersPerDist: 30, items: 100, initialOrders: 9, txnsPerWorker: 60}
	}
	return tpccScale{customersPerDist: 100, items: 1000, initialOrders: 15, txnsPerWorker: 600}
}

// tpccDeployment is a ready-to-run TPC-C cluster.
type tpccDeployment struct {
	w    *tpcc.Workload
	rt   *tx.Runtime
	stop func()
	cfg  tpcc.Config

	// ledger is what each transaction type cost over the last runMix, summed
	// over the workers.
	ledger [tpcc.TxnStockLevel + 1]typeLedger
}

// typeLedger is one TPC-C transaction type's share of a run: transactions
// run, their modeled time, and their local B+ tree operations by what the
// index did: a root-to-leaf descent because no leaf the executor's finger
// remembers covers the key (uncovered) or because the covering leaf is full
// (full), or a hit on a remembered leaf.
type typeLedger struct {
	txns, modelNS, uncovered, full, hits int64
}

func (l *typeLedger) add(o typeLedger) {
	l.txns += o.txns
	l.modelNS += o.modelNS
	l.uncovered += o.uncovered
	l.full += o.full
	l.hits += o.hits
}

// indexOps reads a worker's index counters into a ledger entry.
func indexOps(sh *obs.Shard) typeLedger {
	return typeLedger{uncovered: sh.Count(obs.EvTreeDescent), full: sh.Count(obs.EvLeafFullDescent),
		hits: sh.Count(obs.EvFingerHit)}
}

// buildTPCC assembles a cluster + runtime + populated TPC-C database.
func buildTPCC(o Options, nodes, wPerNode, workers int,
	mutT func(*tpcc.Config), mutC func(*cluster.Config)) *tpccDeployment {
	s := tpccScaleFor(o)
	tcfg := tpcc.DefaultConfig(nodes, wPerNode)
	tcfg.CustomersPerDist = s.customersPerDist
	tcfg.Items = s.items
	tcfg.InitialOrders = s.initialOrders
	// Capacity headroom for the orders this run will insert.
	tcfg.ExtraOrdersPerDistrict = s.txnsPerWorker*workers/tcfg.Districts + 64
	if mutT != nil {
		mutT(&tcfg)
	}
	ccfg := simClusterConfig(nodes, workers)
	if mutC != nil {
		mutC(&ccfg)
	}
	c := cluster.New(ccfg)
	c.Start()
	rt := tx.NewRuntime(c, tcfg.Partitioner())
	w, err := tpcc.Setup(rt, tcfg)
	if err != nil {
		panic(fmt.Sprintf("bench: tpcc setup: %v", err))
	}
	return &tpccDeployment{w: w, rt: rt, stop: c.Stop, cfg: tcfg}
}

// runMix drives the standard mix on every worker, recording per-transaction
// virtual latency and the per-type ledger; returns committed new-order and
// total counts.
func (d *tpccDeployment) runMix(o Options, txnsPerWorker int) (newOrder, total int64) {
	resetClocks(d.rt)
	d.ledger = [len(d.ledger)]typeLedger{}
	workers := d.rt.C.Workers()
	var mu sync.Mutex
	runWorkers(len(workers), func(i int) {
		wk := workers[i]
		e := d.rt.Executor(wk.Node.ID, wk.ID)
		home := wk.Node.ID*d.cfg.WarehousesPerNode + (wk.ID % d.cfg.WarehousesPerNode) + 1
		cl := d.w.NewClient(e, home, o.Seed+int64(i*131+7))
		var ledger [len(d.ledger)]typeLedger
		for n := 0; n < txnsPerWorker; n++ {
			before := wk.VClock.Now()
			ops := indexOps(wk.Obs)
			typ, err := cl.RunOne()
			if err != nil {
				if errors.Is(err, tx.ErrRetry) {
					continue // retry budget exhausted under extreme contention
				}
				panic(fmt.Sprintf("bench: tpcc txn: %v", err))
			}
			took := wk.VClock.Now() - before
			wk.Hist.Record(took)
			after := indexOps(wk.Obs)
			ledger[typ].add(typeLedger{txns: 1, modelNS: took.Nanoseconds(),
				uncovered: after.uncovered - ops.uncovered, full: after.full - ops.full,
				hits: after.hits - ops.hits})
		}
		mu.Lock()
		newOrder += cl.NewOrderCount()
		total += cl.TotalCount()
		for t := range ledger {
			d.ledger[t].add(ledger[t])
		}
		mu.Unlock()
	})
	return
}

// ---- Calvin TPC-C ------------------------------------------------------
//
// The Calvin baseline runs an equivalent standard mix against its own
// cluster instance: the same unordered tables plus flat order/order-line/
// history tables (Calvin's storage has no ordered-store requirement for
// throughput purposes). Read-only transactions are approximated by
// equivalent-cardinality reads; this preserves the cost structure that
// determines Calvin's throughput — epoch batching, per-transaction
// overhead, the serial lock manager and IPoIB messaging.

const (
	calvinOrders     = 40
	calvinOrderLines = 41
	calvinHistory    = 42
)

type calvinTPCC struct {
	sys  *calvin.System
	c    *cluster.Cluster
	cfg  tpcc.Config
	stop func()
}

func buildCalvinTPCC(o Options, nodes, wPerNode, workers int) *calvinTPCC {
	s := tpccScaleFor(o)
	tcfg := tpcc.DefaultConfig(nodes, wPerNode)
	tcfg.CustomersPerDist = s.customersPerDist
	tcfg.Items = s.items
	tcfg.InitialOrders = 0 // Calvin's RO stand-ins tolerate missing orders
	tcfg.ExtraOrdersPerDistrict = s.txnsPerWorker*workers/tcfg.Districts + 64

	ccfg := simClusterConfig(nodes, workers)
	c := cluster.New(ccfg)
	part := func(table int, key uint64) int {
		switch table {
		case calvinOrders:
			return tcfg.NodeOfWarehouse(int((key >> 32) / 16))
		case calvinOrderLines:
			return tcfg.NodeOfWarehouse(int((key >> 36) / 16))
		case calvinHistory:
			return tcfg.NodeOfWarehouse(int(key >> 48))
		case tpcc.TableItem:
			return int(key) % nodes // Calvin partitions items
		default:
			return tcfg.Partitioner()(table, key)
		}
	}
	// Register the unordered TPC-C tables Calvin needs.
	wPer := wPerNode
	dPer := wPer * tcfg.Districts
	cPer := dPer * tcfg.CustomersPerDist
	sPer := wPer * tcfg.Items
	ordersPer := dPer*(s.txnsPerWorker*workers/tcfg.Districts) + 4096
	c.RegisterUnordered(tpcc.TableWarehouse, 16, 16, wPer+4, tpcc.WValueWords)
	c.RegisterUnordered(tpcc.TableDistrict, 64, 64, dPer+4, tpcc.DValueWords)
	c.RegisterUnordered(tpcc.TableCustomer, cPer/4+16, cPer/4+16, cPer+4, tpcc.CValueWords)
	c.RegisterUnordered(tpcc.TableItem, tcfg.Items/4+16, tcfg.Items/4+16, tcfg.Items+4, tpcc.IValueWords)
	c.RegisterUnordered(tpcc.TableStock, sPer/4+16, sPer/4+16, sPer+4, tpcc.SValueWords)
	c.RegisterUnordered(calvinOrders, ordersPer/4+16, ordersPer/4+16, ordersPer, tpcc.OValueWords)
	c.RegisterUnordered(calvinOrderLines, ordersPer*3+16, ordersPer*3+16, ordersPer*15, tpcc.OLValueWords)
	c.RegisterUnordered(calvinHistory, ordersPer+16, ordersPer+16, ordersPer*2, tpcc.HValueWords)

	// Populate (same generator shapes as tpcc.Setup, unordered part only).
	rng := rand.New(rand.NewSource(o.Seed + 3))
	for n := 0; n < nodes; n++ {
		node := c.Node(n)
		for i := 1; i <= tcfg.Items; i++ {
			if part(tpcc.TableItem, uint64(i)) != n {
				continue
			}
			val := make([]uint64, tpcc.IValueWords)
			val[tpcc.IPrice] = uint64(rng.Intn(9900) + 100)
			if err := node.Unordered(tpcc.TableItem).Insert(tpcc.IKey(i), val); err != nil {
				panic(err)
			}
		}
		for wi := 0; wi < wPerNode; wi++ {
			wID := n*wPerNode + wi + 1
			if err := node.Unordered(tpcc.TableWarehouse).Insert(tpcc.WKey(wID),
				make([]uint64, tpcc.WValueWords)); err != nil {
				panic(err)
			}
			for i := 1; i <= tcfg.Items; i++ {
				sv := make([]uint64, tpcc.SValueWords)
				sv[tpcc.SQuantity] = uint64(rng.Intn(91) + 10)
				if err := node.Unordered(tpcc.TableStock).Insert(tpcc.SKey(wID, i), sv); err != nil {
					panic(err)
				}
			}
			for d := 1; d <= tcfg.Districts; d++ {
				dv := make([]uint64, tpcc.DValueWords)
				dv[tpcc.DNextOID] = 1
				dv[tpcc.DNextDeliv] = 1
				if err := node.Unordered(tpcc.TableDistrict).Insert(tpcc.DKey(wID, d), dv); err != nil {
					panic(err)
				}
				for cu := 1; cu <= tcfg.CustomersPerDist; cu++ {
					if err := node.Unordered(tpcc.TableCustomer).Insert(tpcc.CKey(wID, d, cu),
						make([]uint64, tpcc.CValueWords)); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	sys := calvin.New(c, calvin.DefaultConfig(), part)
	return &calvinTPCC{sys: sys, c: c, cfg: tcfg, stop: c.Stop}
}

// runMix drives an equivalent standard mix through Calvin.
func (ct *calvinTPCC) runMix(o Options, txnsPerWorker int) (newOrder, total int64) {
	workers := ct.c.Workers()
	for _, w := range workers {
		w.VClock.Reset()
	}
	var mu sync.Mutex
	runWorkers(len(workers), func(i int) {
		wk := workers[i]
		rng := rand.New(rand.NewSource(o.Seed + int64(i*17+3)))
		home := wk.Node.ID*ct.cfg.WarehousesPerNode + (wk.ID % ct.cfg.WarehousesPerNode) + 1
		var no, tot int64
		var hseq uint64
		var oseq int
		for n := 0; n < txnsPerWorker; n++ {
			r := rng.Intn(100)
			var err error
			switch {
			case r < 45:
				oseq++
				err = ct.newOrder(wk, rng, home, oseq)
				if err == nil {
					no++
				}
			case r < 88:
				hseq++
				err = ct.payment(wk, rng, home, hseq)
			default:
				err = ct.readOnlyStandIn(wk, rng, home)
			}
			if err != nil {
				panic(fmt.Sprintf("bench: calvin txn: %v", err))
			}
			tot++
		}
		mu.Lock()
		newOrder += no
		total += tot
		mu.Unlock()
	})
	return
}

// lockMgrTimes returns per-node serial lock manager durations.
func (ct *calvinTPCC) lockMgrTimes() []time.Duration {
	out := make([]time.Duration, ct.c.Nodes())
	for i := range out {
		out[i] = ct.sys.LockMgrTime(i)
	}
	return out
}

func (ct *calvinTPCC) newOrder(wk *cluster.Worker, rng *rand.Rand, home, oseq int) error {
	cfg := ct.cfg
	d := rng.Intn(cfg.Districts) + 1
	cu := rng.Intn(cfg.CustomersPerDist) + 1
	olCnt := rng.Intn(11) + 5
	dRef := calvin.Ref{Table: tpcc.TableDistrict, Key: tpcc.DKey(home, d)}
	txn := &calvin.Txn{
		ReadSet: []calvin.Ref{
			{Table: tpcc.TableWarehouse, Key: tpcc.WKey(home)},
			dRef,
			{Table: tpcc.TableCustomer, Key: tpcc.CKey(home, d, cu)},
		},
		WriteSet: []calvin.Ref{dRef},
	}
	type line struct {
		item, supply, qty int
	}
	lines := make([]line, olCnt)
	for i := range lines {
		supply := home
		if cfg.Warehouses() > 1 && rng.Intn(100) < cfg.CrossNewOrderPct {
			supply = rng.Intn(cfg.Warehouses()) + 1
		}
		lines[i] = line{item: rng.Intn(cfg.Items) + 1, supply: supply, qty: rng.Intn(10) + 1}
		sRef := calvin.Ref{Table: tpcc.TableStock, Key: tpcc.SKey(supply, lines[i].item)}
		txn.ReadSet = append(txn.ReadSet, sRef,
			calvin.Ref{Table: tpcc.TableItem, Key: tpcc.IKey(lines[i].item)})
		txn.WriteSet = append(txn.WriteSet, sRef)
	}
	txn.Logic = func(ctx *calvin.Ctx) error {
		dv, _ := ctx.Read(tpcc.TableDistrict, tpcc.DKey(home, d))
		oID := int(dv[tpcc.DNextOID])
		nd := append([]uint64(nil), dv...)
		nd[tpcc.DNextOID]++
		ctx.Write(tpcc.TableDistrict, tpcc.DKey(home, d), nd)
		for _, l := range lines {
			sv, ok := ctx.Read(tpcc.TableStock, tpcc.SKey(l.supply, l.item))
			if !ok {
				continue
			}
			ns := append([]uint64(nil), sv...)
			ns[tpcc.SYtd] += uint64(l.qty)
			ns[tpcc.SOrderCnt]++
			ctx.Write(tpcc.TableStock, tpcc.SKey(l.supply, l.item), ns)
		}
		_ = oID
		return nil
	}
	// Order + order-line inserts: a per-worker sequence in the worker's own
	// ID space keeps keys unique (real Calvin pre-sequences them globally).
	oID := oseq + (wk.Node.ID*64+wk.ID)<<20
	oVal := make([]uint64, tpcc.OValueWords)
	oVal[tpcc.OCID] = uint64(cu)
	oVal[tpcc.OOlCnt] = uint64(olCnt)
	txn.Inserts = append(txn.Inserts, calvin.Insert{
		Ref: calvin.Ref{Table: calvinOrders, Key: tpcc.OKey(home, d, oID)}, Val: oVal})
	for i := range lines {
		olv := make([]uint64, tpcc.OLValueWords)
		olv[tpcc.OLIID] = uint64(lines[i].item)
		txn.Inserts = append(txn.Inserts, calvin.Insert{
			Ref: calvin.Ref{Table: calvinOrderLines, Key: tpcc.OLKey(home, d, oID, i+1)}, Val: olv})
	}
	return ct.sys.Execute(wk, txn)
}

func (ct *calvinTPCC) payment(wk *cluster.Worker, rng *rand.Rand, home int, hseq uint64) error {
	cfg := ct.cfg
	d := rng.Intn(cfg.Districts) + 1
	cW, cD := home, d
	if cfg.Warehouses() > 1 && rng.Intn(100) < cfg.CrossPaymentPct {
		cW = rng.Intn(cfg.Warehouses()) + 1
		cD = rng.Intn(cfg.Districts) + 1
	}
	cu := rng.Intn(cfg.CustomersPerDist) + 1
	amount := uint64(rng.Intn(5000) + 1)
	wRef := calvin.Ref{Table: tpcc.TableWarehouse, Key: tpcc.WKey(home)}
	dRef := calvin.Ref{Table: tpcc.TableDistrict, Key: tpcc.DKey(home, d)}
	cRef := calvin.Ref{Table: tpcc.TableCustomer, Key: tpcc.CKey(cW, cD, cu)}
	hVal := make([]uint64, tpcc.HValueWords)
	hVal[0] = amount
	txn := &calvin.Txn{
		ReadSet:  []calvin.Ref{wRef, dRef, cRef},
		WriteSet: []calvin.Ref{wRef, dRef, cRef},
		Inserts: []calvin.Insert{{
			Ref: calvin.Ref{Table: calvinHistory,
				Key: tpcc.HKey(home, wk.Node.ID, wk.ID, hseq)},
			Val: hVal,
		}},
		Logic: func(ctx *calvin.Ctx) error {
			wv, _ := ctx.Read(tpcc.TableWarehouse, tpcc.WKey(home))
			nw := append([]uint64(nil), wv...)
			nw[tpcc.WYtd] += amount
			ctx.Write(tpcc.TableWarehouse, tpcc.WKey(home), nw)
			dv, _ := ctx.Read(tpcc.TableDistrict, tpcc.DKey(home, d))
			nd := append([]uint64(nil), dv...)
			nd[tpcc.DYtd] += amount
			ctx.Write(tpcc.TableDistrict, tpcc.DKey(home, d), nd)
			cv, _ := ctx.Read(tpcc.TableCustomer, tpcc.CKey(cW, cD, cu))
			nc := append([]uint64(nil), cv...)
			nc[tpcc.CYtdPayment] += amount
			nc[tpcc.CPaymentCnt]++
			ctx.Write(tpcc.TableCustomer, tpcc.CKey(cW, cD, cu), nc)
			return nil
		},
	}
	return ct.sys.Execute(wk, txn)
}

// readOnlyStandIn models OS/DLY/SL with equivalent read cardinality.
func (ct *calvinTPCC) readOnlyStandIn(wk *cluster.Worker, rng *rand.Rand, home int) error {
	cfg := ct.cfg
	d := rng.Intn(cfg.Districts) + 1
	txn := &calvin.Txn{
		TolerateMissing: true,
		ReadSet: []calvin.Ref{
			{Table: tpcc.TableDistrict, Key: tpcc.DKey(home, d)},
		},
		Logic: func(ctx *calvin.Ctx) error { return nil },
	}
	// ~60 stock reads stand in for the scan-heavy read-only transactions.
	for i := 0; i < 60; i++ {
		txn.ReadSet = append(txn.ReadSet, calvin.Ref{
			Table: tpcc.TableStock, Key: tpcc.SKey(home, rng.Intn(cfg.Items)+1)})
	}
	return ct.sys.Execute(wk, txn)
}
