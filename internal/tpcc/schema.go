// Package tpcc implements the TPC-C benchmark as used in the paper's
// evaluation (Section 7): the full nine-table schema, all five transaction
// types, warehouse partitioning, the cross-warehouse access knobs of
// Figures 12-16, and the store mapping the paper describes — warehouse,
// district, customer, item, stock and history in HTM/RDMA-friendly hash
// tables; order, new-order and order-line in ordered (B+ tree) stores
// accessed only locally (Section 6.5).
//
// The read-only ITEM table is replicated on every node (standard TPC-C
// practice; the partitioner returns -1 for it). The ORDER-BY-CUSTOMER
// ordered index supports order-status's "latest order of customer" query.
package tpcc

import (
	"fmt"
	"math/rand"

	"drtm/internal/kvs"
	"drtm/internal/tx"
)

// Table IDs.
const (
	TableWarehouse = 20
	TableDistrict  = 21
	TableCustomer  = 22
	TableHistory   = 23
	TableItem      = 24
	TableStock     = 25
	TableOrder     = 26 // ordered
	TableNewOrder  = 27 // ordered
	TableOrderLine = 28 // ordered
	TableOrderCust = 29 // ordered secondary index: customer -> order IDs
)

// Value layouts (word indices). Field counts are padded to realistic
// record footprints.
const (
	WValueWords = 8 // [ytd, tax, filler...]
	WYtd        = 0
	WTax        = 1

	DValueWords = 8 // [next_o_id, next_deliv_o_id, ytd, tax, filler...]
	DNextOID    = 0
	DNextDeliv  = 1
	DYtd        = 2
	DTax        = 3

	CValueWords  = 12 // [balance(int64 bits), ytd_payment, payment_cnt, delivery_cnt, credit, discount, filler...]
	CBalance     = 0
	CYtdPayment  = 1
	CPaymentCnt  = 2
	CDeliveryCnt = 3
	CCredit      = 4
	CDiscount    = 5

	SValueWords = 8 // [quantity, ytd, order_cnt, remote_cnt, filler...]
	SQuantity   = 0
	SYtd        = 1
	SOrderCnt   = 2
	SRemoteCnt  = 3

	IValueWords = 8 // [price, im_id, filler...]
	IPrice      = 0

	OValueWords = 8 // [c_id, entry_d, carrier_id, ol_cnt, all_local]
	OCID        = 0
	OEntryD     = 1
	OCarrier    = 2
	OOlCnt      = 3
	OAllLocal   = 4

	NOValueWords = 1

	OLValueWords = 8 // [i_id, supply_w, quantity, amount, delivery_d]
	OLIID        = 0
	OLSupplyW    = 1
	OLQuantity   = 2
	OLAmount     = 3
	OLDeliveryD  = 4

	HValueWords = 4 // [amount, w, d, c]

	OCValueWords = 1 // [o_id]
)

// maxValueWords is the widest row of the schema, CUSTOMER's.
const maxValueWords = CValueWords

// Key encodings. Warehouses are numbered 1..W globally, districts 1..10,
// customers 1..CustomersPerDistrict, items 1..Items.
func WKey(w int) uint64       { return uint64(w) }
func DKey(w, d int) uint64    { return uint64(w)*16 + uint64(d) }
func CKey(w, d, c int) uint64 { return DKey(w, d)*4096 + uint64(c) }
func SKey(w, i int) uint64    { return uint64(w)<<20 | uint64(i) }
func IKey(i int) uint64       { return uint64(i) }
func OKey(w, d, o int) uint64 { return DKey(w, d)<<32 | uint64(o) }
func OLKey(w, d, o, ol int) uint64 {
	return (DKey(w, d)<<32|uint64(o))<<4 | uint64(ol)
}
func OCKey(w, d, c, o int) uint64 { return CKey(w, d, c)<<24 | uint64(o) }

// Decoding helpers for partitioning.
func warehouseOfKey(table int, key uint64) int {
	switch table {
	case TableWarehouse:
		return int(key)
	case TableDistrict:
		return int(key / 16)
	case TableCustomer:
		return int(key / 4096 / 16)
	case TableStock:
		return int(key >> 20)
	case TableHistory:
		return int(key >> 48)
	case TableOrder, TableNewOrder:
		return int((key >> 32) / 16)
	case TableOrderLine:
		return int((key >> 36) / 16)
	case TableOrderCust:
		return int((key >> 24) / 4096 / 16)
	default:
		panic(fmt.Sprintf("tpcc: unknown warehouse-keyed table %d", table))
	}
}

// HKey builds a globally unique history key carrying the home warehouse.
func HKey(w int, node, worker int, seq uint64) uint64 {
	return uint64(w)<<48 | uint64(node)<<40 | uint64(worker)<<32 | (seq & 0xFFFFFFFF)
}

// Config sizes the workload.
type Config struct {
	Nodes             int
	WarehousesPerNode int
	Districts         int // per warehouse (spec: 10)
	CustomersPerDist  int // spec: 3000
	Items             int // spec: 100000
	// InitialOrders per district pre-populates order history so that
	// order-status, delivery and stock-level have work immediately.
	InitialOrders int
	// ExtraOrdersPerDistrict sizes table capacity headroom for the orders (and
	// the payments, about as many) a run will insert. Set-up reserves as many
	// again: a driver that budgets its measured run against the headroom also
	// spends orders warming up, up to the same budget.
	ExtraOrdersPerDistrict int
	// CrossNewOrderPct is the per-item probability (percent) that a
	// new-order line names a remote warehouse (spec/default: 1).
	CrossNewOrderPct int
	// CrossPaymentPct is the probability (percent) that payment's customer
	// belongs to a remote warehouse (spec/default: 15).
	CrossPaymentPct int
}

// DefaultConfig returns a paper-like configuration scaled for simulation:
// spec ratios with smaller per-district populations (tests and experiments
// override what they need).
func DefaultConfig(nodes, warehousesPerNode int) Config {
	return Config{
		Nodes:                  nodes,
		WarehousesPerNode:      warehousesPerNode,
		Districts:              10,
		CustomersPerDist:       120,
		Items:                  1000,
		InitialOrders:          30,
		ExtraOrdersPerDistrict: 3000,
		CrossNewOrderPct:       1,
		CrossPaymentPct:        15,
	}
}

// Warehouses returns the global warehouse count.
func (c Config) Warehouses() int { return c.Nodes * c.WarehousesPerNode }

// NodeOfWarehouse maps a warehouse to its home node.
func (c Config) NodeOfWarehouse(w int) int { return (w - 1) / c.WarehousesPerNode }

// Partitioner returns the tx-layer partitioner: warehouse-keyed tables go
// to the warehouse's node; ITEM is replicated (always local).
func (c Config) Partitioner() tx.Partitioner {
	return func(table int, key uint64) int {
		if table == TableItem {
			return -1
		}
		return c.NodeOfWarehouse(warehouseOfKey(table, key))
	}
}

// Workload owns the populated TPC-C database.
type Workload struct {
	cfg Config
	rt  *tx.Runtime

	// lastName[node] maps (w,d,lastname-bucket) to sorted customer IDs: the
	// static customer secondary index (customers are never inserted at run
	// time in TPC-C).
	lastName []map[uint64][]int
}

const lastNameBuckets = 100

func lastNameOf(c int) uint64 { return uint64(c % lastNameBuckets) }

func lnIdx(w, d int, ln uint64) uint64 { return DKey(w, d)*lastNameBuckets + ln }

// orderRows is the per-node row capacity of ORDER, NEW-ORDER and the
// customer index: the configured orders twice over, for a measured run and a
// warm-up each capped at the headroom.
func (cfg Config) orderRows() int {
	n := cfg.WarehousesPerNode * cfg.Districts * (cfg.InitialOrders + cfg.ExtraOrdersPerDistrict)
	return n + n
}

// historyRows is HISTORY's per-node row capacity: a payment per order, and
// slack of one per customer.
func (cfg Config) historyRows() int {
	return cfg.orderRows() + cfg.WarehousesPerNode*cfg.Districts*cfg.CustomersPerDist
}

// Setup defines and populates all tables. The runtime must use
// cfg.Partitioner().
func Setup(rt *tx.Runtime, cfg Config) (*Workload, error) {
	if cfg.Districts <= 0 || cfg.Districts > 10 {
		return nil, fmt.Errorf("tpcc: districts must be 1..10")
	}
	wPer := cfg.WarehousesPerNode
	dPer := wPer * cfg.Districts
	cPer := dPer * cfg.CustomersPerDist
	sPer := wPer * cfg.Items
	ordersPer := cfg.orderRows()
	// An order has 5 to 15 lines, 10 on average with a variance of 10 a line,
	// so 11 per order is the mean plus tens of standard deviations once there
	// are a few hundred orders; the constant covers 15 a line below that.
	olPer := ordersPer*11 + 1024

	rt.DefineUnordered(TableWarehouse, 16, 16, wPer+4, WValueWords)
	rt.DefineUnordered(TableDistrict, 64, 64, dPer+4, DValueWords)
	rt.DefineUnordered(TableCustomer, cPer/4+16, cPer/4+16, cPer+4, CValueWords)
	// HISTORY grows by one row per payment. Both bucket pools are sized from
	// the row capacity: the main buckets alone have a slot per row, and the
	// indirect pool absorbs the chains an uneven hash makes longer.
	hCap := cfg.historyRows()
	hBuckets := hCap/kvs.SlotsPerBucket + 16
	rt.DefineUnordered(TableHistory, hBuckets, hBuckets, hCap, HValueWords)
	rt.DefineUnordered(TableItem, cfg.Items/4+16, cfg.Items/4+16, cfg.Items+4, IValueWords)
	rt.DefineUnordered(TableStock, sPer/4+16, sPer/4+16, sPer+4, SValueWords)
	rt.DefineOrdered(TableOrder, ordersPer+4, OValueWords)
	rt.DefineOrdered(TableNewOrder, ordersPer+4, NOValueWords)
	rt.DefineOrdered(TableOrderLine, olPer+4, OLValueWords)
	rt.DefineOrdered(TableOrderCust, ordersPer+4, OCValueWords)

	w := &Workload{cfg: cfg, rt: rt, lastName: make([]map[uint64][]int, cfg.Nodes)}
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < cfg.Nodes; n++ {
		w.lastName[n] = make(map[uint64][]int)
		if err := w.populateNode(n, rng); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *Workload) populateNode(n int, rng *rand.Rand) error {
	cfg := w.cfg
	node := w.rt.C.Node(n)

	// Items are replicated: full copy per node.
	items := node.Unordered(TableItem)
	for i := 1; i <= cfg.Items; i++ {
		val := make([]uint64, IValueWords)
		val[IPrice] = uint64(rng.Intn(9900) + 100) // cents
		if err := items.Insert(IKey(i), val); err != nil {
			return err
		}
	}

	for wi := 0; wi < cfg.WarehousesPerNode; wi++ {
		wID := n*cfg.WarehousesPerNode + wi + 1
		wVal := make([]uint64, WValueWords)
		wVal[WTax] = uint64(rng.Intn(2000)) // basis points
		if err := node.Unordered(TableWarehouse).Insert(WKey(wID), wVal); err != nil {
			return err
		}
		for i := 1; i <= cfg.Items; i++ {
			sVal := make([]uint64, SValueWords)
			sVal[SQuantity] = uint64(rng.Intn(91) + 10)
			if err := node.Unordered(TableStock).Insert(SKey(wID, i), sVal); err != nil {
				return err
			}
		}
		for d := 1; d <= cfg.Districts; d++ {
			if err := w.populateDistrict(n, wID, d, rng); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *Workload) populateDistrict(n, wID, d int, rng *rand.Rand) error {
	cfg := w.cfg
	node := w.rt.C.Node(n)

	for c := 1; c <= cfg.CustomersPerDist; c++ {
		cVal := make([]uint64, CValueWords)
		cVal[CDiscount] = uint64(rng.Intn(5000))
		if rng.Intn(10) == 0 {
			cVal[CCredit] = 1 // BC credit
		}
		if err := node.Unordered(TableCustomer).Insert(CKey(wID, d, c), cVal); err != nil {
			return err
		}
		ln := lnIdx(wID, d, lastNameOf(c))
		w.lastName[n][ln] = append(w.lastName[n][ln], c)
	}

	// Initial order history: the last third is undelivered (in NEW-ORDER).
	undeliveredFrom := cfg.InitialOrders*2/3 + 1
	for o := 1; o <= cfg.InitialOrders; o++ {
		cID := rng.Intn(cfg.CustomersPerDist) + 1
		olCnt := rng.Intn(11) + 5
		oVal := make([]uint64, OValueWords)
		oVal[OCID] = uint64(cID)
		oVal[OOlCnt] = uint64(olCnt)
		oVal[OAllLocal] = 1
		if o < undeliveredFrom {
			oVal[OCarrier] = uint64(rng.Intn(10) + 1)
		}
		if err := node.Ordered(TableOrder).Insert(OKey(wID, d, o), oVal); err != nil {
			return err
		}
		if err := node.Ordered(TableOrderCust).Insert(OCKey(wID, d, cID, o),
			[]uint64{uint64(o)}); err != nil {
			return err
		}
		for ol := 1; ol <= olCnt; ol++ {
			olVal := make([]uint64, OLValueWords)
			olVal[OLIID] = uint64(rng.Intn(cfg.Items) + 1)
			olVal[OLSupplyW] = uint64(wID)
			olVal[OLQuantity] = 5
			olVal[OLAmount] = uint64(rng.Intn(9900) + 100)
			if o < undeliveredFrom {
				olVal[OLDeliveryD] = 1
			}
			if err := node.Ordered(TableOrderLine).Insert(OLKey(wID, d, o, ol), olVal); err != nil {
				return err
			}
		}
		if o >= undeliveredFrom {
			if err := node.Ordered(TableNewOrder).Insert(OKey(wID, d, o), []uint64{1}); err != nil {
				return err
			}
		}
	}

	dVal := make([]uint64, DValueWords)
	dVal[DNextOID] = uint64(cfg.InitialOrders + 1)
	dVal[DNextDeliv] = uint64(undeliveredFrom)
	dVal[DTax] = uint64(rng.Intn(2000))
	return node.Unordered(TableDistrict).Insert(DKey(wID, d), dVal)
}

// LookupByLastName resolves a (w, d, lastname-bucket) to the spec's
// midpoint customer. When the customer's warehouse is remote, the query
// ships to its home node over verbs (the paper's reconnaissance-query note
// in Section 4.1) — the static index makes the result stable.
func (w *Workload) LookupByLastName(e *tx.Executor, wID, d int, ln uint64) (int, bool) {
	node := w.cfg.NodeOfWarehouse(wID)
	if node != e.Worker().Node.ID {
		// Charge a verbs round trip for the remote index query.
		e.Worker().VClock.Charge(w.rt.C.Fabric.Model().VerbsMsg(32) * 2)
	}
	ids := w.lastName[node][lnIdx(wID, d, ln)]
	if len(ids) == 0 {
		return 0, false
	}
	return ids[len(ids)/2], true
}

// Runtime returns the underlying transaction runtime.
func (w *Workload) Runtime() *tx.Runtime { return w.rt }

// Config returns the workload configuration.
func (w *Workload) Config() Config { return w.cfg }

// Signed balance helpers (customer balances go negative per the spec).
func u2i(u uint64) int64 { return int64(u) }
func i2u(i int64) uint64 { return uint64(i) }
