package tpcc

import (
	"fmt"
	"math/rand"

	"drtm/internal/chopping"
	"drtm/internal/tx"
)

// TxnType enumerates TPC-C's five transactions.
type TxnType int

const (
	TxnNewOrder    TxnType = iota // NEW (d, rw) 45%
	TxnPayment                    // PAY (d, rw) 43%
	TxnOrderStatus                // OS (l, ro) 4%
	TxnDelivery                   // DLY (l, rw) 4%
	TxnStockLevel                 // SL (l, ro) 4%
	numTxnTypes
)

func (t TxnType) String() string {
	switch t {
	case TxnNewOrder:
		return "new-order"
	case TxnPayment:
		return "payment"
	case TxnOrderStatus:
		return "order-status"
	case TxnDelivery:
		return "delivery"
	case TxnStockLevel:
		return "stock-level"
	default:
		return fmt.Sprintf("TxnType(%d)", int(t))
	}
}

// The standard TPC-C mix (Table 5).
var mixPct = [numTxnTypes]int{45, 43, 4, 4, 4}

// Client drives the TPC-C mix from one worker. Per the paper's setup, each
// worker is bound to one home warehouse.
type Client struct {
	w    *Workload
	e    *tx.Executor
	rng  *rand.Rand
	home int // home warehouse

	hSeq   uint64
	oSeq   uint64
	Counts [numTxnTypes]int64
	// UserAborts counts TPC-C's intentional 1% new-order rollbacks.
	UserAborts int64

	// row is the scratch the bodies build every row they write or insert in
	// (edit, blank): Local.Write and Local.Insert copy, so one row as wide as
	// the widest table's does for a whole transaction.
	row [maxValueWords]uint64

	// lines is the order RunNewOrder draws; items, the distinct item IDs a
	// stock-level reads the stock of.
	lines [maxOrderLines]OrderLineInput
	items []uint64

	// dlyPieces are Delivery's pieces, one per district, built once: they read
	// the running call's warehouse and carrier from dlyW / dlyCarrier, count
	// the orders they deliver in dlyDone, and read their reconnaissance rows
	// into recon.
	dlyPieces        []chopping.PieceFunc
	dlyW, dlyCarrier int
	dlyDone          int
	recon            [maxValueWords]uint64
}

// maxOrderLines is the most lines a new-order carries.
const maxOrderLines = 15

// NewClient binds a client to an executor and a home warehouse.
func (w *Workload) NewClient(e *tx.Executor, home int, seed int64) *Client {
	if w.cfg.NodeOfWarehouse(home) != e.Worker().Node.ID {
		panic(fmt.Sprintf("tpcc: warehouse %d is not on node %d", home, e.Worker().Node.ID))
	}
	c := &Client{w: w, e: e, rng: rand.New(rand.NewSource(seed)), home: home}
	c.dlyPieces = make([]chopping.PieceFunc, w.cfg.Districts)
	for i := range c.dlyPieces {
		d := i + 1
		c.dlyPieces[i] = func(e *tx.Executor, t *tx.Tx) error { return c.deliverDistrict(e, t, d) }
	}
	return c
}

// nuRand is the TPC-C non-uniform random distribution.
func (c *Client) nuRand(a, x, y int) int {
	cc := 42 % (a + 1)
	return ((c.rng.Intn(a+1)|(c.rng.Intn(y-x+1)+x))+cc)%(y-x+1) + x
}

func (c *Client) pickDistrict() int { return c.rng.Intn(c.w.cfg.Districts) + 1 }

func (c *Client) pickCustomer() int { return c.nuRand(1023, 1, c.w.cfg.CustomersPerDist) }

func (c *Client) pickItem() int { return c.nuRand(8191, 1, c.w.cfg.Items) }

// otherWarehouse picks a uniformly random warehouse different from home.
func (c *Client) otherWarehouse() int {
	if c.w.cfg.Warehouses() == 1 {
		return c.home
	}
	w := c.rng.Intn(c.w.cfg.Warehouses()-1) + 1
	if w >= c.home {
		w++
	}
	return w
}

// PickType draws from the standard mix.
func (c *Client) PickType() TxnType {
	r := c.rng.Intn(100)
	acc := 0
	for t := TxnType(0); t < numTxnTypes; t++ {
		acc += mixPct[t]
		if r < acc {
			return t
		}
	}
	return TxnNewOrder
}

// RunOne executes one transaction drawn from the standard mix, returning
// its type. TPC-C's intentional new-order rollbacks count as user aborts,
// not errors.
func (c *Client) RunOne() (TxnType, error) {
	t := c.PickType()
	var err error
	switch t {
	case TxnNewOrder:
		err = c.RunNewOrder(false)
	case TxnPayment:
		err = c.RunPayment()
	case TxnOrderStatus:
		_, err = c.OrderStatus(c.home, c.pickDistrict(), c.pickCustomer())
	case TxnDelivery:
		c.oSeq++
		_, err = c.Delivery(c.home, c.rng.Intn(10)+1, uint64(c.home)<<32|c.oSeq)
	case TxnStockLevel:
		_, err = c.StockLevel(c.home, c.pickDistrict(), uint64(c.rng.Intn(11)+10))
	}
	if err == tx.ErrUserAbort {
		c.UserAborts++
		return t, nil
	}
	if err == nil {
		c.Counts[t]++
	}
	return t, err
}

// RunNewOrder issues one NEW transaction with spec-shaped inputs. When
// forceInvalid is true the order carries an unused item (the 1% rollback);
// otherwise that happens with 1% probability.
func (c *Client) RunNewOrder(forceInvalid bool) error {
	cfg := c.w.cfg
	olCnt := c.rng.Intn(11) + 5
	lines := c.lines[:olCnt]
	for i := range lines {
		item := c.pickItem()
		for hasItem(lines[:i], item) {
			item = c.pickItem()
		}
		supply := c.home
		if cfg.Warehouses() > 1 && c.rng.Intn(100) < cfg.CrossNewOrderPct {
			supply = c.otherWarehouse()
		}
		lines[i] = OrderLineInput{ItemID: item, SupplyW: supply, Quantity: c.rng.Intn(10) + 1}
	}
	if forceInvalid || c.rng.Intn(100) == 0 {
		lines[olCnt-1].ItemID = cfg.Items + 1 // unused item: must roll back
		lines[olCnt-1].SupplyW = c.home
	}
	_, err := c.NewOrder(c.home, c.pickDistrict(), c.pickCustomer(), lines)
	return err
}

// hasItem reports whether one of lines orders item.
func hasItem(lines []OrderLineInput, item int) bool {
	for _, l := range lines {
		if l.ItemID == item {
			return true
		}
	}
	return false
}

// RunPayment issues one PAY transaction with spec-shaped inputs: 15%
// (CrossPaymentPct) remote customers, 60% selected by last name.
func (c *Client) RunPayment() error {
	cfg := c.w.cfg
	d := c.pickDistrict()
	cW, cD := c.home, d
	if cfg.Warehouses() > 1 && c.rng.Intn(100) < cfg.CrossPaymentPct {
		cW = c.otherWarehouse()
		cD = c.pickDistrict()
	}
	var cust int
	if c.rng.Intn(100) < 60 {
		// By last name: resolve through the (possibly remote) index first —
		// the reconnaissance step of Section 4.1.
		var ok bool
		cust, ok = c.w.LookupByLastName(c.e, cW, cD, uint64(c.rng.Intn(lastNameBuckets)))
		if !ok {
			cust = c.pickCustomer()
		}
	} else {
		cust = c.pickCustomer()
	}
	c.hSeq++
	return c.Payment(c.home, d, cW, cD, cust, uint64(c.rng.Intn(500000)+100), c.hSeq)
}

// NewOrderCount returns committed new-order transactions (the TPC-C
// throughput metric).
func (c *Client) NewOrderCount() int64 { return c.Counts[TxnNewOrder] }

// TotalCount returns all committed transactions (standard-mix throughput).
func (c *Client) TotalCount() int64 {
	var t int64
	for _, v := range c.Counts {
		t += v
	}
	return t
}
