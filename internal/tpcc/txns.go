package tpcc

import (
	"errors"
	"slices"

	"drtm/internal/chopping"
	"drtm/internal/tx"
)

// OrderLineInput is one line of a new-order request.
type OrderLineInput struct {
	ItemID   int
	SupplyW  int
	Quantity int
}

// edit returns a copy of v in the client's scratch row, for a body to change
// and hand to Local.Write, which copies it: valid until the next edit or blank.
func (c *Client) edit(v []uint64) []uint64 { return c.row[:copy(c.row[:], v)] }

// blank returns n zeroed words of the scratch row, for a body to fill in and
// hand to Local.Insert, which copies them.
func (c *Client) blank(n int) []uint64 {
	r := c.row[:n]
	clear(r)
	return r
}

// NewOrder executes the NEW transaction at warehouse w (the client's home
// warehouse), district d, for customer cu, ordering the given lines.
// Cross-warehouse supply lines make it a distributed transaction: their
// STOCK records are locked and fetched with one-sided RDMA in the Start
// phase; everything else (district sequence allocation, order/order-line
// inserts) is local. Returns the allocated order ID.
func (c *Client) NewOrder(wID, d, cu int, lines []OrderLineInput) (int, error) {
	var oID int
	err := c.e.Exec(func(t *tx.Tx) error {
		if err := t.R(TableWarehouse, WKey(wID)); err != nil {
			return err
		}
		if err := t.W(TableDistrict, DKey(wID, d)); err != nil {
			return err
		}
		if err := t.R(TableCustomer, CKey(wID, d, cu)); err != nil {
			return err
		}
		for _, l := range lines {
			if err := t.R(TableItem, IKey(l.ItemID)); err != nil {
				return err
			}
			if err := t.W(TableStock, SKey(l.SupplyW, l.ItemID)); err != nil {
				return err
			}
		}
		return t.Execute(func(lc *tx.Local) error {
			dv, err := lc.Read(TableDistrict, DKey(wID, d))
			if err != nil {
				return err
			}
			oID = int(dv[DNextOID])
			nd := c.edit(dv)
			nd[DNextOID]++
			if err := lc.Write(TableDistrict, DKey(wID, d), nd); err != nil {
				return err
			}
			if _, err := lc.Read(TableWarehouse, WKey(wID)); err != nil {
				return err
			}
			if _, err := lc.Read(TableCustomer, CKey(wID, d, cu)); err != nil {
				return err
			}

			allLocal := uint64(1)
			for ol, l := range lines {
				iv, err := lc.Read(TableItem, IKey(l.ItemID))
				if err != nil {
					// TPC-C: 1% of new-orders carry an unused item number
					// and must roll back (the user-initiated abort).
					if errors.Is(err, tx.ErrNotFound) {
						return tx.ErrUserAbort
					}
					return err
				}
				sv, err := lc.Read(TableStock, SKey(l.SupplyW, l.ItemID))
				if err != nil {
					return err
				}
				ns := c.edit(sv)
				if ns[SQuantity] >= uint64(l.Quantity)+10 {
					ns[SQuantity] -= uint64(l.Quantity)
				} else {
					ns[SQuantity] = ns[SQuantity] - uint64(l.Quantity) + 91
				}
				ns[SYtd] += uint64(l.Quantity)
				ns[SOrderCnt]++
				if l.SupplyW != wID {
					ns[SRemoteCnt]++
					allLocal = 0
				}
				if err := lc.Write(TableStock, SKey(l.SupplyW, l.ItemID), ns); err != nil {
					return err
				}

				olVal := c.blank(OLValueWords)
				olVal[OLIID] = uint64(l.ItemID)
				olVal[OLSupplyW] = uint64(l.SupplyW)
				olVal[OLQuantity] = uint64(l.Quantity)
				olVal[OLAmount] = uint64(l.Quantity) * iv[IPrice]
				lc.Insert(TableOrderLine, OLKey(wID, d, oID, ol+1), olVal)
			}

			oVal := c.blank(OValueWords)
			oVal[OCID] = uint64(cu)
			oVal[OOlCnt] = uint64(len(lines))
			oVal[OAllLocal] = allLocal
			lc.Insert(TableOrder, OKey(wID, d, oID), oVal)
			one := c.blank(1)
			one[0] = 1
			lc.Insert(TableNewOrder, OKey(wID, d, oID), one)
			one[0] = uint64(oID)
			lc.Insert(TableOrderCust, OCKey(wID, d, cu, oID), one)
			return nil
		})
	})
	return oID, err
}

// Payment executes PAY: the customer pays amount at warehouse w, district
// d; the customer may belong to a remote warehouse (cW, cD) — the
// cross-warehouse case of Table 5 — whose CUSTOMER record is then written
// through one-sided RDMA.
func (c *Client) Payment(wID, d, cW, cD, cu int, amount uint64, hSeq uint64) error {
	e := c.e
	return e.Exec(func(t *tx.Tx) error {
		if err := t.W(TableWarehouse, WKey(wID)); err != nil {
			return err
		}
		if err := t.W(TableDistrict, DKey(wID, d)); err != nil {
			return err
		}
		if err := t.W(TableCustomer, CKey(cW, cD, cu)); err != nil {
			return err
		}
		return t.Execute(func(lc *tx.Local) error {
			wv, err := lc.Read(TableWarehouse, WKey(wID))
			if err != nil {
				return err
			}
			nw := c.edit(wv)
			nw[WYtd] += amount
			if err := lc.Write(TableWarehouse, WKey(wID), nw); err != nil {
				return err
			}

			dv, err := lc.Read(TableDistrict, DKey(wID, d))
			if err != nil {
				return err
			}
			ndv := c.edit(dv)
			ndv[DYtd] += amount
			if err := lc.Write(TableDistrict, DKey(wID, d), ndv); err != nil {
				return err
			}

			cv, err := lc.Read(TableCustomer, CKey(cW, cD, cu))
			if err != nil {
				return err
			}
			nc := c.edit(cv)
			nc[CBalance] = i2u(u2i(nc[CBalance]) - int64(amount))
			nc[CYtdPayment] += amount
			nc[CPaymentCnt]++
			if err := lc.Write(TableCustomer, CKey(cW, cD, cu), nc); err != nil {
				return err
			}

			hVal := c.blank(HValueWords)
			hVal[0] = amount
			hVal[1] = uint64(wID)
			hVal[2] = uint64(d)
			hVal[3] = uint64(CKey(cW, cD, cu))
			lc.Insert(TableHistory, HKey(wID, e.Worker().Node.ID, e.Worker().ID, hSeq), hVal)
			return nil
		})
	})
}

// OrderStatus executes OS (read-only, local): the customer's latest order
// and its order lines, via the separate lease-based read-only scheme.
func (c *Client) OrderStatus(wID, d, cu int) (int, error) {
	var oID int
	err := c.e.ExecRO(func(ro *tx.RO) error {
		oID = 0
		if _, err := ro.Read(TableCustomer, CKey(wID, d, cu)); err != nil {
			return err
		}
		ck := CKey(wID, d, cu)
		idx := ro.ScanLocalDesc(TableOrderCust, ck<<24, ck<<24|0xFFFFFF, 1)
		if len(idx) == 0 {
			return nil // customer has no orders yet
		}
		oID = int(idx[0].Key & 0xFFFFFF)
		ov, err := ro.Read(TableOrder, OKey(wID, d, oID))
		if err != nil {
			return err
		}
		for ol := 1; ol <= int(ov[OOlCnt]); ol++ {
			if _, err := ro.Read(TableOrderLine, OLKey(wID, d, oID, ol)); err != nil {
				return err
			}
		}
		return nil
	})
	return oID, err
}

// Delivery executes DLY as a chopped transaction: one piece per district
// (the paper chops TPC-C so each piece fits HTM capacity). Each piece
// claims the district's oldest undelivered order via the
// next-delivery-order sequence field, marks it delivered, sums its order
// lines into the customer balance, and removes the NEW-ORDER entry.
// Returns the number of orders delivered.
func (c *Client) Delivery(wID, carrier int, parent uint64) (int, error) {
	c.dlyW, c.dlyCarrier, c.dlyDone = wID, carrier, 0
	err := chopping.Run(c.e, parent, c.dlyPieces)
	return c.dlyDone, err
}

// deliverDistrict is Delivery's piece for district d.
func (c *Client) deliverDistrict(e *tx.Executor, t *tx.Tx, d int) error {
	wID, carrier := c.dlyW, c.dlyCarrier
	// Reconnaissance (Section 4.1): discover the dependent parts of the
	// read/write set — the order to deliver and its line count — then verify
	// them inside the transaction.
	node := c.w.rt.C.Node(e.Worker().Node.ID)
	dv, ok := node.Unordered(TableDistrict).GetInto(DKey(wID, d), c.recon[:])
	if !ok {
		return tx.ErrNotFound
	}
	oID := int(dv[DNextDeliv])
	if uint64(oID) >= dv[DNextOID] {
		return t.Execute(func(lc *tx.Local) error { return nil }) // nothing to deliver
	}
	ov, ok := node.Ordered(TableOrder).GetInto(OKey(wID, d, oID), c.recon[:])
	if !ok {
		return tx.ErrNotFound
	}
	olCnt := int(ov[OOlCnt])
	cID := int(ov[OCID])

	if err := t.W(TableDistrict, DKey(wID, d)); err != nil {
		return err
	}
	if err := t.W(TableOrder, OKey(wID, d, oID)); err != nil {
		return err
	}
	if err := t.W(TableCustomer, CKey(wID, d, cID)); err != nil {
		return err
	}
	for ol := 1; ol <= olCnt; ol++ {
		if err := t.W(TableOrderLine, OLKey(wID, d, oID, ol)); err != nil {
			return err
		}
	}
	did := false
	err := t.Execute(func(lc *tx.Local) error {
		did = false
		cur, err := lc.Read(TableDistrict, DKey(wID, d))
		if err != nil {
			return err
		}
		if int(cur[DNextDeliv]) != oID {
			return tx.ErrRetry // another delivery won the race; re-recon
		}
		nd := c.edit(cur)
		nd[DNextDeliv]++
		if err := lc.Write(TableDistrict, DKey(wID, d), nd); err != nil {
			return err
		}

		ovv, err := lc.Read(TableOrder, OKey(wID, d, oID))
		if err != nil {
			return err
		}
		no := c.edit(ovv)
		no[OCarrier] = uint64(carrier)
		if err := lc.Write(TableOrder, OKey(wID, d, oID), no); err != nil {
			return err
		}

		var total uint64
		for ol := 1; ol <= olCnt; ol++ {
			olv, err := lc.Read(TableOrderLine, OLKey(wID, d, oID, ol))
			if err != nil {
				return err
			}
			total += olv[OLAmount]
			nol := c.edit(olv)
			nol[OLDeliveryD] = 1
			if err := lc.Write(TableOrderLine, OLKey(wID, d, oID, ol), nol); err != nil {
				return err
			}
		}

		cv, err := lc.Read(TableCustomer, CKey(wID, d, cID))
		if err != nil {
			return err
		}
		nc := c.edit(cv)
		nc[CBalance] = i2u(u2i(nc[CBalance]) + int64(total))
		nc[CDeliveryCnt]++
		if err := lc.Write(TableCustomer, CKey(wID, d, cID), nc); err != nil {
			return err
		}

		lc.Delete(TableNewOrder, OKey(wID, d, oID))
		did = true
		return nil
	})
	if err == nil && did {
		c.dlyDone++
	}
	return err
}

// StockLevel executes SL (read-only, local): count distinct items of the
// district's last 20 orders whose stock is below the threshold. Its read
// set (hundreds of records) is exactly why the paper gives read-only
// transactions their own non-HTM scheme (Section 4.5).
func (c *Client) StockLevel(wID, d int, threshold uint64) (int, error) {
	low := 0
	err := c.e.ExecRO(func(ro *tx.RO) error {
		low = 0
		dv, err := ro.Read(TableDistrict, DKey(wID, d))
		if err != nil {
			return err
		}
		nextO := int(dv[DNextOID])
		from := nextO - 20
		if from < 1 {
			from = 1
		}
		loKey := (DKey(wID, d)<<32 | uint64(from)) << 4
		hiKey := (DKey(wID, d)<<32 | uint64(nextO)) << 4
		items := c.items[:0]
		for _, ko := range ro.ScanLocal(TableOrderLine, loKey, hiKey, 0) {
			olv, err := ro.ReadAtLocal(TableOrderLine, ko.Off)
			if err != nil {
				return err
			}
			items = append(items, olv[OLIID])
		}
		// Each distinct item once, in ascending order: the same reads in the
		// same order for the same orders.
		slices.Sort(items)
		items = slices.Compact(items)
		c.items = items
		for _, iID := range items {
			sv, err := ro.Read(TableStock, SKey(wID, int(iID)))
			if err != nil {
				return err
			}
			if sv[SQuantity] < threshold {
				low++
			}
		}
		return nil
	})
	return low, err
}
