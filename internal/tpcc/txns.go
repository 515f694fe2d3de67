package tpcc

import (
	"fmt"

	"subthreads/internal/db"
	"subthreads/internal/mem"
	"subthreads/internal/trace"
)

// Mode controls how a transaction execution is recorded.
type Mode int

const (
	// ModeFlat records the whole transaction as one serial trace with no
	// TLS software transformations — the SEQUENTIAL binary of Figure 5.
	ModeFlat Mode = iota
	// ModeTLS decomposes the transaction at the parallelized loop into
	// serial and iteration segments and injects the TLS thread-management
	// software overhead — the binary used by TLS-SEQ and all parallel
	// experiments.
	ModeTLS
)

// Segment is one piece of a decomposed transaction: either a serial region
// or one loop iteration (a speculative thread).
type Segment struct {
	Trace *trace.Trace
	Iter  bool
}

// tlsSpawnOverhead / tlsEndOverhead are the extra instructions the TLS
// software transformation adds around each speculative thread (§4.3: the
// overhead impacts single-CPU performance by a few percent).
const (
	tlsSpawnOverhead = 120
	tlsEndOverhead   = 80
	serialSlot       = 0
)

// emitter drives one transaction execution, cutting the recorded stream into
// segments at loop boundaries. Its one Builder records every segment of the
// transaction, reset after each cut; an unrecorded execution has none and
// emits into trace.Null.
type emitter struct {
	d       *DB
	mode    Mode
	segs    []Segment
	b       *trace.Builder // nil when the execution is not recorded
	rec     trace.Recorder // b, or trace.Null
	curIter bool
	serial  *db.Ctx
	txn     *db.Txn
	iterIdx int
}

func newEmitter(d *DB, mode Mode, b *trace.Builder) *emitter {
	em := &emitter{d: d, mode: mode, b: b, rec: trace.Null{}}
	if b != nil {
		em.rec = b
	}
	em.serial = d.Env.NewCtx(em.rec, serialSlot)
	return em
}

// cut closes the current segment (if non-empty) and starts a new one.
func (em *emitter) cut(nextIter bool) {
	if em.b != nil && em.b.Instrs() > 0 {
		em.segs = append(em.segs, Segment{Trace: em.b.Finish(), Iter: em.curIter})
		em.b.Reset()
	}
	em.curIter = nextIter
}

// begin starts the transaction on the serial context.
func (em *emitter) begin() *db.Ctx {
	em.txn = em.serial.Begin()
	return em.serial
}

// beginIter starts recording one loop iteration. In flat mode it is a no-op
// returning the serial context; in TLS mode it opens a fresh segment with a
// per-iteration context (private stack slot) attached to the transaction.
func (em *emitter) beginIter() *db.Ctx {
	if em.mode == ModeFlat {
		return em.serial
	}
	em.cut(true)
	nslots := em.d.Env.Config().Contexts
	slot := 1 + em.iterIdx%(nslots-1)
	em.iterIdx++
	c := em.d.Env.NewCtx(em.rec, slot)
	c.AttachTxn(em.txn)
	c.Work("tls.spawn", tlsSpawnOverhead)
	return c
}

// endIter closes the current iteration.
func (em *emitter) endIter(c *db.Ctx) {
	if em.mode == ModeFlat {
		return
	}
	c.Work("tls.end", tlsEndOverhead)
}

// endLoop returns to serial recording after a parallelized loop.
func (em *emitter) endLoop() *db.Ctx {
	if em.mode == ModeFlat {
		return em.serial
	}
	em.cut(false)
	return em.serial
}

// finish commits nothing; it closes the final segment and returns the list.
func (em *emitter) finish() []Segment {
	em.cut(false)
	return em.segs
}

// RunTxn executes one transaction functionally while recording its
// decomposed trace. The database state advances exactly as a sequential
// execution would — the simulator's job is to preserve precisely these
// semantics under speculation. Every RunTxn on d records through d's one
// Builder, whose chunks the next transaction reuses.
func (d *DB) RunTxn(in Input, mode Mode) []Segment {
	return d.run(in, newEmitter(d, mode, d.rec))
}

// Warm executes one transaction exactly as RunTxn does, leaving the same
// database state and registering the same PCs, but records nothing: the
// warm-up that precedes a measured stream.
func (d *DB) Warm(in Input, mode Mode) {
	d.run(in, newEmitter(d, mode, nil))
}

// run executes in through em and returns the segments em recorded.
func (d *DB) run(in Input, em *emitter) []Segment {
	d.lastOut = d.lastOut[:0]
	switch in.Bench {
	case NewOrder, NewOrder150:
		d.newOrder(in, em)
	case Payment:
		d.payment(in, em)
	case OrderStatus:
		d.orderStatus(in, em)
	case Delivery:
		d.delivery(in, em, false)
	case DeliveryOuter:
		d.delivery(in, em, true)
	case StockLevel:
		d.stockLevel(in, em)
	default:
		panic(fmt.Sprintf("tpcc: unknown benchmark %v", in.Bench))
	}
	return em.finish()
}

// newOrder is the TPC-C NEW ORDER transaction with its per-order-line loop
// parallelized — the paper's flagship workload (§1, §4.1). Each order line
// reads ITEM, reads and updates STOCK, and inserts an ORDER_LINE row.
func (d *DB) newOrder(in Input, em *emitter) {
	sqlRow := d.Env.Config().Costs.SQLRow
	c := em.begin()

	c.Work("sql.neworder.begin", sqlRow)
	c.Lock(d.Warehouse, 1, false)
	d.wRow.ReadField(c, WTax)
	c.Lock(d.District, int64(in.D), true)
	drow, ok := d.District.GetForUpdate(c, int64(in.D))
	if !ok {
		panic("tpcc: district missing")
	}
	drow.ReadField(c, DTax)
	oid := drow.ReadField(c, DNextOID)
	drow.WriteField(c, DNextOID, oid+1)

	c.Work("sql.neworder.order", sqlRow)
	orow := d.Env.NewRow(c, oFields)
	orow.Fields[OCID] = int64(in.C)
	orow.Fields[OOLCnt] = int64(len(in.Items))
	orow.WriteField(c, OCID, int64(in.C))
	orow.WriteField(c, OOLCnt, int64(len(in.Items)))
	d.Order.Insert(c, OrderKey(in.D, oid), orow)
	norow := d.Env.NewRow(c, noFields)
	norow.WriteField(c, NOOID, oid)
	d.NewOrder.Insert(c, OrderKey(in.D, oid), norow)
	prevLast, hadLast := d.lastOrder[CustKey(in.D, in.C)]
	d.lastOrder[CustKey(in.D, in.C)] = oid
	d.out(oid, int64(len(in.Items)))

	for li, req := range in.Items {
		ic := em.beginIter()

		// SELECT i_price FROM item.
		ic.Work("sql.neworder.item", sqlRow)
		irow, ok := d.Item.Get(ic, int64(req.Item))
		if !ok {
			// TPC-C 2.4.1.4: an unused item number — the whole
			// transaction rolls back after its partial work.
			ic.Work("sql.neworder.notfound", sqlRow/4)
			em.endIter(ic)
			c = em.endLoop()
			c.Abort()
			if hadLast {
				d.lastOrder[CustKey(in.D, in.C)] = prevLast
			} else {
				delete(d.lastOrder, CustKey(in.D, in.C))
			}
			d.out(-1) // rolled back
			return
		}
		price := irow.ReadField(ic, IPrice)

		// SELECT ... FROM stock FOR UPDATE.
		ic.Work("sql.neworder.stockread", sqlRow)
		ic.Lock(d.Stock, int64(req.Item), true)
		srow, ok := d.Stock.GetForUpdate(ic, int64(req.Item))
		if !ok {
			panic("tpcc: stock missing")
		}
		q := srow.ReadField(ic, SQuantity)
		newq := q - int64(req.Qty)
		if newq < 10 {
			newq += 91
		}

		// UPDATE stock.
		ic.Work("sql.neworder.stockwrite", sqlRow)
		srow.WriteField(ic, SQuantity, newq)
		srow.WriteField(ic, SYtd, srow.Fields[SYtd]+int64(req.Qty))
		srow.WriteField(ic, SOrderCnt, srow.Fields[SOrderCnt]+1)

		// INSERT INTO order_line.
		ic.Work("sql.neworder.olinsert", sqlRow)
		amount := int64(req.Qty) * price
		olrow := d.Env.NewRow(ic, olFields)
		olrow.Fields[OLIID] = int64(req.Item)
		olrow.Fields[OLQty] = int64(req.Qty)
		olrow.WriteField(ic, OLAmount, amount)
		d.OrderLine.Insert(ic, OLKey(in.D, oid, li+1), olrow)
		d.out(amount, newq)

		em.endIter(ic)
	}

	c = em.endLoop()
	c.Work("sql.neworder.total", sqlRow/2)
	c.Commit()
}

// payment is TPC-C PAYMENT: warehouse/district YTD updates and a customer
// payment, with the customer selected by last name. The parallelized loop is
// the last-name candidate scan — short, which is why the paper finds PAYMENT
// "lacks significant parallelism in the transaction code".
func (d *DB) payment(in Input, em *emitter) {
	sqlRow := d.Env.Config().Costs.SQLRow
	c := em.begin()

	c.Work("sql.payment.warehouse", sqlRow)
	c.Lock(d.Warehouse, 1, true)
	d.wRow.WriteField(c, WYtd, d.wRow.Fields[WYtd]+100)
	c.Work("sql.payment.district", sqlRow)
	c.Lock(d.District, int64(in.D), true)
	drow, _ := d.District.GetForUpdate(c, int64(in.D))
	drow.WriteField(c, DYtd, drow.Fields[DYtd]+100)
	c.Work("sql.payment.setup", 4*sqlRow)

	cands := d.lastNameCandidates(in)
	for _, cid := range cands {
		ic := em.beginIter()
		ic.Work("sql.payment.cand", sqlRow)
		crow, ok := d.Customer.Get(ic, CustKey(in.D, cid))
		if !ok {
			panic("tpcc: customer missing")
		}
		crow.ReadField(ic, CBalance)
		crow.ReadField(ic, CLast)
		ic.Work("sql.payment.cand2", sqlRow)
		em.endIter(ic)
	}

	c = em.endLoop()
	chosen := cands[len(cands)/2]
	c.Work("sql.payment.update", sqlRow)
	c.Lock(d.Customer, CustKey(in.D, chosen), true)
	crow, _ := d.Customer.GetForUpdate(c, CustKey(in.D, chosen))
	crow.WriteField(c, CBalance, crow.Fields[CBalance]-100)
	crow.WriteField(c, CYtdPayment, crow.Fields[CYtdPayment]+100)
	crow.WriteField(c, CPaymentCnt, crow.Fields[CPaymentCnt]+1)
	d.out(int64(chosen), crow.Fields[CBalance])
	c.Work("sql.payment.history", sqlRow)
	d.histSeq++
	hrow := d.Env.NewRow(c, 2)
	hrow.WriteField(c, 0, CustKey(in.D, chosen))
	d.History.Insert(c, d.histSeq, hrow)
	c.Commit()
}

// orderStatus is TPC-C ORDER STATUS: look up a customer by last name, then
// read their most recent order and its lines. Like PAYMENT, the only loop
// worth parallelizing (the candidate scan) is short.
func (d *DB) orderStatus(in Input, em *emitter) {
	c := em.begin()
	c.Work("sql.orderstatus.setup", 6000)

	cands := d.lastNameCandidates(in)
	for _, cid := range cands {
		ic := em.beginIter()
		ic.Work("sql.orderstatus.cand", 4200)
		crow, _ := d.Customer.Get(ic, CustKey(in.D, cid))
		crow.ReadField(ic, CBalance)
		crow.ReadField(ic, CLast)
		em.endIter(ic)
	}

	c = em.endLoop()
	chosen := cands[len(cands)/2]
	oid, hasOrder := d.lastOrder[CustKey(in.D, chosen)]
	d.out(int64(chosen))
	c.Work("sql.orderstatus.order", 12000)
	if hasOrder {
		orow, ok := d.Order.Get(c, OrderKey(in.D, oid))
		if ok {
			nl := orow.ReadField(c, OOLCnt)
			d.out(oid, nl)
			orow.ReadField(c, OCarrierID)
			for l := int64(1); l <= nl; l++ {
				olrow, ok := d.OrderLine.Get(c, OLKey(in.D, oid, int(l)))
				if !ok {
					continue
				}
				olrow.ReadField(c, OLIID)
				olrow.ReadField(c, OLAmount)
				c.Work("sql.orderstatus.line", 1500)
			}
		}
	}
	c.Commit()
}

// delivery is TPC-C DELIVERY: for each of the 10 districts, deliver the
// oldest undelivered order — delete its NEW_ORDER row, stamp the carrier,
// update every order line's delivery date, and credit the customer. The
// paper parallelizes either the inner per-order-line loop (63% coverage,
// ~33k-instruction threads) or the outer per-district loop (99% coverage,
// ~490k-instruction threads).
func (d *DB) delivery(in Input, em *emitter, outer bool) {
	costs := d.Env.Config().Costs
	sqlRow := costs.SQLRow
	c := em.begin()
	c.Work("sql.delivery.begin", sqlRow/2)

	for dist := 1; dist <= d.Scale.Districts; dist++ {
		dc := c
		if outer {
			dc = em.beginIter()
		}

		// Find the oldest undelivered order in this district.
		dc.Work("sql.delivery.findorder", 2*sqlRow)
		var oid int64 = -1
		d.NewOrder.Scan(dc, OrderKey(dist, 0), 1, func(k int64, r *db.Row) bool {
			if k < OrderKey(dist+1, 0) {
				oid = r.Fields[NOOID]
			}
			return false
		})
		if oid < 0 {
			// No undelivered orders: skip the district (the TPC-C
			// "skipped delivery" case).
			d.out(-1)
			dc.Work("sql.delivery.skip", 400)
			if outer {
				em.endIter(dc)
			}
			continue
		}
		d.NewOrder.Delete(dc, OrderKey(dist, oid))
		d.oldestNewOrder[dist] = oid + 1

		dc.Work("sql.delivery.order", 2*sqlRow)
		orow, ok := d.Order.GetForUpdate(dc, OrderKey(dist, oid))
		if !ok {
			panic("tpcc: delivered order missing")
		}
		cid := orow.ReadField(dc, OCID)
		nl := orow.ReadField(dc, OOLCnt)
		orow.WriteField(dc, OCarrierID, int64(1+dist%10))
		dc.Work("sql.delivery.orderupd", 2*sqlRow)

		var sum int64
		for l := int64(1); l <= nl; l++ {
			lc := dc
			if !outer {
				lc = em.beginIter()
			}
			lc.Work("sql.delivery.line", sqlRow)
			olrow, ok := d.OrderLine.GetForUpdate(lc, OLKey(dist, oid, int(l)))
			if ok {
				sum += olrow.ReadField(lc, OLAmount)
				olrow.WriteField(lc, OLDeliveryD, int64(dist))
			}
			lc.Work("sql.delivery.lineupd", sqlRow)
			if !outer {
				em.endIter(lc)
			}
		}
		if !outer {
			dc = em.endLoop()
			c = dc
		}

		dc.Work("sql.delivery.customer", 2*sqlRow)
		dc.Lock(d.Customer, CustKey(dist, int(cid)), true)
		crow, ok := d.Customer.GetForUpdate(dc, CustKey(dist, int(cid)))
		if !ok {
			panic("tpcc: delivery customer missing")
		}
		crow.WriteField(dc, CBalance, crow.Fields[CBalance]+sum)
		crow.WriteField(dc, CDeliveryCnt, crow.Fields[CDeliveryCnt]+1)
		d.out(oid, cid, sum)

		if outer {
			em.endIter(dc)
		}
	}

	c = em.endLoop()
	c.Commit()
}

// stockLevel is TPC-C STOCK LEVEL: join the order lines of the district's 20
// most recent orders against STOCK and count items below the threshold. The
// parallelized loop is per recent order; the work is read-only, which is why
// this transaction approaches the NO SPECULATION upper bound once its cache
// behaviour allows.
func (d *DB) stockLevel(in Input, em *emitter) {
	c := em.begin()
	c.Work("sql.stocklevel.district", 4000)
	drow, _ := d.District.Get(c, int64(in.D))
	next := drow.ReadField(c, DNextOID)

	lo := next - 20
	if lo < 1 {
		lo = 1
	}
	distinct := map[int64]bool{}
	for o := lo; o < next; o++ {
		ic := em.beginIter()
		ic.Work("sql.stocklevel.order", 1800)
		orow, ok := d.Order.Get(ic, OrderKey(in.D, o))
		if !ok {
			em.endIter(ic)
			continue
		}
		nl := orow.ReadField(ic, OOLCnt)
		for l := int64(1); l <= nl; l++ {
			olrow, ok := d.OrderLine.Get(ic, OLKey(in.D, o, int(l)))
			if !ok {
				continue
			}
			item := olrow.ReadField(ic, OLIID)
			srow, ok := d.Stock.Get(ic, item)
			if !ok {
				continue
			}
			// Insert the joined row into the shared aggregation
			// workspace — the hash-join build every epoch writes,
			// a dependence the tuning process cannot remove.
			bucket := d.aggBase + mem.Addr(int(uint64(item)*0x9e3779b9%uint64(d.aggBuckets))*mem.LineSize)
			ic.EmitLoad("stocklevel.agg.load", bucket)
			ic.EmitALU(5)
			ic.EmitStore("stocklevel.agg.store", bucket)
			if srow.ReadField(ic, SQuantity) < int64(in.Threshold) {
				distinct[item] = true
			}
			ic.Work("sql.stocklevel.check", 300)
		}
		em.endIter(ic)
	}

	c = em.endLoop()
	// Final aggregation pass over the workspace.
	for i := 0; i < d.aggBuckets; i++ {
		c.EmitLoad("stocklevel.agg.scan", d.aggBase+mem.Addr(i*mem.LineSize))
		c.EmitALU(6)
	}
	c.Work("sql.stocklevel.count", 2000+len(distinct)*20)
	d.out(int64(len(distinct)))
	c.Commit()
}

// lastNameCandidates returns the customers in the input's district matching
// the last-name bucket, guaranteed non-empty by falling back to the bucket of
// customer in.C (functional lookup only — the emitted scan cost lives in the
// transaction bodies).
func (d *DB) lastNameCandidates(in Input) []int {
	collect := func(bucket int) []int {
		var out []int
		from := CustIdxKey(in.D, bucket, 0)
		to := CustIdxKey(in.D, bucket+1, 0)
		d.CustIdx.Scan(nil, from, 0, func(k int64, r *db.Row) bool {
			if k >= to {
				return false
			}
			out = append(out, int(r.Fields[0]))
			return true
		})
		return out
	}
	if cands := collect(in.CLast); len(cands) > 0 {
		return cands
	}
	crow, ok := d.Customer.Get(nil, CustKey(in.D, in.C))
	if !ok {
		panic("tpcc: fallback customer missing")
	}
	cands := collect(int(crow.Fields[CLast]))
	if len(cands) == 0 {
		panic("tpcc: customer not in its own last-name bucket")
	}
	return cands
}
