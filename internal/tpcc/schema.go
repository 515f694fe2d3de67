// Package tpcc implements the paper's experimental workload: the five TPC-C
// transactions (plus the NEW ORDER 150 and DELIVERY OUTER variants) running
// on the internal/db storage engine, configured as in §4.1 — a single
// warehouse, memory-resident data, transactions executed one at a time, and
// no terminal I/O, query planning, or wait times. As in the paper, the
// workload is written to match the TPC-C specification closely but is not
// validated; results are simulator speedups, not TPM-C.
package tpcc

import (
	"math/rand"

	"subthreads/internal/db"
	"subthreads/internal/mem"
	"subthreads/internal/trace"
)

// Scale sizes the single-warehouse dataset. The paper uses the full TPC-C
// cardinalities; the default here is scaled down so the whole experiment
// suite runs in minutes, which preserves per-thread work (set by the
// per-iteration code path, not the table sizes — only B-tree height changes,
// by one level).
type Scale struct {
	Districts            int
	CustomersPerDistrict int
	Items                int
	OrdersPerDistrict    int // pre-loaded order history
}

// DefaultScale is the scaled-down dataset for fast runs.
func DefaultScale() Scale {
	return Scale{
		Districts:            10,
		CustomersPerDistrict: 300,
		Items:                5000,
		OrdersPerDistrict:    120,
	}
}

// PaperScale is the full single-warehouse TPC-C dataset used by the paper.
func PaperScale() Scale {
	return Scale{
		Districts:            10,
		CustomersPerDistrict: 3000,
		Items:                100000,
		OrdersPerDistrict:    3000,
	}
}

// Field indices per table.
const (
	WTax = iota
	WYtd
	wFields
)
const (
	DTax = iota
	DYtd
	DNextOID
	dFields
)
const (
	CBalance = iota
	CYtdPayment
	CPaymentCnt
	CDeliveryCnt
	CLast // last-name bucket (0..999, per the TPC-C name distribution)
	CDiscount
	cFields
)
const (
	OCID = iota
	OOLCnt
	OCarrierID
	OEntryD
	oFields
)
const (
	NOOID = iota
	noFields
)
const (
	OLIID = iota
	OLQty
	OLAmount
	OLDeliveryD
	olFields
)
const (
	IPrice = iota
	IData
	iFields
)
const (
	SQuantity = iota
	SYtd
	SOrderCnt
	SRemoteCnt
	sFields
)

// DB is the loaded single-warehouse TPC-C database.
type DB struct {
	Env   *db.Env
	Scale Scale

	Warehouse *db.Tree
	District  *db.Tree
	Customer  *db.Tree
	CustIdx   *db.Tree // secondary index: (district, last-name bucket, c) -> customer row
	Order     *db.Tree
	NewOrder  *db.Tree
	OrderLine *db.Tree
	Item      *db.Tree
	Stock     *db.Tree
	History   *db.Tree

	wRow *db.Row

	// lastOrder tracks each customer's most recent order id (functional
	// bookkeeping for ORDER_STATUS).
	lastOrder map[int64]int64
	// oldestNewOrder tracks the delivery frontier per district.
	oldestNewOrder []int64
	histSeq        int64

	// aggBase is the STOCK LEVEL join/aggregation workspace: a shared
	// hash table every scanned order line inserts into — a genuine
	// cross-epoch dependence the tuning process cannot remove.
	aggBase    mem.Addr
	aggBuckets int

	// lastOut collects the most recent transaction's client-visible
	// result values (see LastOutput) for the differential oracle.
	lastOut []int64
	// rec records every RunTxn's transaction.
	rec *trace.Builder
}

// Key encodings (single warehouse).

// CustKey encodes (district, customer).
func CustKey(d, c int) int64 { return int64(d)*1_000_000 + int64(c) }

// CustIdxKey encodes (district, last-name bucket, customer) for the
// last-name secondary index.
func CustIdxKey(d, last, c int) int64 {
	return (int64(d)*1000+int64(last))*1_000_000 + int64(c)
}

// OrderKey encodes (district, order id).
func OrderKey(d int, o int64) int64 { return int64(d)*10_000_000 + o }

// OLKey encodes (district, order id, line number).
func OLKey(d int, o int64, l int) int64 { return OrderKey(d, o)*256 + int64(l) }

// Load builds and populates the database. Loading is functional only: no
// trace events are emitted (the paper does not time loading either).
func Load(env *db.Env, scale Scale, seed int64) *DB {
	d := &DB{
		Env:            env,
		Scale:          scale,
		Warehouse:      env.NewTree("warehouse"),
		District:       env.NewTree("district"),
		Customer:       env.NewTree("customer"),
		CustIdx:        env.NewTree("custidx"),
		Order:          env.NewTree("order"),
		NewOrder:       env.NewTree("neworder"),
		OrderLine:      env.NewTree("orderline"),
		Item:           env.NewTree("item"),
		Stock:          env.NewTree("stock"),
		History:        env.NewTree("history"),
		lastOrder:      make(map[int64]int64),
		oldestNewOrder: make([]int64, scale.Districts+1),
		aggBuckets:     64,
		rec:            trace.NewBuilder(),
	}
	d.aggBase = env.Misc().Alloc(uint32(d.aggBuckets*mem.LineSize), mem.LineSize)
	rng := rand.New(rand.NewSource(seed))

	d.wRow = d.Warehouse.LoadInsertPadded(1, int64(rng.Intn(2000)), 0)

	for dist := 1; dist <= scale.Districts; dist++ {
		d.District.LoadInsertPadded(int64(dist),
			int64(rng.Intn(2000)),            // D_TAX
			0,                                // D_YTD
			int64(scale.OrdersPerDistrict+1), // D_NEXT_O_ID
		)
		buckets := lastBuckets(scale)
		for c := 1; c <= scale.CustomersPerDistrict; c++ {
			last := rng.Intn(buckets)
			d.Customer.LoadInsert(CustKey(dist, c),
				-10_00,                // C_BALANCE (cents)
				10_00,                 // C_YTD_PAYMENT
				1,                     // C_PAYMENT_CNT
				0,                     // C_DELIVERY_CNT
				int64(last),           // C_LAST bucket
				int64(rng.Intn(5000)), // C_DISCOUNT
			)
			d.CustIdx.LoadInsert(CustIdxKey(dist, last, c), int64(c))
		}
	}

	for i := 1; i <= scale.Items; i++ {
		d.Item.LoadInsert(int64(i), int64(100+rng.Intn(9900)), int64(rng.Int31()))
		d.Stock.LoadInsert(int64(i), int64(10+rng.Intn(90)), 0, 0, 0)
	}

	// Order history: the most recent third of each district's orders are
	// undelivered (have NEW_ORDER rows), per the TPC-C initial population.
	for dist := 1; dist <= scale.Districts; dist++ {
		undeliveredFrom := scale.OrdersPerDistrict*2/3 + 1
		d.oldestNewOrder[dist] = int64(undeliveredFrom)
		for o := 1; o <= scale.OrdersPerDistrict; o++ {
			cid := 1 + rng.Intn(scale.CustomersPerDistrict)
			nLines := 5 + rng.Intn(11)
			carrier := int64(1 + rng.Intn(10))
			if o >= undeliveredFrom {
				carrier = 0
				d.NewOrder.LoadInsert(OrderKey(dist, int64(o)), int64(o))
			}
			d.Order.LoadInsert(OrderKey(dist, int64(o)),
				int64(cid), int64(nLines), carrier, int64(o))
			d.lastOrder[CustKey(dist, cid)] = int64(o)
			for l := 1; l <= nLines; l++ {
				item := 1 + rng.Intn(scale.Items)
				d.OrderLine.LoadInsert(OLKey(dist, int64(o), l),
					int64(item), int64(1+rng.Intn(10)), int64(rng.Intn(10000)), 0)
			}
		}
	}
	return d
}

// nuRand is the TPC-C non-uniform random distribution NURand(A, x, y).
func nuRand(rng *rand.Rand, a, x, y int) int {
	return ((rng.Intn(a+1)|(x+rng.Intn(y-x+1)))+12)%(y-x+1) + x
}
