package tpcc

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"subthreads/internal/db"
	"subthreads/internal/mem"
	"subthreads/internal/trace"
)

func tinyScale() Scale {
	return Scale{Districts: 4, CustomersPerDistrict: 60, Items: 400, OrdersPerDistrict: 30}
}

func loadTiny(t *testing.T, opt db.OptFlags) *DB {
	t.Helper()
	cfg := db.DefaultConfig()
	cfg.Opt = opt
	env := db.NewEnv(cfg)
	return Load(env, tinyScale(), 1)
}

func TestLoadPopulatesTables(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	s := tinyScale()
	if d.Warehouse.Size != 1 {
		t.Errorf("warehouse size = %d", d.Warehouse.Size)
	}
	if d.District.Size != s.Districts {
		t.Errorf("district size = %d", d.District.Size)
	}
	if d.Customer.Size != s.Districts*s.CustomersPerDistrict {
		t.Errorf("customer size = %d", d.Customer.Size)
	}
	if d.Item.Size != s.Items || d.Stock.Size != s.Items {
		t.Errorf("item/stock sizes = %d/%d", d.Item.Size, d.Stock.Size)
	}
	if d.Order.Size != s.Districts*s.OrdersPerDistrict {
		t.Errorf("order size = %d", d.Order.Size)
	}
	// A third of orders are undelivered.
	undelivered := s.OrdersPerDistrict - s.OrdersPerDistrict*2/3
	if d.NewOrder.Size != s.Districts*undelivered {
		t.Errorf("neworder size = %d, want %d", d.NewOrder.Size, s.Districts*undelivered)
	}
	if d.OrderLine.Size < d.Order.Size*5 || d.OrderLine.Size > d.Order.Size*15 {
		t.Errorf("orderline size = %d for %d orders", d.OrderLine.Size, d.Order.Size)
	}
	// District next order id points past the loaded history.
	row, ok := d.District.Get(nil, 1)
	if !ok || row.Fields[DNextOID] != int64(s.OrdersPerDistrict+1) {
		t.Errorf("D_NEXT_O_ID = %v, %v", row, ok)
	}
}

func TestLoadDeterministic(t *testing.T) {
	d1 := loadTiny(t, db.OptAll())
	d2 := loadTiny(t, db.OptAll())
	if d1.Customer.Size != d2.Customer.Size || d1.OrderLine.Size != d2.OrderLine.Size {
		t.Error("same seed produced different databases")
	}
}

func TestKeyEncodings(t *testing.T) {
	if CustKey(3, 42) == CustKey(4, 42) || CustKey(3, 42) == CustKey(3, 43) {
		t.Error("CustKey collisions")
	}
	// Order keys must sort by district then order id.
	if !(OrderKey(1, 999999) < OrderKey(2, 1)) {
		t.Error("OrderKey ordering broken")
	}
	// Up to 255 order lines must not collide with the next order.
	if !(OLKey(1, 5, 255) < OLKey(1, 6, 1)) {
		t.Error("OLKey line range collides with next order")
	}
	if OLKey(1, 5, 1) == OLKey(1, 5, 2) {
		t.Error("OLKey line collision")
	}
}

func TestGenInputs(t *testing.T) {
	s := tinyScale()
	ins := GenInputs(NewOrder, s, 7, 50)
	if len(ins) != 50 {
		t.Fatalf("got %d inputs", len(ins))
	}
	for _, in := range ins {
		if in.D < 1 || in.D > s.Districts {
			t.Fatalf("district %d out of range", in.D)
		}
		if in.C < 1 || in.C > s.CustomersPerDistrict {
			t.Fatalf("customer %d out of range", in.C)
		}
		if len(in.Items) < 5 || len(in.Items) > 15 {
			t.Fatalf("%d items", len(in.Items))
		}
		seen := map[int]bool{}
		for _, it := range in.Items {
			if it.Item < 1 || it.Item > s.Items || it.Qty < 1 || it.Qty > 10 {
				t.Fatalf("bad item %+v", it)
			}
			if seen[it.Item] {
				t.Fatalf("duplicate item %d", it.Item)
			}
			seen[it.Item] = true
		}
	}
	// Determinism.
	again := GenInputs(NewOrder, s, 7, 50)
	for i := range ins {
		if ins[i].D != again[i].D || ins[i].C != again[i].C || len(ins[i].Items) != len(again[i].Items) {
			t.Fatal("inputs not deterministic")
		}
	}
}

func TestGenInputs150(t *testing.T) {
	ins := GenInputs(NewOrder150, PaperScale(), 7, 10)
	for _, in := range ins {
		if len(in.Items) < 50 || len(in.Items) > 150 {
			t.Fatalf("NEW ORDER 150 with %d items", len(in.Items))
		}
	}
}

func TestNewOrderFunctionalEffects(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	s := tinyScale()
	in := GenInputs(NewOrder, s, 9, 1)[0]
	before, _ := d.District.Get(nil, int64(in.D))
	oidBefore := before.Fields[DNextOID]
	ordersBefore := d.Order.Size
	olBefore := d.OrderLine.Size

	segs := d.RunTxn(in, ModeTLS)

	after, _ := d.District.Get(nil, int64(in.D))
	if after.Fields[DNextOID] != oidBefore+1 {
		t.Errorf("D_NEXT_O_ID %d -> %d", oidBefore, after.Fields[DNextOID])
	}
	if d.Order.Size != ordersBefore+1 {
		t.Errorf("order count %d -> %d", ordersBefore, d.Order.Size)
	}
	if d.OrderLine.Size != olBefore+len(in.Items) {
		t.Errorf("orderline grew by %d, want %d", d.OrderLine.Size-olBefore, len(in.Items))
	}
	// Decomposition: one iteration per order line, serial pre/post.
	iters := 0
	for _, seg := range segs {
		if seg.Iter {
			iters++
		}
	}
	if iters != len(in.Items) {
		t.Errorf("iterations = %d, want %d", iters, len(in.Items))
	}
	if segs[0].Iter || segs[len(segs)-1].Iter {
		t.Error("transaction must start and end with serial segments")
	}
	// The order row is readable.
	orow, ok := d.Order.Get(nil, OrderKey(in.D, oidBefore))
	if !ok || orow.Fields[OOLCnt] != int64(len(in.Items)) {
		t.Errorf("order row = %v, %v", orow, ok)
	}
}

func TestFlatModeSingleSegment(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	in := GenInputs(NewOrder, tinyScale(), 9, 1)[0]
	segs := d.RunTxn(in, ModeFlat)
	if len(segs) != 1 || segs[0].Iter {
		t.Fatalf("flat mode produced %d segments", len(segs))
	}
}

func TestTLSOverheadSmall(t *testing.T) {
	// The TLS software transformation must cost only a few percent
	// (the paper reports 0.93x-1.05x for TLS-SEQ).
	dFlat := loadTiny(t, db.OptAll())
	dTLS := loadTiny(t, db.OptAll())
	ins := GenInputs(NewOrder, tinyScale(), 9, 5)
	var flat, tls uint64
	for _, in := range ins {
		for _, seg := range dFlat.RunTxn(in, ModeFlat) {
			flat += seg.Trace.Instrs()
		}
		for _, seg := range dTLS.RunTxn(in, ModeTLS) {
			tls += seg.Trace.Instrs()
		}
	}
	ratio := float64(tls) / float64(flat)
	if ratio < 1.0 || ratio > 1.10 {
		t.Errorf("TLS software overhead ratio = %.3f, want 1.00-1.10", ratio)
	}
}

func TestDeliveryConsumesNewOrders(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	in := GenInputs(Delivery, tinyScale(), 9, 1)[0]
	noBefore := d.NewOrder.Size
	d.RunTxn(in, ModeTLS)
	if d.NewOrder.Size != noBefore-tinyScale().Districts {
		t.Errorf("NEW_ORDER %d -> %d, want one delivered per district",
			noBefore, d.NewOrder.Size)
	}
	// A second delivery consumes the next batch.
	d.RunTxn(in, ModeTLS)
	if d.NewOrder.Size != noBefore-2*tinyScale().Districts {
		t.Errorf("second delivery: NEW_ORDER = %d", d.NewOrder.Size)
	}
}

func TestDeliveryOuterSameEffectsAsInner(t *testing.T) {
	dI := loadTiny(t, db.OptAll())
	dO := loadTiny(t, db.OptAll())
	in := GenInputs(Delivery, tinyScale(), 9, 1)[0]
	inO := in
	inO.Bench = DeliveryOuter
	dI.RunTxn(in, ModeTLS)
	dO.RunTxn(inO, ModeTLS)
	if dI.NewOrder.Size != dO.NewOrder.Size {
		t.Errorf("inner/outer delivery diverged: %d vs %d", dI.NewOrder.Size, dO.NewOrder.Size)
	}
	// Outer: one iteration per district; inner: one per order line.
	segsO := dO.RunTxn(inO, ModeTLS)
	iters := 0
	for _, s := range segsO {
		if s.Iter {
			iters++
		}
	}
	if iters != tinyScale().Districts {
		t.Errorf("outer iterations = %d, want %d", iters, tinyScale().Districts)
	}
}

func TestStockLevelRuns(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	in := GenInputs(StockLevel, tinyScale(), 9, 1)[0]
	segs := d.RunTxn(in, ModeTLS)
	iters := 0
	for _, s := range segs {
		if s.Iter {
			iters++
		}
	}
	if iters < 10 || iters > 20 {
		t.Errorf("stock level iterations = %d, want ~20 recent orders", iters)
	}
}

func TestPaymentUpdatesBalances(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	in := GenInputs(Payment, tinyScale(), 9, 1)[0]
	wBefore := d.wRow.Fields[WYtd]
	d.RunTxn(in, ModeTLS)
	if d.wRow.Fields[WYtd] != wBefore+100 {
		t.Errorf("W_YTD %d -> %d", wBefore, d.wRow.Fields[WYtd])
	}
}

func TestOrderStatusReadOnly(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	in := GenInputs(OrderStatus, tinyScale(), 9, 1)[0]
	orders := d.Order.Size
	lines := d.OrderLine.Size
	d.RunTxn(in, ModeTLS)
	if d.Order.Size != orders || d.OrderLine.Size != lines {
		t.Error("ORDER STATUS modified the database")
	}
}

func TestLastNameCandidatesNonEmpty(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	for _, in := range GenInputs(Payment, tinyScale(), 11, 40) {
		cands := d.lastNameCandidates(in)
		if len(cands) == 0 {
			t.Fatalf("no candidates for %+v", in)
		}
	}
}

func TestBenchmarkNames(t *testing.T) {
	for _, b := range All() {
		got, err := Parse(b.String())
		if err != nil || got != b {
			t.Errorf("Parse(%q) = %v, %v", b.String(), got, err)
		}
	}
	if _, err := Parse("NOPE"); err == nil {
		t.Error("Parse of unknown name succeeded")
	}
	if len(TLSProfitable()) != 5 {
		t.Error("Figure 6 sweeps 5 benchmarks")
	}
}

func TestStateAdvancesIdenticallyAcrossModes(t *testing.T) {
	// The SEQUENTIAL and TLS experiment variants must see identical
	// database evolution for the comparison to be fair.
	dA := loadTiny(t, db.OptNone())
	dB := loadTiny(t, db.OptAll())
	ins := GenInputs(NewOrder, tinyScale(), 13, 6)
	for _, in := range ins {
		dA.RunTxn(in, ModeFlat)
		dB.RunTxn(in, ModeTLS)
	}
	if dA.Order.Size != dB.Order.Size || dA.OrderLine.Size != dB.OrderLine.Size {
		t.Error("optimization flags changed functional behaviour")
	}
	ra, _ := dA.District.Get(nil, 1)
	rb, _ := dB.District.Get(nil, 1)
	if ra.Fields[DNextOID] != rb.Fields[DNextOID] {
		t.Error("district sequence diverged across modes")
	}
}

func TestNewOrderRollback(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	in := GenInputs(NewOrder, tinyScale(), 9, 1)[0]
	in.Rollback = true
	in.Items[len(in.Items)-1].Item = -1

	before, _ := d.District.Get(nil, int64(in.D))
	oidBefore := before.Fields[DNextOID]
	orders := d.Order.Size
	lines := d.OrderLine.Size
	newOrders := d.NewOrder.Size
	srowBefore, _ := d.Stock.Get(nil, int64(in.Items[0].Item))
	qtyBefore := srowBefore.Fields[SQuantity]

	segs := d.RunTxn(in, ModeTLS)
	if len(segs) == 0 {
		t.Fatal("rollback txn produced no trace")
	}

	// Everything must be as it was: the undo log reverted the partial
	// work (district sequence, order/new-order/order-line inserts, stock
	// updates).
	after, _ := d.District.Get(nil, int64(in.D))
	if after.Fields[DNextOID] != oidBefore {
		t.Errorf("D_NEXT_O_ID not rolled back: %d -> %d", oidBefore, after.Fields[DNextOID])
	}
	if d.Order.Size != orders || d.OrderLine.Size != lines || d.NewOrder.Size != newOrders {
		t.Errorf("inserts not rolled back: orders %d->%d lines %d->%d",
			orders, d.Order.Size, lines, d.OrderLine.Size)
	}
	srowAfter, _ := d.Stock.Get(nil, int64(in.Items[0].Item))
	if srowAfter.Fields[SQuantity] != qtyBefore {
		t.Errorf("stock update not rolled back: %d -> %d", qtyBefore, srowAfter.Fields[SQuantity])
	}
	// A later transaction reuses the order id without duplicate-key
	// panics.
	in2 := GenInputs(NewOrder, tinyScale(), 10, 1)[0]
	in2.D = in.D
	d.RunTxn(in2, ModeTLS)
}

func TestRollbackInputsGenerated(t *testing.T) {
	ins := GenInputs(NewOrder, tinyScale(), 3, 1000)
	n := 0
	for _, in := range ins {
		if in.Rollback {
			n++
			if in.Items[len(in.Items)-1].Item != -1 {
				t.Fatal("rollback input lacks invalid item")
			}
		}
	}
	if n < 3 || n > 30 {
		t.Errorf("rollback rate = %d/1000, want ~1%%", n)
	}
}

func TestDeliverySkipsExhaustedDistricts(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	in := GenInputs(Delivery, tinyScale(), 9, 1)[0]
	// Drain every district's undelivered orders.
	for d.NewOrder.Size > 0 {
		d.RunTxn(in, ModeTLS)
	}
	orders := d.Order.Size
	segs := d.RunTxn(in, ModeTLS) // nothing left: all districts skip
	if d.NewOrder.Size != 0 || d.Order.Size != orders {
		t.Error("exhausted delivery modified state")
	}
	if len(segs) == 0 {
		t.Error("skip path emitted no trace")
	}
}

func TestStockLevelAggregationEmission(t *testing.T) {
	d := loadTiny(t, db.OptAll())
	in := GenInputs(StockLevel, tinyScale(), 9, 1)[0]
	segs := d.RunTxn(in, ModeTLS)
	// Every iteration must write the shared aggregation workspace (the
	// hard dependence), and the final count must read it serially.
	aggStores := 0
	for _, seg := range segs {
		if !seg.Iter {
			continue
		}
		for _, p := range seg.Trace.Events() {
			ev := p.Event()
			if ev.Addr >= d.aggBase && ev.Addr < d.aggBase+mem.Addr(d.aggBuckets*mem.LineSize) {
				aggStores++
			}
		}
	}
	if aggStores == 0 {
		t.Error("stock level iterations never touch the shared aggregation workspace")
	}
}

// Warm leaves the database, its PCs and the next recorded transaction
// exactly as RunTxn does, and records nothing on the way: it allocates less
// than half of what the entries RunTxn recorded take alone, where recording
// them costs twice that (the Builder's chunks and Finish's copy).
func TestWarmRecordsNothing(t *testing.T) {
	for _, b := range []Benchmark{NewOrder, Payment, OrderStatus, Delivery, DeliveryOuter, StockLevel} {
		for _, mode := range []Mode{ModeFlat, ModeTLS} {
			rec, warm := loadTiny(t, db.OptAll()), loadTiny(t, db.OptAll())
			ins := GenInputs(b, tinyScale(), 5, 3)
			var entries uint64
			for _, in := range ins[:2] {
				for _, seg := range rec.RunTxn(in, mode) {
					entries += uint64(len(seg.Trace.Events()))
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for _, in := range ins[:2] {
				warm.Warm(in, mode)
			}
			runtime.ReadMemStats(&after)
			n, size := after.TotalAlloc-before.TotalAlloc, entries*uint64(unsafe.Sizeof(trace.Packed(0)))
			if n >= size/2 {
				t.Errorf("%v mode %d: Warm allocated %d bytes; the %d entries RunTxn recorded take %d", b, mode, n, entries, size)
			}
			if warm.Env.StateDigest() != rec.Env.StateDigest() ||
				!reflect.DeepEqual(warm.Env.PCs.Names(), rec.Env.PCs.Names()) {
				t.Errorf("%v mode %d: Warm left another database state or PC registry than RunTxn", b, mode)
			}
			if !reflect.DeepEqual(warm.RunTxn(ins[2], mode), rec.RunTxn(ins[2], mode)) {
				t.Errorf("%v mode %d: the transaction after Warm recorded another trace", b, mode)
			}
		}
	}
}
