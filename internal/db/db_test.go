package db

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/trace"
)

func newTestEnv(opt OptFlags) *Env {
	cfg := DefaultConfig()
	cfg.Opt = opt
	cfg.NodeCapacity = 8 // force splits with few keys
	return NewEnv(cfg)
}

func TestBTreeFunctionalAgainstMap(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	ref := map[int64][]int64{}
	rng := rand.New(rand.NewSource(7))
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()

	for i := 0; i < 2000; i++ {
		k := int64(rng.Intn(5000))
		if _, dup := ref[k]; dup {
			continue
		}
		row := e.NewRow(c, 2)
		row.Fields[0] = k * 10
		tree.Insert(c, k, row)
		ref[k] = row.Fields[:row.NumFields()]
	}
	if tree.Size != len(ref) {
		t.Fatalf("Size = %d, want %d", tree.Size, len(ref))
	}
	if tree.Splits == 0 || tree.Height() < 2 {
		t.Errorf("no splits happened (Splits=%d Height=%d)", tree.Splits, tree.Height())
	}
	for k, want := range ref {
		row, ok := tree.Get(c, k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		if row.Fields[0] != want[0] {
			t.Fatalf("key %d: field = %d, want %d", k, row.Fields[0], want[0])
		}
	}
	// Absent keys miss.
	for i := 0; i < 100; i++ {
		k := int64(5000 + rng.Intn(1000))
		if _, ok := tree.Get(c, k); ok {
			t.Fatalf("phantom key %d", k)
		}
	}
}

func TestBTreeDelete(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	for k := int64(0); k < 100; k++ {
		tree.Insert(c, k, e.NewRow(c, 1))
	}
	for k := int64(0); k < 100; k += 2 {
		if !tree.Delete(c, k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if tree.Delete(c, 0) {
		t.Fatal("double delete succeeded")
	}
	for k := int64(0); k < 100; k++ {
		_, ok := tree.Get(c, k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("Get(%d) = %v, want %v", k, ok, want)
		}
	}
	if tree.Size != 50 {
		t.Errorf("Size = %d", tree.Size)
	}
}

func TestBTreeScan(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	for k := int64(0); k < 200; k += 2 {
		r := e.NewRow(c, 1)
		r.Fields[0] = k
		tree.Insert(c, k, r)
	}
	var got []int64
	tree.Scan(c, 50, 10, func(k int64, r *Row) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 10 || got[0] != 50 || got[9] != 68 {
		t.Errorf("Scan = %v", got)
	}
	// Early stop.
	n := 0
	tree.Scan(c, 0, 0, func(k int64, r *Row) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early-stop scan visited %d", n)
	}
	// Full scan is ordered.
	var all []int64
	tree.Scan(c, -1, 0, func(k int64, r *Row) bool {
		all = append(all, k)
		return true
	})
	if len(all) != 100 {
		t.Fatalf("full scan = %d entries", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatalf("scan out of order at %d: %v", i, all[i-2:i+1])
		}
	}
}

func TestBTreeRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := newTestEnv(OptAll())
		tree := e.NewTree("t")
		c := e.NewCtx(trace.Null{}, 0)
		c.Begin()
		ref := map[int64]bool{}
		for i := 0; i < 500; i++ {
			k := int64(rng.Intn(300))
			switch rng.Intn(3) {
			case 0:
				if !ref[k] {
					tree.Insert(c, k, e.NewRow(c, 1))
					ref[k] = true
				}
			case 1:
				if tree.Delete(c, k) != ref[k] {
					return false
				}
				ref[k] = false
			case 2:
				if _, ok := tree.Get(c, k); ok != ref[k] {
					return false
				}
			}
		}
		n := 0
		for _, live := range ref {
			if live {
				n++
			}
		}
		return tree.Size == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	tree.Insert(c, 1, e.NewRow(c, 1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate insert did not panic")
		}
	}()
	tree.Insert(c, 1, e.NewRow(c, 1))
}

func TestLoadInsertEmitsNothing(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	for k := int64(0); k < 50; k++ {
		tree.LoadInsert(k, k*2)
	}
	if tree.Size != 50 {
		t.Errorf("Size = %d", tree.Size)
	}
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	r, ok := tree.Get(c, 7)
	if !ok || r.Fields[0] != 14 {
		t.Errorf("Get(7) = %v,%v", r, ok)
	}
}

func countKind(tr *trace.Trace, k isa.Kind) int {
	return int(tr.Count(k))
}

// recordOp runs fn with a fresh recording context and returns the trace.
func recordOp(e *Env, slot int, fn func(c *Ctx)) *trace.Trace {
	b := trace.NewBuilder()
	c := e.NewCtx(b, slot)
	c.Begin()
	fn(c)
	return b.Finish()
}

func TestWorkEmitsExactInstructionCount(t *testing.T) {
	e := newTestEnv(OptAll())
	for _, n := range []int{0, 1, 35, 36, 37, 1000, 5431} {
		b := trace.NewBuilder()
		c := e.NewCtx(b, 0)
		c.Work("x", n)
		if got := b.Finish().Instrs(); got != uint64(n) {
			t.Errorf("Work(%d) emitted %d instructions", n, got)
		}
	}
}

func TestWorkMixIsRealistic(t *testing.T) {
	e := newTestEnv(OptAll())
	b := trace.NewBuilder()
	c := e.NewCtx(b, 0)
	c.Work("x", 36000)
	tr := b.Finish()
	frac := func(k isa.Kind) float64 { return float64(tr.Count(k)) / float64(tr.Instrs()) }
	if f := frac(isa.Branch); f < 0.04 || f > 0.08 {
		t.Errorf("branch fraction = %.3f", f)
	}
	if f := frac(isa.Load) + frac(isa.Store); f < 0.04 || f > 0.09 {
		t.Errorf("memory fraction = %.3f", f)
	}
}

func TestWorkStackAddressesArePrivateAndSmall(t *testing.T) {
	e := newTestEnv(OptAll())
	b0 := trace.NewBuilder()
	c0 := e.NewCtx(b0, 0)
	c0.Work("x", 3600)
	b1 := trace.NewBuilder()
	c1 := e.NewCtx(b1, 1)
	c1.Work("x", 3600)
	lines0 := map[mem.Addr]bool{}
	for _, p := range b0.Finish().Events() {
		ev := p.Event()
		if ev.Kind.IsMemory() {
			lines0[ev.Addr.Line()] = true
		}
	}
	if len(lines0) > ctxStackLines {
		t.Errorf("slot 0 touched %d lines, want <= %d", len(lines0), ctxStackLines)
	}
	for _, p := range b1.Finish().Events() {
		ev := p.Event()
		if ev.Kind.IsMemory() && lines0[ev.Addr.Line()] {
			t.Fatalf("slots share stack line %v", ev.Addr.Line())
		}
	}
}

func TestLatchEmissionByOptLevel(t *testing.T) {
	lazy := newTestEnv(OptAll())
	tree := lazy.NewTree("t")
	tree.LoadInsert(1, 1)
	tr := recordOp(lazy, 0, func(c *Ctx) { tree.Get(c, 1) })
	if countKind(tr, isa.LatchAcquire) != 0 {
		t.Error("LazyLatches still emitted escaped latches")
	}

	eager := newTestEnv(OptNone())
	tree2 := eager.NewTree("t")
	tree2.LoadInsert(1, 1)
	tr = recordOp(eager, 0, func(c *Ctx) { tree2.Get(c, 1) })
	acq, rel := countKind(tr, isa.LatchAcquire), countKind(tr, isa.LatchRelease)
	if acq == 0 {
		t.Fatal("unoptimized engine emitted no escaped latches")
	}
	if acq != rel {
		t.Errorf("latch acquire/release unbalanced: %d vs %d", acq, rel)
	}
}

func TestLogTailDependenceRemovedByPerEpochLog(t *testing.T) {
	shared := newTestEnv(OptNone())
	trShared := recordOp(shared, 0, func(c *Ctx) { shared.log.record(c, 8) })
	tailStores := 0
	for _, p := range trShared.Events() {
		ev := p.Event()
		if ev.Kind == isa.Store && ev.Addr.Line() == shared.log.tail.Line() {
			tailStores++
		}
	}
	if tailStores == 0 {
		t.Fatal("unoptimized log never stored the shared tail")
	}

	private := newTestEnv(OptAll())
	// Two contexts append: their stores must hit disjoint lines and never
	// the tail.
	tr0 := recordOp(private, 0, func(c *Ctx) { private.log.record(c, 8) })
	tr1 := recordOp(private, 1, func(c *Ctx) { private.log.record(c, 8) })
	lines0 := map[mem.Addr]bool{}
	for _, p := range tr0.Events() {
		ev := p.Event()
		if ev.Kind == isa.Store && private.logReg.Contains(ev.Addr) {
			lines0[ev.Addr.Line()] = true
		}
		if ev.Kind == isa.Store && ev.Addr.Line() == private.log.tail.Line() {
			t.Fatal("PerEpochLog still stored the shared tail in the loop body")
		}
	}
	for _, p := range tr1.Events() {
		ev := p.Event()
		if ev.Kind == isa.Store && lines0[ev.Addr.Line()] {
			t.Fatal("two contexts share a log buffer line")
		}
	}
}

// lockStores records a single Lock call in isolation and counts its stores
// to shared lock-table metadata.
func lockStores(e *Env, c *Ctx, tree *Tree, key int64) int {
	b := trace.NewBuilder()
	c.rec = b
	c.Lock(tree, key, true)
	n := 0
	for _, p := range b.Finish().Events() {
		ev := p.Event()
		if ev.Kind == isa.Store && e.misc.Contains(ev.Addr) {
			n++
		}
	}
	return n
}

func TestLockInheritance(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	if s := lockStores(e, c, tree, 42); s == 0 {
		t.Error("first acquisition emitted no lock-table store")
	}
	if s := lockStores(e, c, tree, 42); s != 0 {
		t.Errorf("inherited lock emitted %d lock-table stores", s)
	}
	if e.locks.Inherited != 1 || e.locks.Acquired != 1 {
		t.Errorf("lock stats: %+v", e.locks)
	}

	// Without inheritance, repeated locks keep storing.
	e2 := newTestEnv(OptNone())
	tree2 := e2.NewTree("t")
	c2 := e2.NewCtx(trace.Null{}, 0)
	c2.Begin()
	s1 := lockStores(e2, c2, tree2, 42)
	s2 := lockStores(e2, c2, tree2, 42)
	if s1 == 0 || s2 == 0 {
		t.Errorf("unoptimized locks stopped storing: first %d, repeat %d", s1, s2)
	}
}

func TestAllocatorDependenceRemovedByPerCPUAlloc(t *testing.T) {
	sharedEnv := newTestEnv(OptNone())
	tr := recordOp(sharedEnv, 0, func(c *Ctx) { sharedEnv.NewRow(c, 2) })
	hit := false
	for _, p := range tr.Events() {
		ev := p.Event()
		if ev.Kind == isa.Store && ev.Addr == sharedEnv.alloc.word {
			hit = true
		}
	}
	if !hit {
		t.Fatal("unoptimized allocator never stored the shared bump pointer")
	}

	priv := newTestEnv(OptAll())
	tr0 := recordOp(priv, 0, func(c *Ctx) { priv.NewRow(c, 2) })
	tr1 := recordOp(priv, 1, func(c *Ctx) { priv.NewRow(c, 2) })
	touched := func(tr *trace.Trace, a mem.Addr) bool {
		for _, p := range tr.Events() {
			ev := p.Event()
			if ev.Kind.IsMemory() && ev.Addr == a {
				return true
			}
		}
		return false
	}
	if touched(tr0, priv.alloc.word) {
		t.Error("PerCPUAlloc still touches the shared bump pointer")
	}
	if touched(tr0, priv.alloc.perCtx[1]) || touched(tr1, priv.alloc.perCtx[0]) {
		t.Error("contexts touched each other's allocation pools")
	}
}

func TestPoolStoresRemovedByPinlessReads(t *testing.T) {
	eager := newTestEnv(OptNone())
	tree := eager.NewTree("t")
	tree.LoadInsert(1, 1)
	trEager := recordOp(eager, 0, func(c *Ctx) { tree.Get(c, 1) })

	lazy := newTestEnv(OptAll())
	tree2 := lazy.NewTree("t")
	tree2.LoadInsert(1, 1)
	trLazy := recordOp(lazy, 0, func(c *Ctx) { tree2.Get(c, 1) })

	// Count stores to pool metadata (frame/LRU lines live in misc).
	poolStores := func(e *Env, tr *trace.Trace) int {
		n := 0
		for _, p := range tr.Events() {
			ev := p.Event()
			if ev.Kind == isa.Store && e.misc.Contains(ev.Addr) {
				n++
			}
		}
		return n
	}
	if s := poolStores(lazy, trLazy); s != 0 {
		t.Errorf("pinless read still stored pool metadata %d times", s)
	}
	if s := poolStores(eager, trEager); s == 0 {
		t.Error("unoptimized read never stored pool metadata")
	}
}

func TestInsertEmitsLeafHeaderStore(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("orderline")
	for k := int64(0); k < 4; k++ {
		tree.LoadInsert(k, k)
	}
	tr := recordOp(e, 0, func(c *Ctx) {
		tree.Insert(c, 100, e.NewRow(c, 1))
	})
	pc := e.PCs.Site("orderline.hdr.count.store")
	found := false
	for _, p := range tr.Events() {
		ev := p.Event()
		if ev.Kind == isa.Store && ev.PC == pc {
			found = true
		}
	}
	if !found {
		t.Error("insert did not emit the leaf header store (the contended dependence)")
	}
}

func TestOptLevelsAreCumulative(t *testing.T) {
	prev := 0
	for n := 0; n < NumOptLevels; n++ {
		f := OptLevel(n)
		count := 0
		for _, on := range []bool{f.LazyLatches, f.PinlessReads, f.PerEpochLog, f.LockInheritance, f.PerCPUAlloc} {
			if on {
				count++
			}
		}
		if count != n && !(n == 5 && count == 5) {
			t.Errorf("OptLevel(%d) enables %d flags", n, count)
		}
		if count < prev {
			t.Errorf("OptLevel(%d) lost a flag", n)
		}
		prev = count
	}
	if OptLevel(5) != OptAll() {
		t.Error("OptLevel(5) != OptAll()")
	}
}

func TestRowFieldAddresses(t *testing.T) {
	e := newTestEnv(OptAll())
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	r := e.NewRow(c, 4)
	if r.fieldAddr(1)-r.fieldAddr(0) != 8 {
		t.Error("fields not 8 bytes apart")
	}
	b := trace.NewBuilder()
	c.rec = b
	r.WriteField(c, 2, 99)
	if v := r.ReadField(c, 2); v != 99 {
		t.Errorf("ReadField = %d", v)
	}
	tr := b.Finish()
	if tr.Count(isa.Store) != 1 || tr.Count(isa.Load) != 2 {
		t.Errorf("field RMW emitted loads=%d stores=%d", tr.Count(isa.Load), tr.Count(isa.Store))
	}
}

func TestTxnLifecycle(t *testing.T) {
	e := newTestEnv(OptAll())
	b := trace.NewBuilder()
	c := e.NewCtx(b, 0)
	txn := c.Begin()
	if c.Txn() != txn {
		t.Fatal("Txn() mismatch")
	}
	tree := e.NewTree("t")
	c.Lock(tree, 1, true)
	c.Commit()
	if c.Txn() != nil {
		t.Error("transaction still attached after Commit")
	}
	if b.Finish().Instrs() == 0 {
		t.Error("txn lifecycle emitted nothing")
	}
}

func TestCommitWithoutTxnPanics(t *testing.T) {
	e := newTestEnv(OptAll())
	c := e.NewCtx(trace.Null{}, 0)
	defer func() {
		if recover() == nil {
			t.Error("Commit without Begin did not panic")
		}
	}()
	c.Commit()
}

func TestGetForUpdateEmitsDirtyAccounting(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	tree.LoadInsert(1, 7)
	pcDirty := e.PCs.Site("pool.dirty.count.store")

	countDirty := func(tr *trace.Trace) int {
		n := 0
		for _, p := range tr.Events() {
			ev := p.Event()
			if ev.Kind == isa.Store && ev.PC == pcDirty {
				n++
			}
		}
		return n
	}
	read := recordOp(e, 0, func(c *Ctx) { tree.Get(c, 1) })
	if countDirty(read) != 0 {
		t.Error("plain Get emitted dirty accounting")
	}
	upd := recordOp(e, 0, func(c *Ctx) { tree.GetForUpdate(c, 1) })
	if countDirty(upd) != 1 {
		t.Errorf("GetForUpdate dirty stores = %d, want 1 (clean->dirty transition)", countDirty(upd))
	}
	// The page is now dirty: a second write-get must not re-count.
	upd2 := recordOp(e, 0, func(c *Ctx) { tree.GetForUpdate(c, 1) })
	if countDirty(upd2) != 0 {
		t.Error("already-dirty page re-counted")
	}
}

func TestCommitFlushCleansDirtyPages(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	tree.LoadInsert(1, 7)
	pcDirty := e.PCs.Site("pool.dirty.count.store")
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	tree.GetForUpdate(c, 1)
	c.Commit() // flush: the page becomes clean again
	b := trace.NewBuilder()
	c = e.NewCtx(b, 0)
	c.Begin()
	tree.GetForUpdate(c, 1)
	n := 0
	for _, p := range b.Finish().Events() {
		ev := p.Event()
		if ev.Kind == isa.Store && ev.PC == pcDirty {
			n++
		}
	}
	if n != 1 {
		t.Errorf("post-flush dirtying counted %d times, want 1", n)
	}
}

func TestAbortRevertsEverything(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	r0 := tree.LoadInsert(1, 10)
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	r0.WriteField(c, 0, 99)
	r2 := e.NewRow(c, 1)
	tree.Insert(c, 2, r2)
	tree.Delete(c, 1)
	c.Abort()
	if c.Txn() != nil {
		t.Error("transaction still attached after Abort")
	}
	// Field write undone, insert undone, delete undone.
	got, ok := tree.Get(nil, 1)
	if !ok || got.Fields[0] != 10 {
		t.Errorf("delete/write not rolled back: %v %v", got, ok)
	}
	if _, ok := tree.Get(nil, 2); ok {
		t.Error("insert not rolled back")
	}
	if tree.Size != 1 {
		t.Errorf("Size = %d, want 1", tree.Size)
	}
}

func TestAbortEmitsUndoTrace(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	b := trace.NewBuilder()
	c := e.NewCtx(b, 0)
	c.Begin()
	tree.Insert(c, 5, e.NewRow(c, 1))
	before := b.Instrs()
	c.Abort()
	if b.Instrs() <= before {
		t.Error("Abort emitted no rollback work")
	}
}

func TestAbortWithoutTxnPanics(t *testing.T) {
	e := newTestEnv(OptAll())
	c := e.NewCtx(trace.Null{}, 0)
	defer func() {
		if recover() == nil {
			t.Error("Abort without Begin did not panic")
		}
	}()
	c.Abort()
}

func TestReadOnlyCommitIsCheap(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	tree.LoadInsert(1, 7)

	cost := func(write bool) uint64 {
		b := trace.NewBuilder()
		c := e.NewCtx(b, 0)
		c.Begin()
		if write {
			r, _ := tree.Get(c, 1)
			r.WriteField(c, 0, 8)
		} else {
			tree.Get(c, 1)
		}
		pre := b.Instrs()
		c.Commit()
		return b.Instrs() - pre
	}
	ro, rw := cost(false), cost(true)
	if ro*2 >= rw {
		t.Errorf("read-only commit (%d instrs) not much cheaper than writing commit (%d)", ro, rw)
	}
}

func TestScanCrossesLeaves(t *testing.T) {
	e := newTestEnv(OptAll()) // NodeCapacity 8: 30 keys span several leaves
	tree := e.NewTree("t")
	for k := int64(0); k < 30; k++ {
		tree.LoadInsert(k, k)
	}
	b := trace.NewBuilder()
	c := e.NewCtx(b, 0)
	c.Begin()
	n := 0
	tree.Scan(c, 0, 0, func(k int64, r *Row) bool { n++; return true })
	if n != 30 {
		t.Fatalf("scan visited %d", n)
	}
	// Leaf-chain walks emit header loads for each subsequent leaf.
	pcHdr := e.PCs.Site("t.hdr.count.load")
	hdrLoads := 0
	for _, p := range b.Finish().Events() {
		ev := p.Event()
		if ev.Kind == isa.Load && ev.PC == pcHdr {
			hdrLoads++
		}
	}
	if hdrLoads < 3 {
		t.Errorf("leaf-chain header loads = %d, want several", hdrLoads)
	}
}

func TestSplitEmitsPageTraffic(t *testing.T) {
	e := newTestEnv(OptAll())
	tree := e.NewTree("t")
	for k := int64(0); k < 8; k++ {
		tree.LoadInsert(k, k)
	}
	tr := recordOp(e, 0, func(c *Ctx) {
		tree.Insert(c, 100, e.NewRow(c, 1)) // 9th entry: split at capacity 8
	})
	pcCopy := e.PCs.Site("t.split.copy.store")
	n := 0
	for _, p := range tr.Events() {
		ev := p.Event()
		if ev.Kind == isa.Store && ev.PC == pcCopy {
			n++
		}
	}
	if tree.Splits == 0 || n == 0 {
		t.Errorf("split traffic missing: splits=%d copy stores=%d", tree.Splits, n)
	}
}

func TestLogLSNAdvances(t *testing.T) {
	e := newTestEnv(OptAll())
	c := e.NewCtx(trace.Null{}, 0)
	c.Begin()
	before := e.Log().LSN()
	e.Log().Record(c, 4)
	if e.Log().LSN() != before+1 {
		t.Errorf("LSN %d -> %d", before, e.Log().LSN())
	}
}

// StateDigest is FNV-1a over each table's name and then, in key order, each
// row's key, field count and fields as 8-byte little-endian words. The
// reference here hashes exactly those bytes with hash/fnv, over trees that
// have split, that hold an emptied leaf, and whose fields have every byte
// width, negative values included.
func TestStateDigestIsFNV1a(t *testing.T) {
	e := newTestEnv(OptAll())
	rng := rand.New(rand.NewSource(11))
	for _, name := range []string{"a", "bb", "empty"} {
		tree := e.NewTree(name)
		if name == "empty" {
			continue
		}
		for k := int64(0); k < 200; k++ {
			fields := make([]int64, rng.Intn(4))
			for i := range fields {
				fields[i] = rng.Int63() >> (8 * rng.Intn(8))
				if rng.Intn(4) == 0 {
					fields[i] = -fields[i]
				}
			}
			tree.LoadInsert(k*3, fields...)
		}
		for k := int64(30); k < 60; k++ {
			tree.Delete(nil, k*3) // empties at least one leaf (capacity 8)
		}
		tree.LoadInsert(math.MaxInt64, -1, math.MinInt64, 0)
	}
	want := fnv.New64a()
	word := func(v uint64) { want.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, tree := range e.Trees() {
		want.Write([]byte(tree.Name()))
		tree.Scan(nil, math.MinInt64, 0, func(k int64, r *Row) bool {
			word(uint64(k))
			word(uint64(r.NumFields()))
			for _, f := range r.Fields[:r.NumFields()] {
				word(uint64(f))
			}
			return true
		})
	}
	if got := e.StateDigest(); got != want.Sum64() {
		t.Errorf("StateDigest = %#x, want FNV-1a %#x", got, want.Sum64())
	}
}
