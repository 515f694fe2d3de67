package db

import (
	"subthreads/internal/mem"
	"subthreads/internal/trace"
)

// Ctx is one execution context of the engine: it carries the trace recorder
// the current epoch's instruction stream is emitted into, a private stack
// working set (so that register spills and locals hit the L1 without creating
// false cross-epoch dependences), and the per-context resources selected by
// the optimization flags (log buffer, allocation pool).
//
// The workload layer creates one Ctx per speculative thread, numbered by a
// slot so that concurrently-live epochs never share private addresses.
type Ctx struct {
	env  *Env
	rec  trace.Recorder
	slot int

	txn *Txn

	stackBase mem.Addr
	stackIdx  int
	hashState uint32
	branchSeq uint32
}

// ctxStackLines sizes each context's private stack arena (128 lines = 4KB).
// Stores advance through it like a call stack, so one cache line is written
// by at most a couple of sub-thread contexts — bounding the number of
// speculative versions per line, as a real sliding stack does.
const ctxStackLines = 128

// NewCtx creates an execution context recording into rec. slot selects the
// private stack/log/alloc resources; concurrently-executing contexts must use
// distinct slots (the workload layer uses epochIndex mod Contexts).
func (e *Env) NewCtx(rec trace.Recorder, slot int) *Ctx {
	slot = slot % e.cfg.Contexts
	return &Ctx{
		env:       e,
		rec:       rec,
		slot:      slot,
		stackBase: e.stacks.Base + mem.Addr(slot*ctxStackLines*mem.LineSize),
		hashState: uint32(slot)*2654435761 + 12345,
	}
}

// Env returns the owning environment.
func (c *Ctx) Env() *Env { return c.env }

// Slot returns the context's resource slot.
func (c *Ctx) Slot() int { return c.slot }

// stackStoreAddr returns the next private stack store address: stores fill
// a line word by word, then advance to the next line (a growing frame).
func (c *Ctx) stackStoreAddr() mem.Addr {
	c.stackIdx++
	return c.stackWordAddr(c.stackIdx)
}

// stackLoadAddr returns a private stack load address within the recently
// written window (locals and spills of the active frames).
func (c *Ctx) stackLoadAddr() mem.Addr {
	window := 8 * mem.WordsPerLine
	back := int(c.nextHash()) % window
	idx := c.stackIdx - back
	if idx < 0 {
		idx += ctxStackLines * mem.WordsPerLine
	}
	return c.stackWordAddr(idx)
}

// stackWordAddr returns the address of stack word idx (idx >= 0). Every
// divisor is a power-of-two constant, so no division is emitted.
func (c *Ctx) stackWordAddr(idx int) mem.Addr {
	word := idx % mem.WordsPerLine
	line := (idx / mem.WordsPerLine) % ctxStackLines
	return c.stackBase + mem.Addr(line*mem.LineSize+word*mem.WordSize)
}

// nextHash steps a cheap deterministic PRNG used for branch outcomes, so
// traces are reproducible run to run.
func (c *Ctx) nextHash() uint32 {
	c.hashState = c.hashState*1664525 + 1013904223
	return c.hashState >> 8
}

// Work emits n instructions of synthetic compute attributed to the named
// site: a realistic mix of ALU runs, private-stack loads/stores, and
// branches (mostly well-predicted loop branches with a data-dependent
// minority). The block structure is 36 instructions: 2 branches, 1 load,
// 1 store, 32 ALU.
func (c *Ctx) Work(site string, n int) {
	if n <= 0 {
		return
	}
	c.emitWork(c.env.workSites(site), n)
}

// emitWork emits Work's n > 0 instructions at the sites ws.
func (c *Ctx) emitWork(ws workSites, n int) {
	for n >= 36 {
		c.rec.ALU(10)
		c.rec.Load(ws.spillLoad, c.stackLoadAddr())
		c.rec.ALU(6)
		// Loop branch: taken ~15 of 16 times.
		c.branchSeq++
		c.rec.Branch(ws.loop, c.branchSeq%16 != 0)
		c.rec.ALU(10)
		c.rec.Store(ws.spillStore, c.stackStoreAddr())
		c.rec.ALU(6)
		// Data-dependent branch: ~75% taken, hash driven.
		c.rec.Branch(ws.cond, c.nextHash()%4 != 0)
		n -= 36
	}
	if n > 0 {
		c.rec.ALU(uint32(n))
	}
}

// work is shorthand used by engine internals.
func (c *Ctx) work(site string, n int) { c.Work(site, n) }

// Txn is a transaction: it owns the lock set (for lock inheritance) and
// emits begin/commit overhead.
type Txn struct {
	id     uint64
	held   map[lockKey]struct{}
	env    *Env
	writes int
	// undo holds the compensation actions for every modification, in
	// order; Abort applies them in reverse (the log-driven rollback of a
	// real engine).
	undo []func()
	// chain is the transaction's lock-list head. Intra-transaction
	// epochs share the transaction, so every first acquisition of a lock
	// links into this shared word — transaction bookkeeping that
	// correctness requires and the tuning process cannot privatize (§5:
	// "actual data dependences which are difficult to optimize away").
	chain mem.Addr
}

// noteWrite records that the transaction modified data (its commit must
// flush the log).
func (c *Ctx) noteWrite() {
	if c.txn != nil {
		c.txn.writes++
	}
}

// noteUndo registers a compensation action for Abort.
func (c *Ctx) noteUndo(fn func()) {
	if c.txn != nil {
		c.txn.undo = append(c.txn.undo, fn)
	}
}

// Begin starts a transaction on this context.
func (c *Ctx) Begin() *Txn {
	c.env.nextTxn++
	t := &Txn{
		id:    c.env.nextTxn,
		held:  make(map[lockKey]struct{}),
		env:   c.env,
		chain: c.env.misc.AllocLine(),
	}
	c.txn = t
	c.work("txn.begin", c.env.cfg.Costs.TxnBegin)
	c.env.log.record(c, 4)
	return t
}

// AttachTxn makes an existing transaction current on this context — the
// intra-transaction parallelism of the paper: every epoch of the parallelized
// loop runs under the *same* transaction.
func (c *Ctx) AttachTxn(t *Txn) { c.txn = t }

// Txn returns the context's current transaction.
func (c *Ctx) Txn() *Txn { return c.txn }

// Commit finishes the context's transaction: a writing transaction pays the
// full commit cost (log flush); a read-only one commits cheaply.
func (c *Ctx) Commit() {
	t := c.txn
	if t == nil {
		panic("db: Commit without transaction")
	}
	if t.writes == 0 {
		c.work("txn.commit.ro", c.env.cfg.Costs.ReadOnlyCommit)
		c.work("txn.unlock", len(t.held)*40)
		t.held = make(map[lockKey]struct{})
		c.txn = nil
		return
	}
	c.work("txn.commit", c.env.cfg.Costs.TxnCommit)
	c.env.log.commitFlush(c)
	c.env.pool.flushDirty(c)
	// Release locks: one pass over the lock set.
	c.work("txn.unlock", len(t.held)*40)
	t.held = make(map[lockKey]struct{})
	t.undo = nil
	c.txn = nil
}

// Abort rolls the context's transaction back: the undo log is walked in
// reverse, compensating every modification both functionally (the database
// state reverts) and in the emitted trace (each undone change is a page
// write, as a real log-driven rollback performs). TPC-C requires this path:
// one percent of NEW ORDER transactions carry an invalid item and must roll
// back.
func (c *Ctx) Abort() {
	t := c.txn
	if t == nil {
		panic("db: Abort without transaction")
	}
	c.work("txn.abort", c.env.cfg.Costs.TxnBegin)
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
		// Each compensation reads the log record and writes the page.
		c.work("txn.undo", 300)
		c.env.log.record(c, 4)
	}
	c.env.log.commitFlush(c) // abort record + flush
	c.env.pool.flushDirty(c)
	c.work("txn.unlock", len(t.held)*40)
	t.held = make(map[lockKey]struct{})
	t.undo = nil
	c.txn = nil
}
