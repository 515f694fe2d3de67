// Package db is the storage-engine substrate the TPC-C transactions run on —
// a from-scratch engine in the spirit of BerkeleyDB (which the paper builds
// on): slotted pages behind a buffer pool, B+-trees, page latches, a
// two-phase-locking lock table, and a write-ahead log.
//
// The engine executes real data-structure code over Go-native state, but
// every structure also owns simulated addresses (internal/mem), and every
// operation emits loads, stores, branches, latch operations, and calibrated
// compute into a trace recorder. The paper's observation — that cross-thread
// dependences come from *database internals* (log tail, latches, B-tree page
// headers, buffer-pool metadata), not from the SQL itself — falls out
// naturally: those internals are shared simulated addresses here.
//
// OptFlags reproduces the iterative tuning process of §3.2 / the authors'
// VLDB'05 paper: each flag removes one class of cross-epoch dependence, and
// the fully-optimized configuration is what the paper's Figure 5 benchmarks
// run.
package db

import (
	"fmt"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// OptFlags selects which TLS-oriented optimizations are applied to the
// engine. Each corresponds to one iteration of the profile-and-tune loop of
// §3.2: the profiler points at a load/store pair, the "programmer" removes
// it.
type OptFlags struct {
	// LazyLatches stops crab-latching B-tree descents with escaped
	// (synchronizing) latches; conflicts are left to TLS dependence
	// tracking instead.
	LazyLatches bool
	// PinlessReads removes buffer-pool pin/unpin reference-count stores
	// and the LRU-list bump on every page access.
	PinlessReads bool
	// PerEpochLog gives each execution context a private log buffer,
	// removing the log-tail dependence from the loop body.
	PerEpochLog bool
	// LockInheritance lets epochs inherit row locks already held by the
	// surrounding transaction instead of re-acquiring them with stores.
	LockInheritance bool
	// PerCPUAlloc gives each context a private allocation pool, removing
	// the global heap-bump-pointer dependence on inserts.
	PerCPUAlloc bool
}

// OptNone returns the unoptimized engine — the starting point of the tuning
// process.
func OptNone() OptFlags { return OptFlags{} }

// OptAll returns the fully-optimized engine used by the paper's main
// evaluation.
func OptAll() OptFlags {
	return OptFlags{
		LazyLatches:     true,
		PinlessReads:    true,
		PerEpochLog:     true,
		LockInheritance: true,
		PerCPUAlloc:     true,
	}
}

// OptLevel returns the cumulative optimization state after n tuning
// iterations (0 = none ... 5 = all), mirroring Figure 2's one-dependence-at-
// a-time narrative.
func OptLevel(n int) OptFlags {
	var f OptFlags
	if n >= 1 {
		f.LazyLatches = true
	}
	if n >= 2 {
		f.PinlessReads = true
	}
	if n >= 3 {
		f.PerEpochLog = true
	}
	if n >= 4 {
		f.LockInheritance = true
	}
	if n >= 5 {
		f.PerCPUAlloc = true
	}
	return f
}

// NumOptLevels is the number of distinct OptLevel configurations.
const NumOptLevels = 6

// Config parameterizes the engine.
type Config struct {
	Opt OptFlags
	// PageSize is the slotted-page size in bytes.
	PageSize int
	// NodeCapacity is the number of entries per B+-tree node.
	NodeCapacity int
	// Contexts is the number of concurrent execution contexts to
	// provision private stacks, log buffers, and allocation pools for.
	Contexts int
	// Costs calibrates the synthetic compute surrounding each operation.
	Costs Costs
}

// DefaultConfig returns an engine configuration sized like the paper's
// BerkeleyDB setup (4KB pages) with costs calibrated so TPC-C thread sizes
// land in the Table 2 ranges.
func DefaultConfig() Config {
	return Config{
		Opt:          OptAll(),
		PageSize:     4096,
		NodeCapacity: 64,
		Contexts:     16,
		Costs:        DefaultCosts(),
	}
}

// Env is one database environment: address space, buffer pool, lock table,
// log, and the PC registry for instrumentation sites.
type Env struct {
	cfg   Config
	Space *mem.Space
	PCs   *isa.PCRegistry

	heap   *mem.Region
	stacks *mem.Region
	logReg *mem.Region
	misc   *mem.Region

	pool    *Pool
	locks   *LockTable
	log     *Log
	alloc   allocator
	nextPg  uint32
	nextTxn uint64

	trees []*Tree
	// works caches each Work site's four PCs by site name.
	works map[string]workSites
	// rows and fields are the slabs newRow carves rows from.
	rows   []Row
	fields []int64
}

// NewEnv creates an environment. The address-space regions are sized
// generously; exhaustion panics (it would be a workload-sizing bug).
func NewEnv(cfg Config) *Env {
	if cfg.PageSize <= 0 || cfg.NodeCapacity < 4 || cfg.Contexts < 1 {
		panic(fmt.Sprintf("db: bad config %+v", cfg))
	}
	sp := mem.NewSpace()
	e := &Env{
		cfg:    cfg,
		Space:  sp,
		PCs:    isa.NewPCRegistry(),
		heap:   sp.NewRegion("heap", 512<<20),
		stacks: sp.NewRegion("stacks", 1<<20),
		logReg: sp.NewRegion("log", 64<<20),
		misc:   sp.NewRegion("misc", 32<<20),
		works:  make(map[string]workSites),
	}
	e.pool = newPool(e, 1024)
	e.locks = newLockTable(e, 256)
	e.log = newLog(e)
	e.alloc.init(e)
	return e
}

// Config returns the environment's configuration.
func (e *Env) Config() Config { return e.cfg }

// Opt returns the active optimization flags.
func (e *Env) Opt() OptFlags { return e.cfg.Opt }

// Trees returns the tables created in this environment.
func (e *Env) Trees() []*Tree { return e.trees }

// Misc exposes the metadata region for workload-level shared structures
// (e.g. aggregation workspaces) that live alongside engine metadata.
func (e *Env) Misc() *mem.Region { return e.misc }

// EmitLoad / EmitStore / EmitALU let the workload layer emit raw accesses to
// addresses it manages (shared aggregation state), through the context's
// recorder with a named site.
func (c *Ctx) EmitLoad(site string, addr mem.Addr) { c.rec.Load(c.env.site(site), addr) }
func (c *Ctx) EmitStore(site string, addr mem.Addr) {
	c.noteWrite()
	c.rec.Store(c.env.site(site), addr)
}
func (c *Ctx) EmitALU(n uint32) { c.rec.ALU(n) }

// site returns the stable synthetic PC for a named instrumentation site.
func (e *Env) site(name string) isa.PC { return e.PCs.Site(name) }

// workSites is the four PCs a Work site emits at.
type workSites struct{ loop, cond, spillLoad, spillStore isa.PC }

// workSites returns the PCs of the Work site name. Its first use registers
// the four sites in the order loop, cond, spill load, spill store: recorded
// programs persist the PCs this order issues.
func (e *Env) workSites(name string) workSites {
	ws, ok := e.works[name]
	if !ok {
		ws = workSites{
			loop:       e.site(name + ".loop"),
			cond:       e.site(name + ".cond"),
			spillLoad:  e.site(name + ".spill.load"),
			spillStore: e.site(name + ".spill.store"),
		}
		e.works[name] = ws
	}
	return ws
}

// allocator is the heap allocator for row storage. Unoptimized, it is a
// single bump pointer whose word every insert loads and stores — a classic
// cross-epoch dependence — and rows allocated by different epochs land on
// adjacent (often shared) cache lines. With PerCPUAlloc each context owns a
// private pool: private bump word and a private arena, so neither the
// metadata nor the fresh rows are shared.
type allocator struct {
	env    *Env
	word   mem.Addr // the shared bump pointer's simulated address
	perCtx []mem.Addr
	arenas []*mem.Region
}

func (a *allocator) init(e *Env) {
	a.env = e
	a.word = e.misc.AllocLine()
	a.perCtx = make([]mem.Addr, e.cfg.Contexts)
	a.arenas = make([]*mem.Region, e.cfg.Contexts)
	for i := range a.perCtx {
		a.perCtx[i] = e.misc.AllocLine()
		a.arenas[i] = e.Space.NewRegion(fmt.Sprintf("arena-%d", i), 16<<20)
	}
}

// alloc carves words out of the heap, emitting the allocator's memory
// behaviour into the context's trace.
func (a *allocator) alloc(c *Ctx, words int) mem.Addr {
	pcL := a.env.site("heap.bump.load")
	pcS := a.env.site("heap.bump.store")
	if a.env.cfg.Opt.PerCPUAlloc {
		// Private pool: same code path, private metadata and arena.
		c.rec.Load(pcL, a.perCtx[c.slot])
		c.rec.ALU(6)
		c.rec.Store(pcS, a.perCtx[c.slot])
		return a.arenas[c.slot].AllocWords(words)
	}
	c.rec.Load(pcL, a.word)
	c.rec.ALU(6)
	c.rec.Store(pcS, a.word)
	return a.env.heap.AllocWords(words)
}

// Row is one table row: a simulated record plus Go-native field values.
type Row struct {
	addr   mem.Addr
	Fields []int64
}

// Addr returns the row's simulated base address.
func (r *Row) Addr() mem.Addr { return r.addr }

// fieldAddr returns the simulated address of field i.
func (r *Row) fieldAddr(i int) mem.Addr {
	return r.addr + mem.Addr(i*8)
}

// NewRow allocates a row with n fields, emitting allocator traffic.
func (e *Env) NewRow(c *Ctx, n int) *Row {
	return e.newRow(e.alloc.alloc(c, n*2), n)
}

// Rows and their fields are carved from slabs of these sizes: a database
// load makes tens of thousands of rows.
const (
	rowSlab   = 1024
	fieldSlab = 4096
)

// newRow returns a row at addr with n zero fields, carved from the
// environment's slabs. Its Fields are capped at n, so an append to them
// never writes into the next row's.
func (e *Env) newRow(addr mem.Addr, n int) *Row {
	if len(e.rows) == 0 {
		e.rows = make([]Row, rowSlab)
	}
	if len(e.fields) < n {
		e.fields = make([]int64, max(fieldSlab, n))
	}
	r := &e.rows[0]
	r.addr, r.Fields = addr, e.fields[:n:n]
	e.rows, e.fields = e.rows[1:], e.fields[n:]
	return r
}

// ReadField emits the loads for reading field i and returns its value.
func (r *Row) ReadField(c *Ctx, i int) int64 {
	c.rec.Load(c.env.site("row.field.load"), r.fieldAddr(i))
	c.rec.ALU(2)
	return r.Fields[i]
}

// WriteField emits a read-modify-write of field i.
func (r *Row) WriteField(c *Ctx, i int, v int64) {
	c.noteWrite()
	old := r.Fields[i]
	c.noteUndo(func() { r.Fields[i] = old })
	c.rec.Load(c.env.site("row.field.load"), r.fieldAddr(i))
	c.rec.ALU(3)
	c.rec.Store(c.env.site("row.field.store"), r.fieldAddr(i))
	r.Fields[i] = v
}

// Log exposes the environment's write-ahead log.
func (e *Env) Log() *Log { return e.log }
