package db

import "subthreads/internal/mem"

// Page is one database page: a simulated 4KB block plus its buffer-pool
// frame metadata. Layout within the page:
//
//	base+0   page id
//	base+4   entry count        <- the header word leaf inserts contend on
//	base+8   level / flags
//	base+64  slot array (4 bytes per slot)
//	base+1024 key area (8 bytes per key)
type Page struct {
	id    uint32
	base  mem.Addr
	frame mem.Addr // buffer-pool frame metadata (pin count, LRU links)
	latch mem.Addr
	dirty bool
}

func (p *Page) hdrCount() mem.Addr { return p.base + 4 }
func (p *Page) slotAddr(i int) mem.Addr {
	return p.base + 64 + mem.Addr(i*4)
}
func (p *Page) keyAddr(i int) mem.Addr {
	return p.base + 1024 + mem.Addr(i*8)
}

// initPage allocates p's page with its frame and latch metadata.
func (e *Env) initPage(p *Page) {
	e.nextPg++
	*p = Page{
		id:    e.nextPg,
		base:  e.heap.Alloc(uint32(e.cfg.PageSize), uint32(e.cfg.PageSize)),
		frame: e.misc.AllocLine(),
		latch: e.misc.AllocLine(),
	}
}

// Pool is the buffer pool: a hash table from page id to frame, plus a global
// LRU list. The paper's workloads are memory resident (1MB+ pool, no disk),
// so Get never misses; what matters is the memory traffic of the lookup —
// and, unoptimized, the pin-count store and LRU-head store that make every
// page touch a cross-epoch dependence.
type Pool struct {
	env     *Env
	buckets []mem.Addr
	lruHead mem.Addr
	// dirtyShards are the pool's dirty-page accounting words (BerkeleyDB
	// shards its mpool statistics across regions), updated when a clean
	// page is first dirtied. Commit-time flushing needs this accounting,
	// so the tuning process cannot privatize it — one of the remaining
	// "actual data dependences which are difficult to optimize away" (§5).
	dirtyShards [16]mem.Addr
	dirtyPages  []*Page
}

func newPool(e *Env, nbuckets int) *Pool {
	p := &Pool{env: e, lruHead: e.misc.AllocLine()}
	for i := range p.dirtyShards {
		p.dirtyShards[i] = e.misc.AllocLine()
	}
	p.buckets = make([]mem.Addr, nbuckets)
	for i := range p.buckets {
		p.buckets[i] = e.misc.AllocLine()
	}
	return p
}

// get emits a buffer-pool lookup of pg, optionally for writing.
func (p *Pool) get(c *Ctx, pg *Page, write bool) {
	e := p.env
	c.work("pool.get", e.cfg.Costs.PoolGet)
	bucket := p.buckets[int(pg.id)%len(p.buckets)]
	c.rec.Load(e.site("pool.bucket.load"), bucket)
	c.rec.ALU(4)
	c.rec.Load(e.site("pool.frame.load"), pg.frame)
	if !e.cfg.Opt.PinlessReads {
		// Pin the frame and bump the LRU list: two stores to hot
		// shared metadata.
		c.rec.ALU(2)
		c.rec.Store(e.site("pool.frame.pin"), pg.frame)
		c.rec.Load(e.site("pool.lru.load"), p.lruHead)
		c.rec.ALU(3)
		c.rec.Store(e.site("pool.lru.store"), p.lruHead)
	}
	if write {
		// Mark the frame dirty. With pinless reads this is the only
		// frame store, and only writers perform it. Write intent makes
		// the transaction a writing one: its commit must flush.
		c.noteWrite()
		c.rec.ALU(2)
		c.rec.Store(e.site("pool.frame.dirty"), pg.frame)
		if !pg.dirty {
			// Clean-to-dirty transition: bump the pool's
			// dirty-page accounting shard.
			pg.dirty = true
			p.dirtyPages = append(p.dirtyPages, pg)
			shard := p.dirtyShards[pg.id%uint32(len(p.dirtyShards))]
			c.rec.Load(e.site("pool.dirty.count.load"), shard)
			c.rec.ALU(3)
			c.rec.Store(e.site("pool.dirty.count.store"), shard)
		}
	}
}

// unpin emits the unpin store of the unoptimized pool.
func (p *Pool) unpin(c *Ctx, pg *Page) {
	if p.env.cfg.Opt.PinlessReads {
		return
	}
	c.rec.ALU(2)
	c.rec.Store(p.env.site("pool.frame.unpin"), pg.frame)
}

// latchPage acquires the page latch. Unoptimized, it is an escaped-
// speculation latch: the simulator serializes conflicting epochs on it
// (Latch Stall). With LazyLatches, readers emit only a latch-word load and
// writers rely on TLS conflict detection.
func (e *Env) latchPage(c *Ctx, pg *Page, write bool) {
	if e.cfg.Opt.LazyLatches {
		c.rec.Load(e.site("latch.read"), pg.latch)
		c.rec.ALU(2)
		return
	}
	c.rec.LatchAcquire(e.site("latch.acquire"), pg.latch)
	c.rec.ALU(4)
	_ = write
}

// unlatchPage releases the page latch when escaped latching is in use.
func (e *Env) unlatchPage(c *Ctx, pg *Page) {
	if e.cfg.Opt.LazyLatches {
		return
	}
	c.rec.ALU(2)
	c.rec.LatchRelease(e.site("latch.release"), pg.latch)
}

// flushDirty models the commit-time flush: the dirty-page accounting is
// read back and every dirty page becomes clean again.
func (p *Pool) flushDirty(c *Ctx) {
	for _, shard := range p.dirtyShards {
		c.rec.Load(p.env.site("pool.dirty.count.load"), shard)
		c.rec.ALU(2)
	}
	c.work("pool.flush", 40*len(p.dirtyPages))
	for _, pg := range p.dirtyPages {
		pg.dirty = false
	}
	p.dirtyPages = p.dirtyPages[:0]
}
