package db

import (
	"slices"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// Clone returns a deep copy of e under the engine flags opt: the same
// tables, rows and address-space cursors, sharing nothing with e. e must
// only have been loaded: loading reads no flag and emits nothing, so the
// copy is the database a load under opt would have built, and a program
// recorded on it is the program recorded on a fresh load. Clone panics once
// e has recorded (its PC registry has issued a site), since a recording's
// registry and buffers are not state a copy could share.
//
// The copy's tree nodes, key arrays and payload arrays are carved from one
// slab each, and its rows from one, so a clone costs a few allocations
// however large the database is.
func (e *Env) Clone(opt OptFlags) *Env {
	if e.PCs.Len() != 0 {
		panic("db: Clone of an environment that has recorded")
	}
	sp := e.Space.Clone()
	region := func(r *mem.Region) *mem.Region { return sp.RegionOf(r.Base) }
	c := &Env{
		cfg:     e.cfg,
		Space:   sp,
		PCs:     isa.NewPCRegistry(),
		heap:    region(e.heap),
		stacks:  region(e.stacks),
		logReg:  region(e.logReg),
		misc:    region(e.misc),
		nextPg:  e.nextPg,
		nextTxn: e.nextTxn,
		nodes:   e.nodes,
		leaves:  e.leaves,
		works:   make(map[string]workSites),
		nrows:   e.nrows,
	}
	c.cfg.Opt = opt

	pool := *e.pool
	pool.env, pool.buckets = c, slices.Clone(pool.buckets)
	c.pool = &pool
	locks := *e.locks
	locks.env, locks.buckets, locks.perSlot = c, slices.Clone(locks.buckets), slices.Clone(locks.perSlot)
	c.locks = &locks
	log := *e.log
	log.env, log.bufs, log.bufOff = c, slices.Clone(log.bufs), slices.Clone(log.bufOff)
	c.log = &log
	c.alloc = allocator{env: c, word: e.alloc.word, perCtx: slices.Clone(e.alloc.perCtx),
		arenas: make([]*mem.Region, len(e.alloc.arenas))}
	for i, r := range e.alloc.arenas {
		c.alloc.arenas[i] = region(r)
	}

	rows := make([]Row, len(e.rows)*rowChunk)
	c.rows = make([]*[rowChunk]Row, len(e.rows))
	for i, chunk := range e.rows {
		c.rows[i] = (*[rowChunk]Row)(rows[i*rowChunk:])
		*c.rows[i] = *chunk
	}

	capacity := e.cfg.NodeCapacity + 1
	k := cloner{
		nodes:    make([]node, e.nodes),
		keys:     make([]int64, e.nodes*capacity),
		rows:     make([]uint32, e.leaves*capacity),
		kids:     make([]*node, (e.nodes-e.leaves)*capacity),
		capacity: capacity,
	}
	trees := make([]Tree, len(e.trees))
	c.trees = make([]*Tree, len(e.trees))
	for i, t := range e.trees {
		trees[i] = Tree{
			id:     t.id,
			name:   t.name,
			env:    c,
			height: t.height,
			stats:  t.stats,
			Size:   t.Size,
			Splits: t.Splits,
		}
		k.prev = nil
		trees[i].root = k.node(t.root)
		c.trees[i] = &trees[i]
	}
	return c
}

// cloner copies trees into slabs sized for them: nodes, key arrays, leaf
// payload arrays and child arrays, each of an overfull node's capacity.
type cloner struct {
	nodes    []node
	keys     []int64
	rows     []uint32
	kids     []*node
	capacity int
	prev     *node // the last leaf copied: the leaf chain's next link
}

// node copies the subtree under src, linking its leaves in key order after
// prev, which is the order of the source's leaf chain.
func (k *cloner) node(src *node) *node {
	n := &k.nodes[0]
	k.nodes = k.nodes[1:]
	*n = node{page: src.page, leaf: src.leaf}
	n.keys = append(carve(&k.keys, k.capacity), src.keys...)
	if src.leaf {
		n.rows = append(carve(&k.rows, k.capacity), src.rows...)
		if k.prev != nil {
			k.prev.next = n
		}
		k.prev = n
		return n
	}
	n.kids = carve(&k.kids, k.capacity)
	for _, kid := range src.kids {
		n.kids = append(n.kids, k.node(kid))
	}
	return n
}

// carve returns an empty slice of capacity n from the front of slab.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:0:n]
	*slab = (*slab)[n:]
	return s
}
