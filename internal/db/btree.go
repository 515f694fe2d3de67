package db

import (
	"fmt"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// Tree is a B+-tree table index. Every descent, probe, and modification
// emits the corresponding loads, stores, and latch traffic at the page's
// simulated addresses — so two epochs inserting into the same leaf really do
// conflict on the leaf's entry-count word, exactly the kind of internal
// dependence the paper's workloads exhibit.
type Tree struct {
	id     int
	name   string
	env    *Env
	root   *node
	height int
	stats  mem.Addr // shared record-count statistics word

	// pcs and works hold the tree's sites, each resolved on its first
	// emission (zero until then), so the registry issues PCs in the same
	// order as a lookup by name at every emission would.
	pcs   [numTreeSites]isa.PC
	works [numTreeWorks]workSites
	// path is the scratch path of internal nodes that descend fills.
	// Only Insert keeps it past the descent (for split), and no descent
	// of this tree happens in between.
	path []*node

	// Size is the number of live entries (functional bookkeeping).
	Size int
	// Splits counts leaf/internal splits (diagnostics).
	Splits uint64
}

type node struct {
	page Page
	leaf bool
	keys []int64
	rows []uint32 // leaf payloads, by row id
	kids []*node  // internal children
	next *node    // leaf chain
}

// treeSite is one of a tree's load, store and branch sites. Its PC is the
// registry's PC for the tree's name followed by the site's suffix.
type treeSite uint8

const (
	siteHdrCountLoad treeSite = iota
	siteKeyProbe
	siteProbeBranch
	siteChildLoad
	siteRowPtr
	siteSlotShift
	siteKeyStore
	siteRowPtrStore
	siteHdrCountStore
	siteStatsLoad
	siteStatsStore
	siteScanKey
	siteScanPtr
	siteScanBranch
	siteSplitCopyLoad
	siteSplitCopyStore
	siteParentKeyStore
	numTreeSites
)

var treeSiteSuffix = [numTreeSites]string{
	siteHdrCountLoad:   ".hdr.count.load",
	siteKeyProbe:       ".key.probe",
	siteProbeBranch:    ".probe.branch",
	siteChildLoad:      ".child.load",
	siteRowPtr:         ".row.ptr",
	siteSlotShift:      ".slot.shift",
	siteKeyStore:       ".key.store",
	siteRowPtrStore:    ".rowptr.store",
	siteHdrCountStore:  ".hdr.count.store",
	siteStatsLoad:      ".stats.load",
	siteStatsStore:     ".stats.store",
	siteScanKey:        ".scan.key",
	siteScanPtr:        ".scan.ptr",
	siteScanBranch:     ".scan.branch",
	siteSplitCopyLoad:  ".split.copy.load",
	siteSplitCopyStore: ".split.copy.store",
	siteParentKeyStore: ".parent.key.store",
}

// treeWork is one of a tree's Work sites, named like a treeSite.
type treeWork uint8

const (
	workDescend treeWork = iota
	workGet
	workInsert
	workDelete
	workSplit
	numTreeWorks
)

var treeWorkSuffix = [numTreeWorks]string{
	workDescend: ".descend",
	workGet:     ".get",
	workInsert:  ".insert",
	workDelete:  ".delete",
	workSplit:   ".split",
}

// pc returns the PC of site s, registering it on first use.
func (t *Tree) pc(s treeSite) isa.PC {
	if pc := t.pcs[s]; pc != 0 {
		return pc
	}
	return t.resolve(s)
}

// resolve is pc's first-use path, out of line so that pc inlines.
func (t *Tree) resolve(s treeSite) isa.PC {
	t.pcs[s] = t.env.site(t.name + treeSiteSuffix[s])
	return t.pcs[s]
}

// work emits n instructions of compute at the tree's Work site w.
func (t *Tree) work(c *Ctx, w treeWork, n int) {
	if n <= 0 {
		return
	}
	if t.works[w].loop == 0 {
		t.works[w] = t.env.workSites(t.name + treeWorkSuffix[w])
	}
	c.emitWork(t.works[w], n)
}

// NewTree creates an empty table index.
func (e *Env) NewTree(name string) *Tree {
	t := &Tree{
		id:    len(e.trees) + 1,
		name:  name,
		env:   e,
		stats: e.misc.AllocLine(),
	}
	t.root = t.newNode(true)
	t.height = 1
	e.trees = append(e.trees, t)
	return t
}

// Name returns the tree's table name.
func (t *Tree) Name() string { return t.name }

// Height returns the current tree height.
func (t *Tree) Height() int { return t.height }

// newNode returns an empty node whose keys and payloads hold an overfull
// node's NodeCapacity+1 entries, so inserts and splits never grow them.
func (t *Tree) newNode(leaf bool) *node {
	capacity := t.env.cfg.NodeCapacity + 1
	n := &node{leaf: leaf, keys: make([]int64, 0, capacity)}
	t.env.initPage(&n.page)
	t.env.nodes++
	if leaf {
		t.env.leaves++
		n.rows = make([]uint32, 0, capacity)
	} else {
		n.kids = make([]*node, 0, capacity)
	}
	return n
}

// findIdx returns the index of the first key >= key, emitting binary-search
// probes when c != nil.
func (t *Tree) findIdx(c *Ctx, n *node, key int64) int {
	lo, hi := 0, len(n.keys)
	if c != nil {
		c.rec.Load(t.pc(siteHdrCountLoad), n.page.hdrCount())
		c.rec.ALU(3)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if c != nil {
			c.rec.Load(t.pc(siteKeyProbe), n.page.keyAddr(mid))
			c.rec.ALU(4)
			c.rec.Branch(t.pc(siteProbeBranch), c.nextHash()%2 == 0)
		}
		if n.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperIdx returns the index of the child to descend into: the number of
// separator keys <= key. Emission matches findIdx.
func (t *Tree) upperIdx(c *Ctx, n *node, key int64) int {
	lo, hi := 0, len(n.keys)
	if c != nil {
		c.rec.Load(t.pc(siteHdrCountLoad), n.page.hdrCount())
		c.rec.ALU(3)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if c != nil {
			c.rec.Load(t.pc(siteKeyProbe), n.page.keyAddr(mid))
			c.rec.ALU(4)
			c.rec.Branch(t.pc(siteProbeBranch), c.nextHash()%2 == 0)
		}
		if n.keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// descend walks from the root to the leaf for key, emitting pool lookups,
// latch traffic (crab latching when escaped latches are in use), and
// per-level compute. It returns the leaf and the path of internal nodes for
// split propagation, which is the tree's scratch path: the next descent
// overwrites it.
func (t *Tree) descend(c *Ctx, key int64, forWrite bool) (leaf *node, path []*node) {
	n := t.root
	path = t.path[:0]
	var prev *node
	for {
		if c != nil {
			t.env.pool.get(c, &n.page, forWrite && n.leaf)
			t.env.latchPage(c, &n.page, forWrite && n.leaf)
			if prev != nil {
				t.env.unlatchPage(c, &prev.page) // crab latching
			}
			t.work(c, workDescend, t.env.cfg.Costs.BtreeLevel)
		}
		if n.leaf {
			t.path = path
			return n, path
		}
		path = append(path, n)
		// Canonical B+-tree routing: keys[j] separates kids[j] and
		// kids[j+1]; descend into the first child whose upper bound
		// exceeds key.
		i := t.upperIdx(c, n, key)
		if c != nil {
			c.rec.Load(t.pc(siteChildLoad), n.page.slotAddr(i))
			t.env.pool.unpin(c, &n.page)
		}
		prev = n
		n = n.kids[i]
	}
}

// Get looks up key, emitting the full read path. The row is returned without
// copying; callers emit field reads through Row.ReadField.
func (t *Tree) Get(c *Ctx, key int64) (*Row, bool) {
	leaf, _ := t.descend(c, key, false)
	i := t.findIdx(c, leaf, key)
	found := i < len(leaf.keys) && leaf.keys[i] == key
	if c != nil {
		if found {
			c.rec.Load(t.pc(siteRowPtr), leaf.page.slotAddr(i))
			t.work(c, workGet, t.env.cfg.Costs.RowRead)
		}
		t.env.unlatchPage(c, &leaf.page)
		t.env.pool.unpin(c, &leaf.page)
	}
	if !found {
		return nil, false
	}
	return t.env.row(leaf.rows[i]), true
}

// GetForUpdate looks up key with write intent: the page is fetched for
// writing (marking the frame dirty and bumping the pool's dirty-page
// accounting), as an UPDATE's current-mode cursor does.
func (t *Tree) GetForUpdate(c *Ctx, key int64) (*Row, bool) {
	leaf, _ := t.descend(c, key, true)
	i := t.findIdx(c, leaf, key)
	found := i < len(leaf.keys) && leaf.keys[i] == key
	if c != nil {
		if found {
			c.rec.Load(t.pc(siteRowPtr), leaf.page.slotAddr(i))
			t.work(c, workGet, t.env.cfg.Costs.RowRead)
		}
		t.env.unlatchPage(c, &leaf.page)
		t.env.pool.unpin(c, &leaf.page)
	}
	if !found {
		return nil, false
	}
	return t.env.row(leaf.rows[i]), true
}

// Insert adds (key, row); duplicate keys are rejected with a panic — the
// TPC-C workloads never generate duplicates, so one indicates a bug.
func (t *Tree) Insert(c *Ctx, key int64, row *Row) {
	leaf, path := t.descend(c, key, true)
	i := t.findIdx(c, leaf, key)
	if i < len(leaf.keys) && leaf.keys[i] == key {
		panic(fmt.Sprintf("db: duplicate key %d in %s", key, t.name))
	}
	if c != nil {
		c.noteWrite()
		// Slot shift, key/pointer stores, and the entry-count update:
		// the leaf header store is the contended word.
		t.work(c, workInsert, t.env.cfg.Costs.LeafInsert)
		c.rec.Store(t.pc(siteSlotShift), leaf.page.slotAddr(i))
		c.rec.Store(t.pc(siteKeyStore), leaf.page.keyAddr(i))
		c.rec.Store(t.pc(siteRowPtrStore), leaf.page.slotAddr(i))
		c.rec.ALU(4)
		c.rec.Store(t.pc(siteHdrCountStore), leaf.page.hdrCount())
	}
	leaf.keys = insertAt(leaf.keys, i, key)
	leaf.rows = insertAt(leaf.rows, i, row.id)
	t.Size++
	if c != nil {
		c.noteUndo(func() { t.Delete(nil, key) })
	}
	if len(leaf.keys) > t.env.cfg.NodeCapacity {
		t.split(c, leaf, path)
	}
	if c != nil {
		t.env.unlatchPage(c, &leaf.page)
		t.env.pool.unpin(c, &leaf.page)
		// Table record-count statistics: one of the "actual data
		// dependences which are difficult to optimize away" (§5) —
		// every insert into the same table conflicts here.
		c.rec.Load(t.pc(siteStatsLoad), t.stats)
		c.rec.ALU(3)
		c.rec.Store(t.pc(siteStatsStore), t.stats)
		t.env.log.record(c, 8)
	}
}

// Delete removes key, reporting whether it was present. Underflow merging is
// not implemented (deletes are rare in these workloads — only DELIVERY
// removes NEW_ORDER rows — and BerkeleyDB also leaves pages underfull).
func (t *Tree) Delete(c *Ctx, key int64) bool {
	leaf, _ := t.descend(c, key, true)
	i := t.findIdx(c, leaf, key)
	if i >= len(leaf.keys) || leaf.keys[i] != key {
		if c != nil {
			t.env.unlatchPage(c, &leaf.page)
			t.env.pool.unpin(c, &leaf.page)
		}
		return false
	}
	if c != nil {
		c.noteWrite()
		t.work(c, workDelete, t.env.cfg.Costs.LeafDelete)
		c.rec.Store(t.pc(siteSlotShift), leaf.page.slotAddr(i))
		c.rec.ALU(4)
		c.rec.Store(t.pc(siteHdrCountStore), leaf.page.hdrCount())
		t.env.unlatchPage(c, &leaf.page)
		t.env.pool.unpin(c, &leaf.page)
		c.rec.Load(t.pc(siteStatsLoad), t.stats)
		c.rec.ALU(3)
		c.rec.Store(t.pc(siteStatsStore), t.stats)
		t.env.log.record(c, 6)
	}
	if c != nil {
		row := t.env.row(leaf.rows[i])
		c.noteUndo(func() { t.Insert(nil, key, row) })
	}
	leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
	leaf.rows = append(leaf.rows[:i], leaf.rows[i+1:]...)
	t.Size--
	return true
}

// Scan walks entries with key >= from in order, emitting leaf-chain reads,
// until fn returns false or max entries have been visited (max <= 0 means
// unlimited).
func (t *Tree) Scan(c *Ctx, from int64, max int, fn func(key int64, r *Row) bool) {
	leaf, _ := t.descend(c, from, false)
	i := t.findIdx(c, leaf, from)
	seen := 0
	for leaf != nil {
		for ; i < len(leaf.keys); i++ {
			if c != nil {
				c.rec.Load(t.pc(siteScanKey), leaf.page.keyAddr(i))
				c.rec.Load(t.pc(siteScanPtr), leaf.page.slotAddr(i))
				c.rec.ALU(6)
				c.branchSeq++
				c.rec.Branch(t.pc(siteScanBranch), true)
			}
			if !fn(leaf.keys[i], t.env.row(leaf.rows[i])) {
				if c != nil {
					t.env.unlatchPage(c, &leaf.page)
					t.env.pool.unpin(c, &leaf.page)
				}
				return
			}
			seen++
			if max > 0 && seen >= max {
				if c != nil {
					t.env.unlatchPage(c, &leaf.page)
					t.env.pool.unpin(c, &leaf.page)
				}
				return
			}
		}
		next := leaf.next
		if c != nil {
			t.env.unlatchPage(c, &leaf.page)
			t.env.pool.unpin(c, &leaf.page)
			if next != nil {
				t.env.pool.get(c, &next.page, false)
				t.env.latchPage(c, &next.page, false)
				c.rec.Load(t.pc(siteHdrCountLoad), next.page.hdrCount())
			}
		}
		leaf = next
		i = 0
	}
}

// split divides an overfull node, propagating up the path. Leaf splits copy
// the upper half and publish its first key as the separator; internal splits
// push the middle separator up.
func (t *Tree) split(c *Ctx, n *node, path []*node) {
	t.Splits++
	right := t.newNode(n.leaf)
	var sep int64
	var mid int
	if n.leaf {
		mid = len(n.keys) / 2
		right.keys = append(right.keys, n.keys[mid:]...)
		right.rows = append(right.rows, n.rows[mid:]...)
		n.keys = n.keys[:mid]
		n.rows = n.rows[:mid]
		right.next = n.next
		n.next = right
		sep = right.keys[0]
	} else {
		mid = len(n.keys) / 2
		sep = n.keys[mid]
		right.keys = append(right.keys, n.keys[mid+1:]...)
		right.kids = append(right.kids, n.kids[mid+1:]...)
		n.keys = n.keys[:mid]
		n.kids = n.kids[:mid+1]
	}

	if c != nil {
		// Moving half the entries is a burst of page traffic.
		t.work(c, workSplit, 800)
		for i := 0; i < 8; i++ {
			c.rec.Load(t.pc(siteSplitCopyLoad), n.page.keyAddr(mid+i))
			c.rec.Store(t.pc(siteSplitCopyStore), right.page.keyAddr(i))
		}
		c.rec.Store(t.pc(siteHdrCountStore), n.page.hdrCount())
		c.rec.Store(t.pc(siteHdrCountStore), right.page.hdrCount())
	}

	if len(path) == 0 {
		// Grow a new root.
		root := t.newNode(false)
		root.keys = append(root.keys, sep)
		root.kids = append(root.kids, n, right)
		t.root = root
		t.height++
		return
	}
	parent := path[len(path)-1]
	i := parentIdx(parent, n)
	parent.keys = insertAt(parent.keys, i, sep)
	parent.kids = insertAt(parent.kids, i+1, right)
	if c != nil {
		c.rec.Store(t.pc(siteParentKeyStore), parent.page.keyAddr(i))
		c.rec.Store(t.pc(siteHdrCountStore), parent.page.hdrCount())
	}
	if len(parent.keys) > t.env.cfg.NodeCapacity {
		t.split(c, parent, path[:len(path)-1])
	}
}

func parentIdx(parent, child *node) int {
	for i, k := range parent.kids {
		if k == child {
			return i
		}
	}
	panic("db: split child not found in parent")
}

// insertAt inserts v at index i of s.
func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// LoadInsert bulk-loads (key, row) without emitting trace events; the paper
// does not time database loading either. Rows are packed contiguously, so
// adjacent rows of a table can share cache lines — the realistic false-
// sharing the line-granularity dependence tracking of §2.1 is exposed to.
func (t *Tree) LoadInsert(key int64, fields ...int64) *Row {
	row := t.env.newRow(t.env.heap.AllocWords(len(fields)*2), len(fields))
	copy(row.Fields[:], fields)
	t.Insert(nil, key, row)
	return row
}

// LoadInsertPadded bulk-loads a row on its own cache line. Used for small hot
// tables (WAREHOUSE, DISTRICT) whose rows would otherwise all share one line
// and serialize every transaction — the padding the paper's tuning process
// applies to hot structures.
func (t *Tree) LoadInsertPadded(key int64, fields ...int64) *Row {
	size := uint32(len(fields) * 8)
	if size == 0 {
		size = 8
	}
	row := t.env.newRow(t.env.heap.Alloc(size, mem.LineSize), len(fields))
	copy(row.Fields[:], fields)
	t.Insert(nil, key, row)
	return row
}
