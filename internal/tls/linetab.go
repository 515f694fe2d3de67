package tls

import "subthreads/internal/mem"

// The L2 directory (lines -> lineMeta) sits on the path of every speculative
// load and store, so it is modeled the way the hardware builds it: direct
// addressing by line index rather than hashing. The simulated address space
// is a 32-bit bump-allocated space with clustered regions, so the table is
// paged — a two-level array indexed by line number — and pages materialize
// lazily for the clusters a workload actually touches. Lookup is two array
// indexes and no hashing or interface dispatch.
const (
	linePageShift = 12 // lines per page (4096 lines = 128KB of address space)
	linePageSize  = 1 << linePageShift
	linePageMask  = linePageSize - 1
)

// lineTab is the paged line-index -> *lineMeta directory.
type lineTab struct {
	pages [][]*lineMeta
}

// growPages extends the page directory to cover index p, growing
// geometrically to avoid recopying it on every new high-water page.
func growPages(pages [][]*lineMeta, p uint32) [][]*lineMeta {
	n := uint32(len(pages)) * 2
	if n <= p {
		n = p + 1
	}
	grown := make([][]*lineMeta, n)
	copy(grown, pages)
	return grown
}

// get returns the directory entry for line, or nil.
func (t *lineTab) get(line mem.Addr) *lineMeta {
	idx := line.LineIndex()
	p := idx >> linePageShift
	if p >= uint32(len(t.pages)) || t.pages[p] == nil {
		return nil
	}
	return t.pages[p][idx&linePageMask]
}

// set installs (or, with nil, clears) the directory entry for line.
func (t *lineTab) set(line mem.Addr, lm *lineMeta) {
	idx := line.LineIndex()
	p := idx >> linePageShift
	if p >= uint32(len(t.pages)) {
		t.pages = growPages(t.pages, p)
	}
	if t.pages[p] == nil {
		if lm == nil {
			return
		}
		t.pages[p] = make([]*lineMeta, linePageSize)
	}
	t.pages[p][idx&linePageMask] = lm
}

// forEach visits every resident directory entry in ascending line order
// (audits and tests only — it walks every materialized page).
func (t *lineTab) forEach(fn func(line mem.Addr, lm *lineMeta)) {
	for p, page := range t.pages {
		for i, lm := range page {
			if lm == nil {
				continue
			}
			idx := uint32(p)<<linePageShift | uint32(i)
			fn(mem.Addr(idx)*mem.LineSize, lm)
		}
	}
}

// live counts the resident directory entries (tests and invariants only —
// it walks every materialized page).
func (t *lineTab) live() int {
	n := 0
	for _, page := range t.pages {
		for _, lm := range page {
			if lm != nil {
				n++
			}
		}
	}
	return n
}
