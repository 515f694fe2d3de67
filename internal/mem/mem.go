// Package mem models the simulated physical address space that the workload
// substrate allocates its data structures in. Only addresses matter: the
// simulator tracks dependences and cache behaviour by address, while the
// database engine keeps its actual data in native Go structures. This mirrors
// the paper's trace-driven methodology, where the simulator consumes address
// traces rather than architecturally executing the program.
package mem

import "fmt"

// Addr is a simulated physical address.
type Addr uint32

// Geometry constants shared by the whole memory system (Table 1: 32 B lines).
const (
	// WordSize is the access granularity of loads and stores, and the
	// granularity at which speculative modifications are tracked in the L2.
	WordSize = 4
	// LineSize is the cache line size everywhere in the hierarchy.
	LineSize = 32
	// WordsPerLine is how many speculative-modification mask bits a line needs.
	WordsPerLine = LineSize / WordSize
)

// Line returns the line-aligned base address containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// LineIndex returns the dense index of a's line in the address space —
// the index direct-mapped hardware tables (and their software models) use
// instead of hashing the address.
func (a Addr) LineIndex() uint32 { return uint32(a) / LineSize }

// Word returns the word-aligned address containing a.
func (a Addr) Word() Addr { return a &^ (WordSize - 1) }

// WordInLine returns the index (0..WordsPerLine-1) of a's word within its line.
func (a Addr) WordInLine() uint { return uint(a%LineSize) / WordSize }

// WordMask returns the single-bit speculative-modification mask for a's word.
func WordMask(a Addr) uint8 { return 1 << a.WordInLine() }

func (a Addr) String() string { return fmt.Sprintf("0x%08x", uint32(a)) }

// A Region is a named carve-out of the address space (heap pages, the log,
// the lock table, per-CPU private stacks, ...). Keeping structures in
// distinct regions makes simulator diagnostics and profiler output readable.
type Region struct {
	Name string
	Base Addr
	Size uint32

	cur Addr
}

// Remaining reports how many bytes are still unallocated in the region.
func (r *Region) Remaining() uint32 { return r.Size - uint32(r.cur-r.Base) }

// Alloc carves size bytes, aligned to align (a power of two), out of the
// region. It panics if the region is exhausted: the workloads size their
// regions up front, so exhaustion is a programming error, not a runtime
// condition to handle.
func (r *Region) Alloc(size, align uint32) Addr {
	if align == 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: bad alignment %d", align))
	}
	a := (r.cur + Addr(align-1)) &^ Addr(align-1)
	end := a + Addr(size)
	if end < a || uint32(end-r.Base) > r.Size {
		panic(fmt.Sprintf("mem: region %q exhausted (size %d, requested %d)", r.Name, r.Size, size))
	}
	r.cur = end
	return a
}

// AllocWords is shorthand for allocating n word-aligned words.
func (r *Region) AllocWords(n int) Addr {
	return r.Alloc(uint32(n)*WordSize, WordSize)
}

// AllocLine allocates one full line-aligned cache line. Hot shared words
// (latches, counters, list heads) get their own line to make false sharing
// between unrelated structures impossible — any cross-thread conflict the
// simulator reports on them is a genuine dependence.
func (r *Region) AllocLine() Addr {
	return r.Alloc(LineSize, LineSize)
}

// Contains reports whether a falls inside the region.
func (r *Region) Contains(a Addr) bool {
	return a >= r.Base && uint32(a-r.Base) < r.Size
}

// Space is the whole simulated address space, subdivided into regions.
type Space struct {
	regions []*Region
	next    Addr
}

// NewSpace returns an empty address space. Address 0 is left unmapped so the
// zero Addr can mean "nothing".
func NewSpace() *Space {
	return &Space{next: LineSize}
}

// NewRegion carves a fresh region of the given size (rounded up to a line)
// out of the space.
func (s *Space) NewRegion(name string, size uint32) *Region {
	size = (size + LineSize - 1) &^ (LineSize - 1)
	base := s.next
	end := base + Addr(size)
	if end < base {
		panic(fmt.Sprintf("mem: address space exhausted creating region %q", name))
	}
	s.next = end
	r := &Region{Name: name, Base: base, Size: size, cur: base}
	s.regions = append(s.regions, r)
	return r
}

// Clone returns a copy of the space whose regions have the same names,
// bounds and allocation cursors as s's: it allocates the same addresses from
// here on. RegionOf(r.Base) on the copy finds the copy of s's region r.
func (s *Space) Clone() *Space {
	c := &Space{regions: make([]*Region, len(s.regions)), next: s.next}
	regions := make([]Region, len(s.regions))
	for i, r := range s.regions {
		regions[i] = *r
		c.regions[i] = &regions[i]
	}
	return c
}

// RegionOf returns the region containing a, or nil.
func (s *Space) RegionOf(a Addr) *Region {
	for _, r := range s.regions {
		if r.Contains(a) {
			return r
		}
	}
	return nil
}

// Used reports the total bytes carved into regions so far.
func (s *Space) Used() uint32 { return uint32(s.next) }
