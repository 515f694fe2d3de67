// Package cache models the cache hierarchy of the simulated CMP (Table 1):
// per-CPU 32KB 4-way L1 instruction and data caches, a shared banked 2MB
// 4-way L2, and the 64-entry speculative victim cache that catches
// speculative lines evicted from the L2 by conflict misses (§2.1).
//
// The L2 is version-aware: the TLS protocol stores multiple speculative
// versions of one cache line in the different ways of a set (§2.1), so a
// cache entry here is (line address, version owner), and versions compete
// for ways exactly as the paper describes.
package cache

import (
	"fmt"

	"subthreads/internal/mem"
)

// Ver identifies which copy of a line an entry holds. VerCommitted is the
// architectural copy; other values are speculative versions owned by one
// sub-thread context (the TLS layer assigns them).
type Ver int16

// VerCommitted marks the committed (non-speculative) copy of a line.
const VerCommitted Ver = -1

// Entry is one tag-store entry: a specific version of a specific line.
type Entry struct {
	Line mem.Addr
	Ver  Ver
}

func (e Entry) String() string {
	if e.Ver == VerCommitted {
		return fmt.Sprintf("%v/committed", e.Line)
	}
	return fmt.Sprintf("%v/v%d", e.Line, e.Ver)
}

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Config sizes a cache.
type Config struct {
	Name string
	Sets int // power of two
	Ways int
}

// Cache is a set-associative, LRU-replacement tag store. It tracks only
// presence, not data: the simulator is trace driven and needs hit/miss
// behaviour and occupancy, not values.
type Cache struct {
	cfg  Config
	mask mem.Addr
	sets [][]Entry // each set ordered MRU first
	Stats
}

// New builds a cache from cfg. Sets must be a power of two and Ways >= 1.
func New(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %q: sets %d not a power of two", cfg.Name, cfg.Sets))
	}
	if cfg.Ways < 1 {
		panic(fmt.Sprintf("cache %q: ways %d", cfg.Name, cfg.Ways))
	}
	return &Cache{
		cfg:  cfg,
		mask: mem.Addr(cfg.Sets - 1),
		sets: make([][]Entry, cfg.Sets),
	}
}

func (c *Cache) setIndex(line mem.Addr) int {
	return int((line / mem.LineSize) & c.mask)
}

// Lookup reports whether the exact entry is present, updating LRU order and
// hit/miss statistics.
func (c *Cache) Lookup(e Entry) bool {
	set := c.sets[c.setIndex(e.Line)]
	for i, have := range set {
		if have == e {
			// Move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = e
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Present reports whether the exact entry is cached without touching LRU
// order or statistics.
func (c *Cache) Present(e Entry) bool {
	for _, have := range c.sets[c.setIndex(e.Line)] {
		if have == e {
			return true
		}
	}
	return false
}

// Insert adds e at the MRU position of its set. If the set is full, the
// least-recently-used entry of the lowest class (as ranked by classOf;
// lower means "prefer to evict") is evicted and returned. classOf may be nil,
// in which case pure LRU applies. Inserting an already-present entry just
// refreshes its LRU position.
func (c *Cache) Insert(e Entry, classOf func(Entry) int) (victim Entry, evicted bool) {
	idx := c.setIndex(e.Line)
	set := c.sets[idx]
	for i, have := range set {
		if have == e {
			copy(set[1:i+1], set[:i])
			set[0] = e
			return Entry{}, false
		}
	}
	if len(set) < c.cfg.Ways {
		set = append(set, Entry{})
		copy(set[1:], set)
		set[0] = e
		c.sets[idx] = set
		return Entry{}, false
	}
	// Choose the LRU entry of the lowest class. Scanning from the LRU end
	// finds the least recently used entry within each class.
	vi := len(set) - 1
	if classOf != nil {
		best := classOf(set[vi])
		for i := len(set) - 2; i >= 0 && best > 0; i-- {
			if cl := classOf(set[i]); cl < best {
				best = cl
				vi = i
			}
		}
	}
	victim = set[vi]
	copy(set[1:vi+1], set[:vi])
	set[0] = e
	c.Evictions++
	return victim, true
}

// Remove drops the exact entry if present, reporting whether it was.
func (c *Cache) Remove(e Entry) bool {
	idx := c.setIndex(e.Line)
	set := c.sets[idx]
	for i, have := range set {
		if have == e {
			c.sets[idx] = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}

// ForEach visits every resident entry in deterministic (set, MRU) order
// without touching LRU state. The TLS auditor uses it to validate version
// occupancy.
func (c *Cache) ForEach(fn func(Entry)) {
	for _, set := range c.sets {
		for _, e := range set {
			fn(e)
		}
	}
}

// LookupLine reports whether any version of the line is resident, refreshing
// the LRU position of the first matching entry and updating statistics. The
// memory system uses it for timing: a speculative version forwarded from an
// earlier epoch serves a later epoch's load as an L2 hit (§2.1 aggressive
// update propagation).
func (c *Cache) LookupLine(line mem.Addr) bool {
	set := c.sets[c.setIndex(line)]
	for i, have := range set {
		if have.Line == line {
			e := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = e
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Rename retags a resident entry in place, keeping its LRU position. The TLS
// layer uses it at commit time to flash-convert a speculative version into
// the committed copy without disturbing occupancy. It reports whether old was
// resident; if new is already resident, old is simply removed.
func (c *Cache) Rename(old, new Entry) bool {
	if old.Line.Line() != new.Line.Line() {
		panic("cache: Rename across lines")
	}
	if c.Present(new) {
		return c.Remove(old)
	}
	set := c.sets[c.setIndex(old.Line)]
	for i, have := range set {
		if have == old {
			set[i] = new
			return true
		}
	}
	return false
}

// VictimClass reports what an insert of a new entry into line's set would
// displace: -1 when a free way exists (or the entry would refresh in place),
// otherwise the class (per classOf) of the would-be victim. The TLS layer
// uses it to decide whether buffering new speculative state would force
// un-buffferable speculative state out (§2.1 overflow stall).
func (c *Cache) VictimClass(line mem.Addr, classOf func(Entry) int) int {
	set := c.sets[c.setIndex(line)]
	if len(set) < c.cfg.Ways {
		return -1
	}
	vi := len(set) - 1
	best := classOf(set[vi])
	for i := len(set) - 2; i >= 0 && best > 0; i-- {
		if cl := classOf(set[i]); cl < best {
			best = cl
		}
	}
	return best
}
