package cache

import (
	"subthreads/internal/snapbin"
)

// Snapshot codecs: the cache hierarchy's complete runtime state — tag-store
// contents including LRU order, victim-cache contents, bank reservations, and
// statistics — streamed to and from the snapbin frame. Geometry (sets, ways,
// capacities) is NOT serialized: it is configuration, and the restore target
// is always freshly constructed from the same (or a prefix-compatible)
// config. LRU order is implicit in slice order (MRU first), so sets and the
// victim cache serialize verbatim and restore byte-identically.

// maxSnapEntries caps decoded entry counts; no modeled structure approaches
// it (the 2MB L2 holds 65536 entries).
const maxSnapEntries = 1 << 22

// State streams the tag store's contents, LRU order, and stats. Restoring
// needs a cache of the same geometry: occupancy beyond Ways or an entry
// outside the set it is framed under latches a decode error.
func (c *Cache) State(s *snapbin.Stream) {
	s.Uvarint(&c.Hits, "cache hits")
	s.Uvarint(&c.Misses, "cache misses")
	s.Uvarint(&c.Evictions, "cache evictions")
	for i := range c.sets {
		snapbin.Slice(s, &c.sets[i], "cache set", c.cfg.Ways)
		for j := range c.sets[i] {
			e := &c.sets[i][j]
			entryState(s, e)
			if s.Reading() && s.Err() == nil && c.setIndex(e.Line) != i {
				s.Failf("cache %q: line %v framed under set %d", c.cfg.Name, e.Line, i)
				return
			}
		}
	}
}

// State streams the victim cache's contents (MRU first) and stats; the
// restore target's capacity bounds the entry count.
func (v *Victim) State(s *snapbin.Stream) {
	s.Uvarint(&v.Hits, "victim hits")
	s.Uvarint(&v.Misses, "victim misses")
	s.Uvarint(&v.Evictions, "victim evictions")
	snapbin.Slice(s, &v.entries, "victim entries", v.capacity)
	for i := range v.entries {
		entryState(s, &v.entries[i])
	}
}

func entryState(s *snapbin.Stream, e *Entry) {
	snapbin.Uvarint(s, &e.Line, "cache line")
	snapbin.Varint(s, &e.Ver, "cache ver")
}

// State streams the bank reservation horizon and conflict count; the bank
// count must match the restore target's configuration.
func (b *Banks) State(s *snapbin.Stream) {
	n := len(b.nextFree)
	s.Len(&n, "banks", maxSnapEntries)
	if s.Reading() && s.Err() == nil && n != len(b.nextFree) {
		s.Failf("banks: frame has %d banks, config has %d", n, len(b.nextFree))
		return
	}
	for i := range b.nextFree {
		s.Uvarint(&b.nextFree[i], "bank next-free")
	}
	s.Uvarint(&b.Conflicts, "bank conflicts")
}
