package cache

import "subthreads/internal/mem"

// Victim is the speculative victim cache attached to the L2 (§2.1): a small
// fully-associative LRU buffer that catches speculative cache lines evicted
// from the regular L2 by conflict misses. The paper sizes it at 64 entries —
// "large enough to avoid stalling threads due to cache overflows for our
// worst case". When it overflows, the TLS layer must stall the owning thread
// until it becomes non-speculative.
type Victim struct {
	capacity int
	entries  []Entry // MRU first
	Stats
}

// NewVictim returns a victim cache holding up to capacity entries.
// Zero capacity is legal and models hardware without a victim cache.
func NewVictim(capacity int) *Victim {
	if capacity < 0 {
		panic("cache: negative victim capacity")
	}
	return &Victim{capacity: capacity}
}

// Insert adds e at the MRU position. If the victim cache is full, the LRU
// entry is evicted and returned — the caller (TLS layer) must then stall the
// epoch owning that version, because speculative state cannot be written back
// to memory.
func (v *Victim) Insert(e Entry) (overflow Entry, overflowed bool) {
	for i, have := range v.entries {
		if have == e {
			copy(v.entries[1:i+1], v.entries[:i])
			v.entries[0] = e
			return Entry{}, false
		}
	}
	if v.capacity == 0 {
		return e, true
	}
	if len(v.entries) < v.capacity {
		v.entries = append(v.entries, Entry{})
	} else {
		overflow = v.entries[len(v.entries)-1]
		overflowed = true
		v.Evictions++
	}
	copy(v.entries[1:], v.entries)
	v.entries[0] = e
	return overflow, overflowed
}

// Remove drops the exact entry if present.
func (v *Victim) Remove(e Entry) bool {
	for i, have := range v.entries {
		if have == e {
			v.entries = append(v.entries[:i], v.entries[i+1:]...)
			return true
		}
	}
	return false
}

// ForEach visits every resident entry in MRU order without touching LRU
// state.
func (v *Victim) ForEach(fn func(Entry)) {
	for _, e := range v.entries {
		fn(e)
	}
}

// LookupLine reports whether any version of the line is resident, refreshing
// the LRU position of the first match and updating statistics.
func (v *Victim) LookupLine(line mem.Addr) bool {
	for i, have := range v.entries {
		if have.Line == line {
			e := v.entries[i]
			copy(v.entries[1:i+1], v.entries[:i])
			v.entries[0] = e
			v.Hits++
			return true
		}
	}
	v.Misses++
	return false
}

// Full reports whether the victim cache cannot absorb another entry.
func (v *Victim) Full() bool { return len(v.entries) >= v.capacity }
