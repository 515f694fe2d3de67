package profile

import (
	"cmp"

	"subthreads/internal/snapbin"
)

// Snapshot codecs. The exposed load table serializes only its live entries
// (most slots are empty between epochs); the pair list serializes in
// ascending (LoadPC, StorePC) order so the encoding is deterministic.

const maxSnapPairs = 1 << 22

// State streams the table's live entries as (slot, tag, pc); a slot outside
// the restore target's geometry latches an error.
func (t *ExposedLoadTable) State(s *snapbin.Stream) {
	live := 0
	for i := range t.tags {
		if t.tags[i] != 0 || t.pcs[i] != 0 {
			live++
		}
	}
	if s.Reading() {
		t.Reset()
	}
	s.Len(&live, "exposed-load entries", len(t.tags))
	for k, slot := 0, uint64(0); k < live; k, slot = k+1, slot+1 {
		for !s.Reading() && t.tags[slot] == 0 && t.pcs[slot] == 0 {
			slot++
		}
		s.Uvarint(&slot, "exposed-load slot")
		if s.Reading() && s.Err() == nil && slot >= uint64(len(t.tags)) {
			s.Failf("exposed-load slot %d out of range (%d entries)", slot, len(t.tags))
			return
		}
		snapbin.Uvarint(s, &t.tags[slot], "exposed-load tag")
		snapbin.Uvarint(s, &t.pcs[slot], "exposed-load pc")
	}
}

// State streams the pair list's entries and reclaim count; an entry count
// above the restore target's capacity latches an error.
func (l *PairList) State(s *snapbin.Stream) {
	snapbin.MapFunc(s, l.pairs, "pair-list entries", min(l.capacity, maxSnapPairs), comparePairs,
		func(s *snapbin.Stream, p Pair, st *PairStat) (Pair, *PairStat) {
			snapbin.Uvarint(s, &p.LoadPC, "pair load pc")
			snapbin.Uvarint(s, &p.StorePC, "pair store pc")
			if s.Reading() {
				st = &PairStat{Pair: p}
			}
			s.Uvarint(&st.FailedCycles, "pair failed cycles")
			s.Uvarint(&st.Violations, "pair violations")
			return p, st
		})
	s.Uvarint(&l.Reclaimed, "pair reclaimed")
}

// comparePairs orders pairs by load PC, then store PC.
func comparePairs(a, b Pair) int {
	if c := cmp.Compare(a.LoadPC, b.LoadPC); c != 0 {
		return c
	}
	return cmp.Compare(a.StorePC, b.StorePC)
}

// Empty reports whether the profile carries no state — the forkability test
// for prefix snapshots.
func (l *PairList) Empty() bool { return len(l.pairs) == 0 && l.Reclaimed == 0 }
