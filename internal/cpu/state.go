package cpu

import "subthreads/internal/snapbin"

// Snapshot codec for the branch predictor: the counter table is serialized
// verbatim (it is trained state, not configuration), plus history and the
// outcome counters. Geometry comes from the restore target's construction.

// State streams the predictor's trained counters and statistics; restoring
// needs a table of the same size.
func (g *GShare) State(s *snapbin.Stream) {
	n := len(g.table)
	s.Len(&n, "gshare table", 1<<30)
	if s.Reading() && s.Err() == nil && n != len(g.table) {
		s.Failf("gshare: frame table is %d entries, config has %d", n, len(g.table))
		return
	}
	s.Raw(g.table, "gshare table")
	snapbin.Uvarint(s, &g.history, "gshare history")
	s.Uvarint(&g.Predictions, "gshare predictions")
	s.Uvarint(&g.Mispredicts, "gshare mispredicts")
}
