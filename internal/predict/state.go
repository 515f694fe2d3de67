package predict

import (
	"subthreads/internal/isa"
	"subthreads/internal/snapbin"
)

// Snapshot codec: the confidence map serializes in ascending PC order so the
// encoding is deterministic regardless of map iteration order.

const maxSnapPCs = 1 << 22

// State streams the predictor's confidence table and counters.
func (p *Predictor) State(s *snapbin.Stream) {
	snapbin.Map(s, p.conf, "predictor pcs", maxSnapPCs, func(s *snapbin.Stream, pc isa.PC, conf uint8) (isa.PC, uint8) {
		snapbin.Uvarint(s, &pc, "predictor pc")
		s.U8(&conf, "predictor confidence")
		return pc, conf
	})
	s.Uvarint(&p.Trained, "predictor trained")
	s.Uvarint(&p.Decayed, "predictor decayed")
}

// Empty reports whether the predictor carries no trained state at all — the
// forkability test for prefix snapshots (an untouched predictor restores
// identically under any configuration).
func (p *Predictor) Empty() bool {
	return len(p.conf) == 0 && p.Trained == 0 && p.Decayed == 0
}
