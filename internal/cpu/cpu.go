// Package cpu models the processor cores of the simulated CMP: 4-way issue
// machines in the spirit of the paper's modernized MIPS R10000 (Table 1),
// with a GShare branch predictor and the functional-unit latencies from
// internal/isa. The per-cycle issue state machine itself lives in
// internal/sim, which owns the global clock; this package supplies the
// core-local predictive and parametric pieces.
package cpu

import "subthreads/internal/isa"

// Params configures one core (Table 1 pipeline parameters).
type Params struct {
	// IssueWidth is the number of instructions issued per cycle.
	IssueWidth int
	// ReorderBuffer approximates the instruction window: it bounds how far
	// execution can run ahead of a pending long-latency operation. The
	// trace-driven model uses it to overlap a fraction of a cache-miss
	// stall with independent work.
	ReorderBuffer int
	// Lat holds functional-unit latencies.
	Lat isa.Latencies
	// BranchTableBits sizes the GShare counter table (Table 1: 16KB of
	// 2-bit counters = 2^16 entries).
	BranchTableBits int
	// BranchHistoryBits is the global history length (Table 1: 8).
	BranchHistoryBits int
}

// DefaultParams returns the Table 1 core configuration.
func DefaultParams() Params {
	return Params{
		IssueWidth:        4,
		ReorderBuffer:     128,
		Lat:               isa.DefaultLatencies(),
		BranchTableBits:   16,
		BranchHistoryBits: 8,
	}
}

// GShare is the classic global-history XOR branch predictor with 2-bit
// saturating counters.
type GShare struct {
	table   []uint8
	mask    uint32
	history uint32
	histMax uint32

	// Predictions and Mispredicts count outcomes for statistics.
	Predictions uint64
	Mispredicts uint64
}

// NewGShare builds a predictor with 2^tableBits counters and historyBits of
// global history.
func NewGShare(tableBits, historyBits int) *GShare {
	if tableBits < 1 || tableBits > 30 || historyBits < 0 || historyBits > 30 {
		panic("cpu: bad gshare geometry")
	}
	size := 1 << tableBits
	g := &GShare{
		table:   make([]uint8, size),
		mask:    uint32(size - 1),
		histMax: (1 << historyBits) - 1,
	}
	// Initialize counters to weakly taken: real predictors warm up fast,
	// and loop branches (the common case in these workloads) are taken.
	for i := range g.table {
		g.table[i] = 2
	}
	return g
}

func (g *GShare) index(pc isa.PC) uint32 {
	return (uint32(pc)*2654435761 ^ g.history) & g.mask
}

// Predict records an actual branch outcome against the predictor's guess,
// updates the counter and history, and reports whether the prediction was
// correct.
func (g *GShare) Predict(pc isa.PC, taken bool) (correct bool) {
	i := g.index(pc)
	pred := g.table[i] >= 2
	correct = pred == taken
	g.Predictions++
	if !correct {
		g.Mispredicts++
	}
	if taken {
		if g.table[i] < 3 {
			g.table[i]++
		}
	} else if g.table[i] > 0 {
		g.table[i]--
	}
	g.history = ((g.history << 1) | b2u(taken)) & g.histMax
	return correct
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
