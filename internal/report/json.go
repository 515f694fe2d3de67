package report

import (
	"io"

	"subthreads/internal/sim"
)

// TLSStatsJSON is the machine-readable form of the TLS protocol counters.
type TLSStatsJSON struct {
	PrimaryViolations   uint64 `json:"primary_violations"`
	SecondaryViolations uint64 `json:"secondary_violations"`
	OverflowSquashes    uint64 `json:"overflow_squashes"`
	OverflowStalls      uint64 `json:"overflow_stalls"`
	ExposedLoads        uint64 `json:"exposed_loads"`
	SpecStores          uint64 `json:"spec_stores"`
	SubthreadStarts     uint64 `json:"subthread_starts"`
	Commits             uint64 `json:"commits"`
}

// MemStatsJSON is the machine-readable form of the memory-system counters.
type MemStatsJSON struct {
	L1Hits          uint64 `json:"l1_hits"`
	L1Misses        uint64 `json:"l1_misses"`
	L2Hits          uint64 `json:"l2_hits"`
	L2Misses        uint64 `json:"l2_misses"`
	MemAccesses     uint64 `json:"mem_accesses"`
	L1Invalidations uint64 `json:"l1_invalidations"`
	L1IHits         uint64 `json:"l1i_hits"`
	L1IMisses       uint64 `json:"l1i_misses"`
}

// ResultJSON is the machine-readable form of a sim.Result, with the cycle
// breakdown keyed by category name so downstream tooling never depends on
// the Category ordering.
type ResultJSON struct {
	Cycles    uint64            `json:"cycles"`
	Breakdown map[string]uint64 `json:"breakdown"`

	CommittedInstrs uint64 `json:"committed_instrs"`
	RewoundInstrs   uint64 `json:"rewound_instrs"`
	SpecInstrs      uint64 `json:"spec_instrs"`
	EpochCount      int    `json:"epoch_count"`

	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`

	LatchDeadlockBreaks uint64 `json:"latch_deadlock_breaks"`
	PredictorSyncs      uint64 `json:"predictor_syncs"`
	OverflowWaits       uint64 `json:"overflow_waits"`

	TLS TLSStatsJSON `json:"tls"`
	Mem MemStatsJSON `json:"memory"`
}

// FromResult converts a sim.Result to its JSON form.
func FromResult(r *sim.Result) ResultJSON {
	breakdown := make(map[string]uint64, sim.NumCategories)
	for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
		breakdown[cat.String()] = r.Breakdown[cat]
	}
	return ResultJSON{
		Cycles:          r.Cycles,
		Breakdown:       breakdown,
		CommittedInstrs: r.CommittedInstrs,
		RewoundInstrs:   r.RewoundInstrs,
		SpecInstrs:      r.SpecInstrs,
		EpochCount:      r.EpochCount,
		Branches:        r.Branches,
		Mispredicts:     r.Mispredicts,

		LatchDeadlockBreaks: r.LatchDeadlockBreaks,
		PredictorSyncs:      r.PredictorSyncs,
		OverflowWaits:       r.OverflowWaits,

		TLS: TLSStatsJSON{
			PrimaryViolations:   r.TLS.PrimaryViolations,
			SecondaryViolations: r.TLS.SecondaryViolations,
			OverflowSquashes:    r.TLS.OverflowSquashes,
			OverflowStalls:      r.TLS.OverflowStalls,
			ExposedLoads:        r.TLS.ExposedLoads,
			SpecStores:          r.TLS.SpecStores,
			SubthreadStarts:     r.TLS.SubthreadStarts,
			Commits:             r.TLS.Commits,
		},
		Mem: MemStatsJSON{
			L1Hits:          r.L1Hits,
			L1Misses:        r.L1Misses,
			L2Hits:          r.L2Hits,
			L2Misses:        r.L2Misses,
			MemAccesses:     r.MemAccesses,
			L1Invalidations: r.L1Invalidations,
			L1IHits:         r.L1IHits,
			L1IMisses:       r.L1IMisses,
		},
	}
}

// WriteJSON writes a sim.Result to w as indented JSON. Output is
// deterministic: encoding/json sorts the breakdown map's keys.
func WriteJSON(w io.Writer, r *sim.Result) error { return writeIndented(w, FromResult(r)) }
