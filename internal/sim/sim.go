// Package sim is the chip-multiprocessor simulator: 4 cores (Table 1)
// sharing a TLS-capable L2 (internal/tls), driven cycle by cycle over the
// traces recorded by the workload substrate. It produces the execution-time
// breakdowns of Figure 5 (Idle / Failed / Latch-stall / Cache-miss / Busy)
// and all the protocol statistics the evaluation section reports.
package sim

import (
	"fmt"

	"subthreads/internal/cpu"
	"subthreads/internal/profile"
	"subthreads/internal/telemetry"
	"subthreads/internal/tls"
	"subthreads/internal/trace"
)

// Category classifies where a CPU cycle went, matching the bar segments of
// Figure 5.
type Category int

const (
	// Busy: executing code that was (or will be) committed.
	Busy Category = iota
	// CacheMiss: stalled on the memory hierarchy.
	CacheMiss
	// Sync: stalled awaiting synchronization during escaped speculation
	// (latch stalls) or predictor-driven synchronization.
	Sync
	// Failed: executed code that was later undone by a violation,
	// including all time spent executing failed code and recovery.
	Failed
	// Idle: no work available for this CPU.
	Idle
	// NumCategories is the number of cycle categories.
	NumCategories
)

var categoryNames = [...]string{"Busy", "CacheMiss", "Sync", "Failed", "Idle"}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return fmt.Sprintf("cat(%d)", int(c))
}

// Breakdown accumulates CPU-cycles per category; the entries sum to
// (elapsed cycles) x (number of CPUs).
type Breakdown [NumCategories]uint64

// Total sums all categories.
func (b Breakdown) Total() uint64 {
	var t uint64
	for _, v := range b {
		t += v
	}
	return t
}

// Add merges another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	for i, v := range o {
		b[i] += v
	}
}

// MemParams sizes the memory hierarchy (Table 1).
type MemParams struct {
	L1Sets, L1Ways int
	// L1HitLat is the L1 data cache hit latency.
	L1HitLat uint64
	// L2HitLat is the minimum miss latency to the secondary cache
	// (crossbar + L2).
	L2HitLat uint64
	// MemLat is the minimum miss latency to local memory.
	MemLat uint64
	// L2Banks and L2BankOccupancy model L2 bandwidth: each bank accepts
	// one access per occupancy window.
	L2Banks         int
	L2BankOccupancy uint64
	// MemOccupancy models main-memory bandwidth (one access per window).
	MemOccupancy uint64

	// ModelICache enables the L1 instruction cache (Table 1: 32KB,
	// 4-way). Each instrumentation site owns a synthetic code footprint;
	// fetch walks it and misses stall the front end. Off by default —
	// the calibrated baseline omits it (recorded traces carry data
	// addresses, not code addresses), and the -icache ablation
	// quantifies the effect.
	ModelICache bool
	// L1ISets / L1IWays size the instruction cache.
	L1ISets, L1IWays int
}

// DefaultMemParams returns the Table 1 memory system.
func DefaultMemParams() MemParams {
	return MemParams{
		L1Sets:          256, // 32KB, 4-way, 32B lines
		L1Ways:          4,
		L1ISets:         256, // 32KB, 4-way instruction cache
		L1IWays:         4,
		L1HitLat:        1,
		L2HitLat:        10,
		MemLat:          75,
		L2Banks:         4,
		L2BankOccupancy: 4,
		MemOccupancy:    20,
	}
}

// Config assembles a full machine.
type Config struct {
	// CPUs is the number of cores used by the run (1 for the SEQUENTIAL
	// and TLS-SEQ experiments, 4 otherwise).
	CPUs int
	CPU  cpu.Params
	Mem  MemParams
	TLS  tls.Config

	// SubthreadSpacing starts a new sub-thread every n speculative
	// instructions (§5.1; the BASELINE uses 5000). 0 disables spawning.
	SubthreadSpacing uint64

	// Spawn selects where sub-threads start (§5.1 explores this choice).
	Spawn SpawnPolicy
	// RegBackupPenalty charges the register-file checkpoint at each
	// sub-thread start. The paper models zero ("this could be
	// accomplished quickly through shadow register files, or more slowly
	// by backing up to memory", §2.2); nonzero values model the
	// memory-backup alternative.
	RegBackupPenalty uint64
	// NonBlockingLoads lets execution continue past a load miss for up to
	// ReorderBuffer instructions (one outstanding miss), modeling the
	// memory-level parallelism of the paper's out-of-order cores. Off by
	// default: the calibrated baseline uses blocking loads, and the -mlp
	// ablation quantifies the difference.
	NonBlockingLoads bool
	// L1SubthreadTracking extends the L1 caches to track which sub-thread
	// modified each line, so a violation invalidates only the rewound
	// contexts' lines instead of all speculatively-modified lines. The
	// paper evaluated this and "found this support to be not worthwhile"
	// (§2.2); the -l1track ablation reproduces that comparison.
	L1SubthreadTracking bool

	// ViolationPenalty is the fixed recovery cost of a squash, charged as
	// failed speculation (L1 invalidations, context restore).
	ViolationPenalty uint64
	// CommitPenalty is the cost of passing the homefree token and flash
	// committing.
	CommitPenalty uint64

	// UsePredictor synchronizes predicted-dependent loads instead of
	// relying on sub-threads (the §2.2 related-work ablation).
	UsePredictor bool

	// ExposedTableEntries sizes each CPU's exposed load table (§3.1).
	ExposedTableEntries int
	// PairListEntries bounds the L2 profiling list (§3.1).
	PairListEntries int

	// LatchDeadlockCycles breaks cross-epoch latch waits that exceed this
	// bound by squashing the youngest latch holder. 0 uses the default.
	LatchDeadlockCycles uint64

	// Telemetry receives cycle-stamped protocol events (epoch lifecycle,
	// sub-thread spawns, violations, latch traffic, stalls — see the
	// telemetry package comment for the schema). nil disables
	// instrumentation; the only residual cost is a pointer test at each
	// protocol event, never on the per-instruction path.
	Telemetry telemetry.Emitter

	// Paranoid enables the protocol invariant auditor: the TLS engine
	// re-validates its architectural state at every protocol event
	// (commit-order monotonicity, SL/SM masks never spanning freed
	// contexts, cache version-occupancy accounting — see tls.AuditError),
	// and the simulator checks that rewinds never move a cursor forward
	// and that cycle accounting balances. A failure ends the run with a
	// RunError of kind "audit".
	Paranoid bool

	// Oracle, when non-nil, observes stores, squashes, and commits so an
	// external checker (internal/check) can reconstruct the committed
	// memory image. Purely observational: it never affects timing.
	Oracle MemOracle

	// Inject, when non-nil, feeds deterministic faults into the run
	// (internal/inject). Each injector is single-use: construct a fresh
	// one per Run.
	Inject Injector

	// WatchdogCycles bounds how long the machine may go without committing
	// a unit before the run is abandoned with a RunError of kind
	// "watchdog" — the forward-progress guard that converts livelock into
	// a structured error. 0 disables the watchdog.
	WatchdogCycles uint64

	// Cancel, when non-nil, is polled every CancelPollCycles simulated
	// cycles alongside the forward-progress watchdog; the first poll that
	// returns a non-nil error abandons the run with a RunError of kind
	// "cancelled" wrapping that error. This is how a serving layer threads
	// per-job deadlines and client disconnects into a run: the check is a
	// single function call on a coarse cadence, so it never perturbs the
	// per-instruction hot path. Runtime-only plumbing like Telemetry —
	// excluded from content digests.
	Cancel func() error `json:"-"`

	// SnapshotAtPrefix hands SnapshotSink a header-only Snapshot at the
	// prefix boundary: the first cycle at which the program's last leading
	// barrier unit has consumed its whole trace and is the only live epoch,
	// but has not yet committed — so no speculative unit has started. A run
	// without fault injection captures a Forkable one (see ResumeE).
	// Runtime-only plumbing like Telemetry — excluded from content digests,
	// and with no effect whatsoever on simulated behavior.
	SnapshotAtPrefix bool `json:"-"`
	// SnapshotSink receives the at-most-one snapshot a run captures. nil
	// disables snapshotting entirely (the per-cycle cost is one pointer
	// test).
	SnapshotSink func(*Snapshot) `json:"-"`

	// MaxCycles is a hard cycle budget; exceeding it ends the run with a
	// RunError of kind "max-cycles". 0 means unbounded.
	MaxCycles uint64
}

// CancelPollCycles is how often (in simulated cycles) Config.Cancel is
// polled. Coarse enough to cost nothing against the per-cycle work of a
// 4-CPU machine, fine enough that a cancelled run is abandoned orders of
// magnitude sooner than any watchdog interval.
const CancelPollCycles = 1 << 12

// DefaultConfig returns the paper's BASELINE machine: 4 CPUs, 8 sub-threads
// per epoch spaced 5000 speculative instructions apart.
func DefaultConfig() Config {
	return Config{
		CPUs:                4,
		CPU:                 cpu.DefaultParams(),
		Mem:                 DefaultMemParams(),
		TLS:                 tls.DefaultConfig(),
		SubthreadSpacing:    5000,
		ViolationPenalty:    20,
		CommitPenalty:       5,
		ExposedTableEntries: 1024,
		PairListEntries:     256,
		LatchDeadlockCycles: 50000,
	}
}

// SpawnPolicy selects where sub-thread checkpoints are placed (§5.1).
type SpawnPolicy int

const (
	// SpawnPeriodic starts a sub-thread every SubthreadSpacing
	// speculative instructions — the paper's BASELINE strategy, "a
	// simple strategy that works well in practice".
	SpawnPeriodic SpawnPolicy = iota
	// SpawnAdaptive divides each thread evenly into SubthreadsPerEpoch
	// sub-threads — the improvement §5.1 suggests ("customize the
	// sub-thread size such that the average thread size would be divided
	// evenly into sub-threads").
	SpawnAdaptive
	// SpawnPredictor starts a sub-thread immediately before loads whose
	// PC a violation-trained predictor flags — §5.1's "start sub-threads
	// before loads which frequently cause violations", which would make
	// as few as 2 contexts sufficient with accurate prediction.
	SpawnPredictor
)

func (p SpawnPolicy) String() string {
	switch p {
	case SpawnPeriodic:
		return "periodic"
	case SpawnAdaptive:
		return "adaptive"
	case SpawnPredictor:
		return "predictor-guided"
	default:
		return fmt.Sprintf("spawn(%d)", int(p))
	}
}

// Unit is one schedulable piece of the program: either a speculative thread
// (a loop iteration of the parallelized transaction) or a barrier unit (a
// serial region — later units may not start until it commits, and it only
// executes once it is the oldest, i.e. non-speculatively).
type Unit struct {
	Trace   *trace.Trace
	Barrier bool
}

// Program is the ordered list of units the machine executes; order defines
// the logical (sequential) semantics TLS must preserve.
type Program struct {
	Units []Unit
}

// Epochs counts the speculative (non-barrier) units.
func (p *Program) Epochs() int {
	n := 0
	for _, u := range p.Units {
		if !u.Barrier {
			n++
		}
	}
	return n
}

// Instrs sums the dynamic instructions across all units.
func (p *Program) Instrs() uint64 {
	var t uint64
	for _, u := range p.Units {
		t += u.Trace.Instrs()
	}
	return t
}

// Result reports everything a run measured.
type Result struct {
	// Cycles is the elapsed time of the run.
	Cycles uint64
	// Breakdown distributes CPUs x Cycles across the Figure 5 categories.
	Breakdown Breakdown

	TLS tls.Stats

	// CommittedInstrs is the useful dynamic work; RewoundInstrs the work
	// undone by violations; SpecInstrs those executed while speculative.
	CommittedInstrs uint64
	RewoundInstrs   uint64
	SpecInstrs      uint64

	// EpochCount is the number of speculative threads executed.
	EpochCount int

	Branches    uint64
	Mispredicts uint64

	L1Hits, L1Misses    uint64
	L2Hits, L2Misses    uint64
	MemAccesses         uint64
	LatchDeadlockBreaks uint64
	PredictorSyncs      uint64
	// InjectedFaults counts perturbations delivered by a fault injector.
	InjectedFaults uint64
	// OverflowWaits counts epoch stalls caused by speculative-buffer
	// exhaustion (OverflowStall policy, §2.1).
	OverflowWaits uint64
	// L1Invalidations counts speculatively-modified L1 lines invalidated
	// by violations (reduced by L1SubthreadTracking, §2.2).
	L1Invalidations uint64
	// L1IHits / L1IMisses count instruction fetches when ModelICache is on.
	L1IHits, L1IMisses uint64

	// Pairs is the §3.1 dependence profile collected during the run.
	Pairs *profile.PairList
}

// Speedup reports how much faster this run is than a reference run.
func (r *Result) Speedup(ref *Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(ref.Cycles) / float64(r.Cycles)
}

// NormalizedBreakdown scales the breakdown so that the reference run's total
// equals 1.0 with the full machine's CPU count — the normalization used by
// the Figure 5 bars (a sequential run shows 3 of 4 CPUs idle).
func (r *Result) NormalizedBreakdown(refCycles uint64, machineCPUs int) [NumCategories]float64 {
	var out [NumCategories]float64
	denom := float64(refCycles) * float64(machineCPUs)
	if denom == 0 {
		return out
	}
	// Pad with idle CPUs when the run used fewer cores than the machine.
	pad := uint64(machineCPUs)*r.Cycles - r.Breakdown.Total()
	for i, v := range r.Breakdown {
		out[i] = float64(v) / denom
	}
	out[Idle] += float64(pad) / denom
	return out
}
