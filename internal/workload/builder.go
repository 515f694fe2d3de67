package workload

import (
	"sync"
	"sync/atomic"

	"subthreads/internal/cas"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
)

// BuildKey identifies one distinct program: the benchmark spec plus which
// software mode (sequential vs. TLS-transformed) it was compiled for. It is
// comparable, so it works directly as a map key.
type BuildKey struct {
	Spec       Spec
	Sequential bool
}

// KeyOf returns the key of the program Build(spec, sequential) records. A
// SEQUENTIAL build runs the unoptimized engine and records each transaction
// as one flat trace, so neither OptLevel nor the loop DELIVERY OUTER
// parallelizes reaches its program: they fold to 0 and DELIVERY, and every
// spec that records the same SEQUENTIAL program shares one key.
func KeyOf(spec Spec, sequential bool) BuildKey {
	if sequential {
		spec.OptLevel = 0
		if spec.Bench == tpcc.DeliveryOuter {
			spec.Bench = tpcc.Delivery
		}
	}
	return BuildKey{Spec: spec, Sequential: sequential}
}

// Builder memoizes Build results so that every sweep replaying the same
// binary against different hardware configurations pays for one database
// load + trace recording. A Built program is read-only under sim.Run (see
// TestBuiltImmutable), so one cached program can back any number of
// concurrent machines. A program comes from memory or is recorded on a
// fresh load, plus a clone of it when the caller needs the workload's
// SEQUENTIAL program too (BuildWithReference).
//
// The memory tier keeps every program it fills, which is what a suite
// wants: it reuses every program, and an eviction would mean a rebuild.
// SetBudget bounds the tier instead, for a process such as tlsd that meets
// an unbounded stream of workloads.
//
// Beside the programs sits the reference tier (Reference, PutReference):
// the cycle count of each SEQUENTIAL program on Machine(Sequential), the
// denominator of every speedup, held in memory for the process's life.
//
// A Builder is safe for concurrent use. The zero value is ready to use
// (unbounded).
type Builder struct {
	memo cas.Memo[BuildKey, *Built]

	refMu sync.Mutex
	refs  map[BuildKey]uint64 // SEQUENTIAL cycles, by KeyOf(spec, true)

	memHits    atomic.Uint64 // calls that shared a filled or in-flight entry
	builds     atomic.Uint64 // programs recorded on a loaded database
	loads      atomic.Uint64 // databases loaded to record programs
	clones     atomic.Uint64 // loads cloned to record a second program
	refMemHits atomic.Uint64 // references found in memory
	refRuns    atomic.Uint64 // references published from a completed run
}

// NewBuilder returns an empty build cache.
func NewBuilder() *Builder { return &Builder{} }

// SetBudget bounds the programs held in memory to max bytes (Built.Bytes),
// evicting the least recently used past it. An evicted program is rebuilt
// on its next use. A program still being filled is never evicted, and
// callers holding an evicted program keep using it. Call before serving
// traffic.
func (b *Builder) SetBudget(max int64) { b.memo.Bound(max, (*Built).Bytes) }

// Build returns the memoized program for (spec, sequential), building it on
// first use. Concurrent callers with the same key (KeyOf) block until the
// one build in flight completes.
func (b *Builder) Build(spec Spec, sequential bool) *Built {
	key := KeyOf(spec, sequential)
	built, filled := b.memo.Do(key, func() *Built {
		b.count(1, 0)
		return Build(key.Spec, key.Sequential)
	})
	if !filled {
		b.memHits.Add(1)
	}
	return built
}

// BuildWithReference is Build plus the SEQUENTIAL program KeyOf(spec, true)
// names, for a caller that must simulate its workload's reference: that
// program is recorded for the caller's one run, and no tier keeps it. When
// sequential is true the two are one program, returned twice. When the
// caller's program is recorded too, one database load and its clone record
// both (BuildPair); otherwise the reference program takes a load of its own.
func (b *Builder) BuildWithReference(spec Spec, sequential bool) (built, ref *Built) {
	if sequential {
		built = b.Build(spec, true)
		return built, built
	}
	built, filled := b.memo.Do(KeyOf(spec, false), func() *Built {
		b.count(2, 1)
		tls, seq, _, _ := BuildPair(spec)
		ref = seq
		return tls
	})
	if !filled {
		b.memHits.Add(1)
	}
	if ref == nil {
		b.count(1, 0)
		ref = Build(KeyOf(spec, true).Spec, true)
	}
	return built, ref
}

// count records one database load that recorded programs, cloned clones
// times.
func (b *Builder) count(programs, clones uint64) {
	b.loads.Add(1)
	b.clones.Add(clones)
	b.builds.Add(programs)
}

// Reference sources: where a workload's SEQUENTIAL cycle count came from,
// as the "reference" attribute of tlsd's job completed log line names it.
const (
	RefMemory = "memory" // an earlier run in this process
	RefRun    = "run"    // the caller simulated it (then PutReference)
)

// Reference returns the SEQUENTIAL cycle count of spec's workload from
// memory. ok is false when no run of this process has published it: the
// caller then simulates Build(spec, true) on Machine(Sequential) and
// publishes the count with PutReference. Every spec with one SEQUENTIAL
// program (KeyOf) shares one reference. There is no single flight:
// concurrent misses each simulate and publish the same value.
func (b *Builder) Reference(spec Spec) (cycles uint64, ok bool) {
	b.refMu.Lock()
	cycles, ok = b.refs[KeyOf(spec, true)]
	b.refMu.Unlock()
	if ok {
		b.refMemHits.Add(1)
	}
	return cycles, ok
}

// PutReference publishes the cycle count of a completed SEQUENTIAL run of
// spec's program and counts the run.
func (b *Builder) PutReference(spec Spec, cycles uint64) {
	b.refRuns.Add(1)
	b.refMu.Lock()
	defer b.refMu.Unlock()
	if b.refs == nil {
		b.refs = make(map[BuildKey]uint64)
	}
	b.refs[KeyOf(spec, true)] = cycles
}

// BuildStats breaks Build and Reference calls down by which tier satisfied
// them, and, under a budget (SetBudget), sizes the programs held in memory.
// Each field is declared once for the JSON and Prometheus forms of tlsd's
// /metrics.
//
// MemoryHits counts calls that found a filled (or in-flight) memory entry —
// concurrent callers that waited on a fill in progress count as memory hits,
// since they shared that fill rather than performing their own.
type BuildStats struct {
	MemoryHits uint64 `json:"memory_hits" prom:"memory_hits_total Program lookups served from memory, waits on a fill in flight included."`
	Builds     uint64 `json:"builds" prom:"builds_total Programs recorded by running the transaction stream on a loaded database, one-use SEQUENTIAL references included."`
	Loads      uint64 `json:"loads" prom:"loads_total Databases loaded to record programs."`
	Clones     uint64 `json:"clones" prom:"clones_total Loaded databases cloned so that one load records a program and its SEQUENTIAL reference."`

	ResidentBytes int64  `json:"resident_bytes" prom:"resident_bytes Bytes of trace entries held by the programs in memory."`
	Evictions     uint64 `json:"evictions" prom:"evictions_total Programs evicted from memory to stay within its budget."`

	ReferenceMemoryHits uint64 `json:"reference_memory_hits" prom:"reference_memory_hits_total SEQUENTIAL reference cycle counts found in memory."`
	ReferenceRuns       uint64 `json:"reference_runs" prom:"reference_runs_total SEQUENTIAL reference cycle counts published from a completed simulation."`
}

// Stats returns the tier breakdown so far.
func (b *Builder) Stats() BuildStats {
	resident, evictions := b.memo.Resident()
	return BuildStats{
		MemoryHits:          b.memHits.Load(),
		Builds:              b.builds.Load(),
		Loads:               b.loads.Load(),
		Clones:              b.clones.Load(),
		ResidentBytes:       resident,
		Evictions:           evictions,
		ReferenceMemoryHits: b.refMemHits.Load(),
		ReferenceRuns:       b.refRuns.Load(),
	}
}

// Builds reports how many programs the cache has recorded — the acceptance
// check that a sweep builds each distinct binary exactly once.
func (b *Builder) Builds() int { return int(b.builds.Load()) }

// Run is workload.Run through the cache: it reuses the memoized program for
// the experiment's software mode and simulates it on the experiment's machine.
func (b *Builder) Run(spec Spec, e Experiment) (*sim.Result, *Built) {
	built := b.Build(spec, e.SequentialSoftware())
	res := sim.Run(Machine(e), built.Program)
	return res, built
}
