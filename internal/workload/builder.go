package workload

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"subthreads/internal/cas"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
)

// casNamespace is where serialized Built programs live inside a cas.Store,
// keyed by CacheKey(spec, sequential).
const casNamespace = "built"

// refNamespace is where SEQUENTIAL reference cycle counts live inside a
// cas.Store, keyed by CacheKey(spec, true): 8 bytes, little endian.
const refNamespace = "seqref"

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
// concurrent machines.
//
// With SetStore, the memory tier gains a persistent tier underneath: a miss
// first probes the content-addressed store for a serialized Built (decoded
// without touching the database engine at all — the warm-restart path), and
// only a disk miss runs the real Build, whose result is then published for
// the next process. Lookup is three-level: memory → disk → build.
//
// The memory tier keeps every program it fills, which is what a suite
// wants: it reuses every program, and without a store an eviction would
// mean a rebuild. SetBudget bounds the tier instead, for a process such as
// tlsd that meets an unbounded stream of workloads.
//
// Beside the programs sits the reference tier (Reference, PutReference):
// the cycle count of each SEQUENTIAL program on Machine(Sequential), the
// denominator of every speedup, in memory and under the store's seqref
// namespace.
//
// A Builder is safe for concurrent use. The zero value is ready to use
// (memory-only, unbounded).
type Builder struct {
	memo  cas.Memo[BuildKey, *Built]
	store *cas.Store // nil = no persistent tier

	refMu sync.Mutex
	refs  map[BuildKey]uint64 // SEQUENTIAL cycles, by KeyOf(spec, true)

	memHits     atomic.Uint64 // calls that shared a filled or in-flight entry
	builds      atomic.Uint64 // programs recorded on a loaded database
	loads       atomic.Uint64 // databases loaded to record programs
	clones      atomic.Uint64 // loads cloned to record a second program
	diskHits    atomic.Uint64 // fills served by decoding a store entry
	refMemHits  atomic.Uint64 // references found in memory
	refDiskHits atomic.Uint64 // references decoded from the store
	refRuns     atomic.Uint64 // references published from a completed run
}

// NewBuilder returns an empty build cache.
func NewBuilder() *Builder { return &Builder{} }

// SetBudget bounds the programs held in memory to max bytes (Built.Bytes),
// evicting the least recently used past it. An evicted program comes back
// through the lower tiers: decoded from the store, or rebuilt without one.
// A program still being filled is never evicted, and callers holding an
// evicted program keep using it. Call before serving traffic.
func (b *Builder) SetBudget(max int64) { b.memo.Bound(max, (*Built).Bytes) }

// SetStore attaches the persistent tier (nil detaches it). Call before
// serving traffic; entries already memoized stay in memory either way.
func (b *Builder) SetStore(s *cas.Store) { b.store = s }

// Build returns the memoized program for (spec, sequential), building it on
// first use. Concurrent callers with the same key (KeyOf) block until the
// one fill in flight — disk load or real build — completes.
func (b *Builder) Build(spec Spec, sequential bool) *Built {
	key := KeyOf(spec, sequential)
	built, filled := b.memo.Do(key, func() *Built {
		return b.fill(key, nil)
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
	key := KeyOf(spec, false)
	built, filled := b.memo.Do(key, func() *Built {
		return b.fill(key, &ref)
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

// fill resolves a memory miss: disk first, then the real build (publishing
// the result for the next process). A disk entry that fails to decode — e.g.
// one written by a different builtVersion under a stale key — is quarantined
// by cas.Load, never fatal, and the build runs as if it were absent. With
// ref non-nil, the build records the pair (BuildPair) and leaves the
// SEQUENTIAL program in *ref.
func (b *Builder) fill(key BuildKey, ref **Built) *Built {
	diskKey := CacheKey(key.Spec, key.Sequential)
	if built, err := cas.Load(b.store, casNamespace, diskKey, DecodeBuilt); err == nil {
		b.diskHits.Add(1)
		return built
	}
	var built *Built
	if ref == nil {
		b.count(1, 0)
		built = Build(key.Spec, key.Sequential)
	} else {
		b.count(2, 1)
		built, *ref = BuildPair(key.Spec)
	}
	if b.store != nil {
		// Encoding costs up to a quarter of a build; only a store keeps it.
		b.store.Put(casNamespace, diskKey, EncodeBuilt(built))
	}
	return built
}

// count records one database load that recorded programs, cloned clones
// times.
func (b *Builder) count(programs, clones uint64) {
	b.loads.Add(1)
	b.clones.Add(clones)
	b.builds.Add(programs)
}

// Reference tiers: where a workload's SEQUENTIAL cycle count came from.
const (
	RefMemory = "memory" // an earlier lookup or run in this process
	RefDisk   = "disk"   // the store's seqref namespace
	RefRun    = "run"    // the caller simulated it (then PutReference)
)

// Reference returns the SEQUENTIAL cycle count of spec's workload and the
// tier that held it, RefMemory or RefDisk (a disk hit also fills memory).
// ok is false when neither tier has it: the caller then simulates
// Build(spec, true) on Machine(Sequential) and publishes the count with
// PutReference. Every spec with one SEQUENTIAL program (KeyOf) shares one
// reference. There is no single flight: concurrent misses each simulate and
// publish the same value. A store entry that is not 8 bytes is quarantined
// by cas.Load and reads as a miss.
func (b *Builder) Reference(spec Spec) (cycles uint64, tier string, ok bool) {
	key := KeyOf(spec, true)
	b.refMu.Lock()
	cycles, ok = b.refs[key]
	b.refMu.Unlock()
	if ok {
		b.refMemHits.Add(1)
		return cycles, RefMemory, true
	}
	cycles, err := cas.Load(b.store, refNamespace, CacheKey(spec, true), decodeReference)
	if err != nil {
		return 0, "", false
	}
	b.refDiskHits.Add(1)
	b.remember(key, cycles)
	return cycles, RefDisk, true
}

// PutReference publishes the cycle count of a completed SEQUENTIAL run of
// spec's program to memory and to the store, and counts the run.
func (b *Builder) PutReference(spec Spec, cycles uint64) {
	b.refRuns.Add(1)
	b.remember(KeyOf(spec, true), cycles)
	b.store.Put(refNamespace, CacheKey(spec, true), binary.LittleEndian.AppendUint64(nil, cycles))
}

// remember fills the reference tier's memory.
func (b *Builder) remember(key BuildKey, cycles uint64) {
	b.refMu.Lock()
	defer b.refMu.Unlock()
	if b.refs == nil {
		b.refs = make(map[BuildKey]uint64)
	}
	b.refs[key] = cycles
}

// decodeReference parses a seqref entry: exactly 8 bytes, little endian.
func decodeReference(data []byte) (uint64, error) {
	if len(data) != 8 {
		return 0, fmt.Errorf("workload: seqref entry is %d bytes, want 8", len(data))
	}
	return binary.LittleEndian.Uint64(data), nil
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
	DiskHits   uint64 `json:"disk_hits" prom:"disk_hits_total Programs decoded from the persistent store instead of built."`
	Builds     uint64 `json:"builds" prom:"builds_total Programs recorded by running the transaction stream on a loaded database, one-use SEQUENTIAL references included."`
	Loads      uint64 `json:"loads" prom:"loads_total Databases loaded to record programs."`
	Clones     uint64 `json:"clones" prom:"clones_total Loaded databases cloned so that one load records a program and its SEQUENTIAL reference."`

	ResidentBytes int64  `json:"resident_bytes" prom:"resident_bytes Bytes of trace entries held by the programs in memory."`
	Evictions     uint64 `json:"evictions" prom:"evictions_total Programs evicted from memory to stay within its budget."`

	ReferenceMemoryHits uint64 `json:"reference_memory_hits" prom:"reference_memory_hits_total SEQUENTIAL reference cycle counts found in memory."`
	ReferenceDiskHits   uint64 `json:"reference_disk_hits" prom:"reference_disk_hits_total SEQUENTIAL reference cycle counts read from the persistent store."`
	ReferenceRuns       uint64 `json:"reference_runs" prom:"reference_runs_total SEQUENTIAL reference cycle counts published from a completed simulation."`
}

// Stats returns the tier breakdown so far.
func (b *Builder) Stats() BuildStats {
	resident, evictions := b.memo.Resident()
	return BuildStats{
		MemoryHits:          b.memHits.Load(),
		DiskHits:            b.diskHits.Load(),
		Builds:              b.builds.Load(),
		Loads:               b.loads.Load(),
		Clones:              b.clones.Load(),
		ResidentBytes:       resident,
		Evictions:           evictions,
		ReferenceMemoryHits: b.refMemHits.Load(),
		ReferenceDiskHits:   b.refDiskHits.Load(),
		ReferenceRuns:       b.refRuns.Load(),
	}
}

// Builds reports how many actual (non-cached) Build calls the cache has
// performed — the acceptance check that a sweep builds each distinct binary
// exactly once, and that a warm restart builds nothing at all.
func (b *Builder) Builds() int { return int(b.builds.Load()) }

// Run is workload.Run through the cache: it reuses the memoized program for
// the experiment's software mode and simulates it on the experiment's machine.
func (b *Builder) Run(spec Spec, e Experiment) (*sim.Result, *Built) {
	built := b.Build(spec, e.SequentialSoftware())
	res := sim.Run(Machine(e), built.Program)
	return res, built
}
