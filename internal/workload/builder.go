package workload

import (
	"sync/atomic"

	"subthreads/internal/cas"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
)

// casNamespace is where serialized Built programs live inside a cas.Store,
// keyed by CacheKey(spec, sequential).
const casNamespace = "built"

// buildKey identifies one distinct binary: the benchmark spec plus which
// software mode (sequential vs. TLS-transformed) it was compiled for. Spec is
// a comparable struct, so the key works directly as a map key.
type buildKey struct {
	Spec       Spec
	Sequential bool
}

// keyOf returns the key of the program Build(spec, sequential) records. A
// SEQUENTIAL build runs the unoptimized engine and records each transaction
// as one flat trace, so neither OptLevel nor the loop DELIVERY OUTER
// parallelizes reaches its program: they fold to 0 and DELIVERY, and every
// spec that records the same SEQUENTIAL program shares one build.
func keyOf(spec Spec, sequential bool) buildKey {
	if sequential {
		spec.OptLevel = 0
		if spec.Bench == tpcc.DeliveryOuter {
			spec.Bench = tpcc.Delivery
		}
	}
	return buildKey{Spec: spec, Sequential: sequential}
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
// A Builder is safe for concurrent use. The zero value is ready to use
// (memory-only).
type Builder struct {
	memo  cas.Memo[buildKey, *Built]
	store *cas.Store // nil = no persistent tier

	memHits  atomic.Int64 // calls that shared a filled or in-flight entry
	builds   atomic.Int64 // fills that ran the real Build
	diskHits atomic.Int64 // fills served by decoding a store entry
}

// NewBuilder returns an empty build cache.
func NewBuilder() *Builder { return &Builder{} }

// SetStore attaches the persistent tier (nil detaches it). Call before
// serving traffic; entries already memoized stay in memory either way.
func (b *Builder) SetStore(s *cas.Store) { b.store = s }

// Build returns the memoized program for (spec, sequential), building it on
// first use. Concurrent callers with the same key (keyOf) block until the
// one fill in flight — disk load or real build — completes.
func (b *Builder) Build(spec Spec, sequential bool) *Built {
	key := keyOf(spec, sequential)
	built, filled := b.memo.Do(key, func() *Built {
		return b.fill(key)
	})
	if !filled {
		b.memHits.Add(1)
	}
	return built
}

// fill resolves a memory miss: disk first, then the real build (publishing
// the result for the next process). A disk entry that fails to decode — e.g.
// one written by a different builtVersion under a stale key — is quarantined
// by cas.Load, never fatal, and the build runs as if it were absent.
func (b *Builder) fill(key buildKey) *Built {
	diskKey := CacheKey(key.Spec, key.Sequential)
	if built, err := cas.Load(b.store, casNamespace, diskKey, DecodeBuilt); err == nil {
		b.diskHits.Add(1)
		return built
	}
	b.builds.Add(1)
	built := Build(key.Spec, key.Sequential)
	if b.store != nil {
		// Encoding costs up to a quarter of a build; only a store keeps it.
		b.store.Put(casNamespace, diskKey, EncodeBuilt(built))
	}
	return built
}

// BuildStats breaks Build calls down by which tier satisfied them.
//
// MemoryHits counts calls that found a filled (or in-flight) memory entry —
// concurrent callers that waited on a fill in progress count as memory hits,
// since they shared that fill rather than performing their own.
type BuildStats struct {
	MemoryHits int
	DiskHits   int
	Builds     int
}

// Stats returns the tier breakdown so far.
func (b *Builder) Stats() BuildStats {
	return BuildStats{MemoryHits: int(b.memHits.Load()), DiskHits: int(b.diskHits.Load()), Builds: b.Builds()}
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
