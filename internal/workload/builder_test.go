package workload

import (
	"reflect"
	"sync"
	"testing"

	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
)

func TestBuilderCachesByKey(t *testing.T) {
	b := NewBuilder()
	spec := tinySpec(tpcc.NewOrder)

	first := b.Build(spec, false)
	if again := b.Build(spec, false); again != first {
		t.Error("same key must return the cached *Built")
	}
	if n := b.Builds(); n != 1 {
		t.Errorf("Builds() = %d after one distinct key, want 1", n)
	}

	// The software mode is part of the key.
	seq := b.Build(spec, true)
	if seq == first {
		t.Error("sequential build must not share the TLS build's entry")
	}
	// So is every Spec field.
	spec2 := spec
	spec2.Txns++
	if b.Build(spec2, false) == first {
		t.Error("different spec must not hit the cache")
	}
	if n := b.Builds(); n != 3 {
		t.Errorf("Builds() = %d after three distinct keys, want 3", n)
	}
}

// TestBuilderSingleFlight: concurrent requests for one key perform exactly
// one build, and everyone shares it. Run under -race this also exercises the
// cache's locking.
func TestBuilderSingleFlight(t *testing.T) {
	b := NewBuilder()
	spec := tinySpec(tpcc.NewOrder)

	const goroutines = 8
	got := make([]*Built, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = b.Build(spec, false)
		}(i)
	}
	wg.Wait()

	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("goroutine %d got a different build", i)
		}
	}
	if n := b.Builds(); n != 1 {
		t.Errorf("Builds() = %d under contention, want 1", n)
	}
}

// TestBuilderMatchesUncached: results obtained through the cache are
// identical to fresh uncached builds — the cache must be invisible to every
// figure and sweep.
func TestBuilderMatchesUncached(t *testing.T) {
	b := NewBuilder()
	spec := tinySpec(tpcc.NewOrder)

	for _, e := range []Experiment{Sequential, NoSubthread, Baseline} {
		cached, _ := b.Run(spec, e)
		fresh, _ := Run(spec, e)
		if !reflect.DeepEqual(cached, fresh) {
			t.Errorf("%v: cached result differs from uncached:\n%+v\nvs\n%+v", e, cached, fresh)
		}
	}
	// Three experiments, two software modes -> exactly two builds.
	if n := b.Builds(); n != 2 {
		t.Errorf("Builds() = %d for three experiments over two modes, want 2", n)
	}
}

// TestBuiltImmutable guards the cache's core assumption: sim.Run treats the
// Program as read-only, so one shared Built yields identical Results run
// after run.
func TestBuiltImmutable(t *testing.T) {
	built := Build(tinySpec(tpcc.NewOrder), false)
	cfg := Machine(Baseline)

	a := sim.Run(cfg, built.Program)
	c := sim.Run(cfg, built.Program)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("second Run over a shared Built differs:\n%+v\nvs\n%+v", a, c)
	}
	// And on a different machine afterwards: the first runs must not have
	// perturbed the program.
	fresh := Build(tinySpec(tpcc.NewOrder), false)
	d := sim.Run(Machine(NoSubthread), built.Program)
	e := sim.Run(Machine(NoSubthread), fresh.Program)
	if !reflect.DeepEqual(d, e) {
		t.Fatalf("shared program was mutated by earlier runs:\n%+v\nvs\n%+v", d, e)
	}
}

// TestBuiltConcurrentRuns: many machines simulate one shared Built at once
// (the parallel runner's steady state). Under -race this verifies sim.Run
// never writes the shared program.
func TestBuiltConcurrentRuns(t *testing.T) {
	built := Build(tinySpec(tpcc.NewOrder), false)
	cfgs := []sim.Config{Machine(Baseline), Machine(NoSubthread), Machine(NoSpeculation)}

	const perCfg = 3
	results := make([]*sim.Result, len(cfgs)*perCfg)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sim.Run(cfgs[i%len(cfgs)], built.Program)
		}(i)
	}
	wg.Wait()

	// Same config -> identical result, regardless of interleaving.
	for i := len(cfgs); i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[i%len(cfgs)]) {
			t.Errorf("run %d differs from its config's first run", i)
		}
	}
}

// TestSequentialBuildKeyedByProgram: a SEQUENTIAL build records the flat
// program on the unoptimized engine, which neither DELIVERY OUTER's loop
// choice nor the OptLevel reaches, so those specs share one build. Their TLS
// builds, which both reach, stay distinct.
func TestSequentialBuildKeyedByProgram(t *testing.T) {
	b := NewBuilder()
	del, outer := tinySpec(tpcc.Delivery), tinySpec(tpcc.DeliveryOuter)
	seqDel := b.Build(del, true)
	if b.Build(outer, true) != seqDel {
		t.Error("DELIVERY OUTER's SEQUENTIAL build is not DELIVERY's")
	}
	if n := b.Builds(); n != 1 {
		t.Errorf("Builds() = %d for the two DELIVERY SEQUENTIAL builds, want 1", n)
	}

	opt0, opt5 := tinySpec(tpcc.NewOrder), tinySpec(tpcc.NewOrder)
	opt0.OptLevel, opt5.OptLevel = 0, 5
	seqNO := b.Build(opt0, true)
	if b.Build(opt5, true) != seqNO {
		t.Error("SEQUENTIAL builds at OptLevel 0 and 5 differ")
	}
	if n := b.Builds(); n != 2 {
		t.Errorf("Builds() = %d after two SEQUENTIAL programs, want 2", n)
	}

	// Sharing is sound: each spec's own build records the same program.
	if programHash(Build(outer, true), 0) != programHash(seqDel, 0) {
		t.Error("DELIVERY OUTER's own SEQUENTIAL build differs from DELIVERY's")
	}
	if programHash(Build(opt5, true), 0) != programHash(seqNO, 0) {
		t.Error("the OptLevel 5 SEQUENTIAL build differs from the OptLevel 0 one")
	}

	specs := []Spec{del, outer, opt0, opt5}
	seen := map[*Built]bool{seqDel: true, seqNO: true}
	for _, s := range specs {
		built := b.Build(s, false)
		if seen[built] {
			t.Errorf("TLS build of %v (opt %d) shares another build", s.Bench, s.OptLevel)
		}
		seen[built] = true
	}
	if n := b.Builds(); n != 2+len(specs) {
		t.Errorf("Builds() = %d, want %d", n, 2+len(specs))
	}

	// The seqref namespace's key agrees with the memo's.
	type call struct {
		spec Spec
		seq  bool
	}
	var calls []call
	for _, s := range specs {
		calls = append(calls, call{s, true}, call{s, false})
	}
	for _, x := range calls {
		for _, y := range calls {
			sameMemo := KeyOf(x.spec, x.seq) == KeyOf(y.spec, y.seq)
			if sameDisk := CacheKey(x.spec, x.seq) == CacheKey(y.spec, y.seq); sameMemo != sameDisk {
				t.Errorf("%v/%d seq=%v vs %v/%d seq=%v: memo keys equal %v, CacheKeys equal %v",
					x.spec.Bench, x.spec.OptLevel, x.seq, y.spec.Bench, y.spec.OptLevel, y.seq, sameMemo, sameDisk)
			}
		}
	}
}

// CacheKey names a workload's seqref entry, so its derivation, version field
// included, must not move: a different key would orphan every seqref entry a
// store already holds. Two keys are pinned.
func TestCacheKeyStableAndDistinct(t *testing.T) {
	spec := tinySpec(tpcc.NewOrder)
	k1 := CacheKey(spec, false)
	k2 := CacheKey(spec, false)
	if k1 != k2 {
		t.Fatal("CacheKey not deterministic")
	}
	if len(k1) != 64 {
		t.Fatalf("CacheKey length = %d, want 64 hex chars", len(k1))
	}
	if CacheKey(spec, true) == k1 {
		t.Fatal("sequential flag not part of the cache key")
	}
	other := spec
	other.Txns++
	if CacheKey(other, false) == k1 {
		t.Fatal("spec change not reflected in the cache key")
	}
	for _, c := range []struct {
		bench      tpcc.Benchmark
		sequential bool
		want       string
	}{
		{tpcc.DeliveryOuter, true, "58c397b088105fa1f929e4ac458f4f2f6087a547964f3f431f64460c55b59349"},
		{tpcc.NewOrder, false, "42e1700678032b0f21bf89c1cc10d6d1332344c52d33cf08b7d03737155415c3"},
	} {
		if got := CacheKey(DefaultSpec(c.bench), c.sequential); got != c.want {
			t.Errorf("CacheKey(%v, %v) = %s, want %s", c.bench, c.sequential, got, c.want)
		}
	}
}
