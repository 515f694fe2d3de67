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
}

// The split counters stay coherent under concurrency (run with -race): one
// call builds and every other shares its fill.
func TestBuilderConcurrentSplitCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real workload repeatedly")
	}
	spec := tinySpec(tpcc.NewOrder)
	b := NewBuilder()

	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Build(spec, false)
		}()
	}
	wg.Wait()
	st := b.Stats()
	if st.Builds != 1 {
		t.Fatalf("builds = %d, want exactly 1 under concurrency", st.Builds)
	}
	if st.MemoryHits+st.Builds != callers {
		t.Fatalf("stats %+v don't sum to %d calls", st, callers)
	}
}

// The reference tier: one SEQUENTIAL cycle count per program (KeyOf), in
// memory. DELIVERY, DELIVERY OUTER and every opt level share one count, and
// no lookup builds a program.
func TestReferenceTiers(t *testing.T) {
	del, outer, opt0 := tinySpec(tpcc.Delivery), tinySpec(tpcc.DeliveryOuter), tinySpec(tpcc.Delivery)
	opt0.OptLevel = 0

	b := NewBuilder()
	if _, ok := b.Reference(del); ok {
		t.Fatal("empty builder has a reference")
	}
	b.PutReference(del, 12345)
	for _, s := range []Spec{outer, opt0} {
		if c, ok := b.Reference(s); !ok || c != 12345 {
			t.Errorf("%v opt %d: Reference = %d, %v; want 12345", s.Bench, s.OptLevel, c, ok)
		}
	}
	if st := b.Stats(); st != (BuildStats{ReferenceMemoryHits: 2, ReferenceRuns: 1}) {
		t.Errorf("builder stats = %+v", st)
	}
}

// A bounded Builder evicts past its budget, and an evicted program is
// rebuilt: the program the first fill recorded, on a load of its own. The
// budget holds one program, so each fill evicts the one before. The only
// lower tier is a fresh load ("memory": no store sits below the memo).
func TestBudgetEvictsToLowerTiers(t *testing.T) {
	a, other := tinySpec(tpcc.NewOrder), tinySpec(tpcc.Payment)
	t.Run("memory", func(t *testing.T) {
		b := NewBuilder()
		b.SetBudget(1)
		first := b.Build(a, false)
		b.Build(other, false)
		again := b.Build(a, false)
		st := b.Stats()
		if st.ResidentBytes != again.Bytes() {
			t.Errorf("resident_bytes = %d, want the last program's %d", st.ResidentBytes, again.Bytes())
		}
		st.ResidentBytes = 0
		if want := (BuildStats{Builds: 3, Loads: 3, Evictions: 2}); st != want {
			t.Errorf("stats = %+v, want %+v", st, want)
		}
		if again == first || programHash(again, 0) != programHash(first, 0) {
			t.Error("the evicted program did not come back as the same program")
		}
	})
}
