package workload

import (
	"path/filepath"
	"sync"
	"testing"

	"subthreads/internal/cas"
	"subthreads/internal/tpcc"
)

func openStore(t *testing.T, dir string, opts cas.Options) *cas.Store {
	t.Helper()
	s, err := cas.Open(dir, opts)
	if err != nil {
		t.Fatalf("cas.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// The split counters stay coherent under concurrency (run with -race): one
// call builds and every other shares its fill. A store changes nothing about
// programs: none is written to it.
func TestBuilderConcurrentSplitCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real workload repeatedly")
	}
	spec := tinySpec(tpcc.NewOrder)
	store := openStore(t, t.TempDir(), cas.Options{})
	b := NewBuilder()
	b.SetStore(store, nil)

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
	if ss := store.Stats(); ss.Puts != 0 || ss.Entries != 0 {
		t.Fatalf("store stats %+v: a program was written to the store", ss)
	}
}

// The reference tier: one SEQUENTIAL cycle count per program (KeyOf), in
// memory and under the store's seqref namespace. DELIVERY, DELIVERY OUTER
// and every opt level share one entry, a second Builder over the same store
// reads it from disk, and no lookup builds a program. A store SetStore's
// allow turns away is neither read nor written.
func TestReferenceTiers(t *testing.T) {
	dir := t.TempDir()
	del, outer, opt0 := tinySpec(tpcc.Delivery), tinySpec(tpcc.DeliveryOuter), tinySpec(tpcc.Delivery)
	opt0.OptLevel = 0

	b1 := NewBuilder()
	b1.SetStore(openStore(t, dir, cas.Options{}), nil)
	if _, _, ok := b1.Reference(del); ok {
		t.Fatal("empty builder has a reference")
	}
	b1.PutReference(del, 12345)
	for _, s := range []Spec{outer, opt0} {
		if c, tier, ok := b1.Reference(s); !ok || c != 12345 || tier != RefMemory {
			t.Errorf("%v opt %d: Reference = %d, %q, %v; want 12345 from memory", s.Bench, s.OptLevel, c, tier, ok)
		}
	}
	if st := b1.Stats(); st != (BuildStats{ReferenceMemoryHits: 2, ReferenceRuns: 1}) {
		t.Errorf("first builder stats = %+v", st)
	}

	store := openStore(t, dir, cas.Options{})
	b2 := NewBuilder()
	b2.SetStore(store, nil)
	if c, tier, ok := b2.Reference(outer); !ok || c != 12345 || tier != RefDisk {
		t.Errorf("restarted Reference = %d, %q, %v; want 12345 from disk", c, tier, ok)
	}
	if c, tier, ok := b2.Reference(del); !ok || c != 12345 || tier != RefMemory {
		t.Errorf("second lookup = %d, %q, %v; want 12345 from memory", c, tier, ok)
	}
	if st := b2.Stats(); st != (BuildStats{ReferenceDiskHits: 1, ReferenceMemoryHits: 1}) {
		t.Errorf("restarted builder stats = %+v", st)
	}

	// Without a store the tier is memory only.
	b3 := NewBuilder()
	b3.PutReference(del, 7)
	if c, tier, ok := b3.Reference(outer); !ok || c != 7 || tier != RefMemory {
		t.Errorf("store-less Reference = %d, %q, %v; want 7 from memory", c, tier, ok)
	}

	// A store that allow turns away is skipped both ways.
	before := store.Stats()
	b4 := NewBuilder()
	b4.SetStore(store, func() bool { return false })
	if c, tier, ok := b4.Reference(del); ok {
		t.Errorf("disallowed store: Reference = %d from %q, want a miss", c, tier)
	}
	b4.PutReference(opt0, 8)
	if after := store.Stats(); after.Hits != before.Hits || after.Misses != before.Misses || after.Puts != before.Puts {
		t.Errorf("disallowed store: stats %+v -> %+v, want untouched", before, after)
	}
}

// A seqref entry is exactly 8 bytes. One of any other length passes the
// store's checksum but not the decoder, so cas.Load quarantines it and the
// lookup misses; the caller's run then republishes a clean entry.
func TestReferenceWrongLengthQuarantined(t *testing.T) {
	spec := tinySpec(tpcc.NewOrder)
	for _, n := range []int{0, 7, 9, 16} {
		dir := t.TempDir()
		s := openStore(t, dir, cas.Options{})
		s.Put(refNamespace, CacheKey(spec, true), make([]byte, n))

		b := NewBuilder()
		b.SetStore(s, nil)
		if c, tier, ok := b.Reference(spec); ok {
			t.Errorf("%d-byte entry: Reference = %d from %q, want a miss", n, c, tier)
		}
		if st := s.Stats(); st.Corrupt != 1 {
			t.Errorf("%d-byte entry: store corrupt count = %d, want 1", n, st.Corrupt)
		}
		matches, _ := filepath.Glob(filepath.Join(dir, refNamespace, "*", "*.quarantined"))
		if len(matches) != 1 {
			t.Errorf("%d-byte entry: quarantined files = %v, want one", n, matches)
		}

		b.PutReference(spec, 99)
		fresh := NewBuilder()
		fresh.SetStore(s, nil)
		if c, tier, ok := fresh.Reference(spec); !ok || c != 99 || tier != RefDisk {
			t.Errorf("%d-byte entry: after republishing, Reference = %d, %q, %v; want 99 from disk", n, c, tier, ok)
		}
	}
}

// A bounded Builder evicts past its budget, and an evicted program is
// rebuilt: the program the first fill recorded, on a load of its own. A
// store keeps no programs, so it changes nothing here. The budget holds one
// program, so each fill evicts the one before.
func TestBudgetEvictsToLowerTiers(t *testing.T) {
	a, other := tinySpec(tpcc.NewOrder), tinySpec(tpcc.Payment)
	for _, tc := range []struct {
		name  string
		store bool
	}{{"memory", false}, {"store", true}} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			b.SetBudget(1)
			if tc.store {
				b.SetStore(openStore(t, t.TempDir(), cas.Options{}), nil)
			}
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
}
