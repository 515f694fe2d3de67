package workload

import (
	"bytes"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
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

// The warm-restart contract at the builder level: a second Builder over the
// same store directory — a new process — serves the program from disk
// without running Build, and the result is functionally identical.
func TestBuilderWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()

	b1 := NewBuilder()
	b1.SetStore(openStore(t, dir, cas.Options{}))
	cold := b1.Build(spec, false)
	if st := b1.Stats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want 1 build", st)
	}

	b2 := NewBuilder()
	b2.SetStore(openStore(t, dir, cas.Options{}))
	warm := b2.Build(spec, false)
	if st := b2.Stats(); st.Builds != 0 || st.DiskHits != 1 {
		t.Fatalf("warm stats = %+v, want 1 disk hit and no builds", st)
	}
	if warm.Digest != cold.Digest || warm.Stats != cold.Stats {
		t.Fatal("disk-warm program differs from the cold build")
	}

	// Second call in the same process is a memory hit, not another disk read.
	b2.Build(spec, false)
	if st := b2.Stats(); st.MemoryHits != 1 {
		t.Fatalf("stats = %+v, want 1 memory hit", st)
	}
}

// An undecodable store entry must fall back to a real build with a
// structured log line, and the poisoned entry must be quarantined so the
// rebuilt one replaces it.
func TestBuilderCorruptEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()

	b1 := NewBuilder()
	s1 := openStore(t, dir, cas.Options{})
	b1.SetStore(s1)
	b1.Build(spec, true)
	s1.Close()

	// Replace the entry's payload with a frame that passes the cas checksum
	// but fails the domain decode (wrong magic).
	key := CacheKey(spec, true)
	var logbuf strings.Builder
	s2 := openStore(t, dir, cas.Options{Logger: slog.New(slog.NewTextHandler(&logbuf, nil))})
	s2.Put(casNamespace, key, []byte("XXXX not a built frame"))

	b2 := NewBuilder()
	b2.SetStore(s2)
	built := b2.Build(spec, true)
	if built == nil {
		t.Fatal("Build returned nil on corrupt entry")
	}
	if st := b2.Stats(); st.Builds != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want fallback build", st)
	}
	if log := logbuf.String(); !strings.Contains(log, "cas entry quarantined") || !strings.Contains(log, key) {
		t.Fatalf("no structured quarantine log naming the entry, got %q", log)
	}
	// Quarantine left debris for debugging, and the rebuild republished.
	matches, _ := filepath.Glob(filepath.Join(dir, casNamespace, "*", "*.quarantined"))
	if len(matches) != 1 {
		t.Fatalf("quarantined files = %v, want exactly one", matches)
	}

	b3 := NewBuilder()
	b3.SetStore(s2)
	b3.Build(spec, true)
	if st := b3.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats after rebuild = %+v, want a disk hit", st)
	}
}

// A builder with no store behaves exactly as before (memory-only), and the
// split counters stay coherent under concurrency (run with -race).
func TestBuilderConcurrentSplitCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real workload repeatedly")
	}
	dir := t.TempDir()
	spec := smallSpec()
	b := NewBuilder()
	b.SetStore(openStore(t, dir, cas.Options{}))

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
	if st.MemoryHits+st.DiskHits+st.Builds != callers {
		t.Fatalf("stats %+v don't sum to %d calls", st, callers)
	}

	// Sanity: the published entry is really on disk.
	path := filepath.Join(dir, casNamespace)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no published namespace dir: %v", err)
	}
}

// The reference tier: one SEQUENTIAL cycle count per program (KeyOf), in
// memory and under the store's seqref namespace. DELIVERY, DELIVERY OUTER
// and every opt level share one entry, a second Builder over the same store
// reads it from disk, and no lookup builds or decodes a program.
func TestReferenceTiers(t *testing.T) {
	dir := t.TempDir()
	del, outer, opt0 := tinySpec(tpcc.Delivery), tinySpec(tpcc.DeliveryOuter), tinySpec(tpcc.Delivery)
	opt0.OptLevel = 0

	b1 := NewBuilder()
	b1.SetStore(openStore(t, dir, cas.Options{}))
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

	b2 := NewBuilder()
	b2.SetStore(openStore(t, dir, cas.Options{}))
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
		b.SetStore(s)
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
		fresh.SetStore(s)
		if c, tier, ok := fresh.Reference(spec); !ok || c != 99 || tier != RefDisk {
			t.Errorf("%d-byte entry: after republishing, Reference = %d, %q, %v; want 99 from disk", n, c, tier, ok)
		}
	}
}

// A bounded Builder evicts past its budget, and an evicted program comes
// back through the lower tiers: decoded from the store, or rebuilt without
// one. Either way it is the program the first fill recorded. The budget
// here holds one program, so each fill evicts the one before.
func TestBudgetEvictsToLowerTiers(t *testing.T) {
	a, other := tinySpec(tpcc.NewOrder), tinySpec(tpcc.Payment)
	for _, tc := range []struct {
		name  string
		store bool
		want  BuildStats // the three lookups' tiers
	}{
		{"memory", false, BuildStats{Builds: 3, Loads: 3, Evictions: 2}},
		{"store", true, BuildStats{Builds: 2, Loads: 2, DiskHits: 1, Evictions: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			b.SetBudget(1)
			if tc.store {
				b.SetStore(openStore(t, t.TempDir(), cas.Options{}))
			}
			first := b.Build(a, false)
			b.Build(other, false)
			again := b.Build(a, false)
			st := b.Stats()
			if st.ResidentBytes != again.Bytes() {
				t.Errorf("resident_bytes = %d, want the last program's %d", st.ResidentBytes, again.Bytes())
			}
			st.ResidentBytes = 0
			if st != tc.want {
				t.Errorf("stats = %+v, want %+v", st, tc.want)
			}
			if again == first || !bytes.Equal(EncodeBuilt(again), EncodeBuilt(first)) {
				t.Error("the evicted program did not come back as the same program")
			}
		})
	}
}
