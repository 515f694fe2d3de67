package workload

import (
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"subthreads/internal/cas"
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
