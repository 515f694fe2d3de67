package cas

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

// openCapped opens a store under a byte budget small enough for a few test
// entries to evict.
func openCapped(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := openBudget(dir, nil, budget)
	if err != nil {
		t.Fatalf("openBudget(%q): %v", dir, err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	payload := []byte("the exact bytes that were stored")
	s.Put("abc123", payload)
	got, ok := s.Get("abc123")
	if !ok {
		t.Fatal("Get missed a freshly stored entry")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, want %q", got, payload)
	}
	if _, ok := s.Get("unknown"); ok {
		t.Fatal("Get hit an entry that was never stored")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
	if st.Entries != 1 || st.Bytes != int64(headerSize+len(payload)) {
		t.Fatalf("stats = %+v, want 1 entry of %d bytes", st, headerSize+len(payload))
	}
}

// TestEntryFramePinned pins the entry header's bytes: stores written by one
// build are read by the next, so a change that moves a byte must bump
// entryVersion.
func TestEntryFramePinned(t *testing.T) {
	payload := []byte("the exact bytes that were stored")
	const header = "746c6373010000002000000000000000ddaf29c1f97311b2"
	frame := encodeEntry(payload)
	if got := hex.EncodeToString(frame[:headerSize]); got != header || !bytes.Equal(frame[headerSize:], payload) {
		t.Fatalf("entry header %s, want %s", got, header)
	}
	if got, err := decodeEntry(frame); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("decodeEntry = %q, %v", got, err)
	}
}

// The warm-restart contract: a second store over the same directory serves
// the first store's entries from byte one. The layout is pinned too, so a
// directory an earlier build wrote stays warm.
func TestReopenWarm(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	s1.Put("deadbeef", []byte("served body"))
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "result", "de", "deadbeef.cas")); err != nil {
		t.Fatalf("entry not at DIR/result/<key[:2]>/<key>.cas: %v", err)
	}

	s2 := open(t, dir)
	got, ok := s2.Get("deadbeef")
	if !ok || string(got) != "served body" {
		t.Fatalf("reopened store Get = %q, %v; want the stored body", got, ok)
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	var logbuf strings.Builder
	logger := slog.New(slog.NewTextHandler(&logbuf, nil))
	s, err := Open(dir, logger)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	s.Put("feedface", []byte("good payload"))

	path := filepath.Join(dir, entryPath("feedface"))
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:headerSize/2] }},
		{"garbage", func(b []byte) []byte { return []byte("not a cas entry at all") }},
		{"flipped-payload", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}},
		{"wrong-version", func(b []byte) []byte {
			b[4] = entryVersion + 7
			return b
		}},
		{"bad-magic", func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		}},
		{"wrong-length", func(b []byte) []byte {
			b[8] ^= 1
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s.Put("feedface", []byte("good payload"))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read entry: %v", err)
			}
			if err := os.WriteFile(path, tc.mutate(raw), 0o644); err != nil {
				t.Fatalf("corrupt entry: %v", err)
			}
			logbuf.Reset()
			if _, ok := s.Get("feedface"); ok {
				t.Fatal("Get served a corrupted entry")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupted entry still in place: %v", err)
			}
			if _, err := os.Stat(path + ".quarantined"); err != nil {
				t.Fatalf("no quarantined copy: %v", err)
			}
			if !strings.Contains(logbuf.String(), "cas entry quarantined") {
				t.Fatalf("no structured quarantine log, got %q", logbuf.String())
			}
			// The slot is clean: a rebuild stores and serves again.
			s.Put("feedface", []byte("rebuilt payload"))
			if got, ok := s.Get("feedface"); !ok || string(got) != "rebuilt payload" {
				t.Fatalf("rebuild after quarantine: Get = %q, %v", got, ok)
			}
		})
	}
	if st := s.Stats(); st.Corrupt != uint64(len(cases)) {
		t.Fatalf("corrupt counter = %d, want %d", st.Corrupt, len(cases))
	}
}

func TestEvictionUnderSizeCap(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(headerSize + len(payload))
	// Room for exactly three entries.
	s := openCapped(t, dir, 3*entrySize)

	for i := 0; i < 3; i++ {
		s.Put(fmt.Sprintf("key%d", i), payload)
	}
	// Touch key0 so key1 becomes the LRU victim.
	if _, ok := s.Get("key0"); !ok {
		t.Fatal("key0 missing before eviction")
	}
	s.Put("key3", payload)

	if _, ok := s.Get("key1"); ok {
		t.Fatal("LRU entry key1 survived past the size cap")
	}
	for _, k := range []string{"key0", "key2", "key3"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("entry %s evicted out of LRU order", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > 3*entrySize || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 3 entries within %d bytes", st, 3*entrySize)
	}
	// The evicted file is gone from disk, not just from accounting.
	if _, err := os.Stat(filepath.Join(dir, entryPath("key1"))); !os.IsNotExist(err) {
		t.Fatalf("evicted entry file still on disk: %v", err)
	}
}

// Recency survives a clean restart through the on-disk index: the entry
// touched before reopening must outlive an untouched older one.
func TestIndexPersistsRecency(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 64)
	entrySize := int64(headerSize + len(payload))
	s1 := openCapped(t, dir, 2*entrySize)
	s1.Put("older", payload)
	s1.Put("newer", payload)
	if _, ok := s1.Get("older"); !ok {
		t.Fatal("older missing")
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := openCapped(t, dir, 2*entrySize)
	s2.Put("third", payload) // must evict "newer", not the re-touched "older"
	if _, ok := s2.Get("newer"); ok {
		t.Fatal("eviction order ignored the persisted index")
	}
	if _, ok := s2.Get("older"); !ok {
		t.Fatal("recently-used entry evicted after restart")
	}
}

// Put fsyncs its own entry but leaves the recency index to Close: a run of
// Puts writes no index.json, and Close writes one. An unclean exit loses
// only recency (TestIndexPersistsRecency covers what a clean one keeps).
func TestIndexWrittenOnClose(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	for i := range 5 {
		s.Put(fmt.Sprintf("key%d", i), []byte("payload"))
	}
	index := filepath.Join(dir, indexFile)
	if _, err := os.Stat(index); !os.IsNotExist(err) {
		t.Fatalf("index.json after Puts: %v, want none until Close", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(index); err != nil {
		t.Fatalf("index.json after Close: %v", err)
	}
}

// Two stores over one directory — the multi-process sharing model — must be
// race-free and never serve torn bytes (run under -race).
func TestConcurrentProcessesSafe(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir)
	b := open(t, dir)

	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 256+i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := a
			if w%2 == 1 {
				s = b
			}
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("key%d", (w+i)%len(payloads))
				s.Put(k, payloads[(w+i)%len(payloads)])
				if got, ok := s.Get(k); ok {
					want := payloads[(w+i)%len(payloads)]
					if !bytes.Equal(got, want) {
						t.Errorf("torn read: key %s got %d bytes, want %d", k, len(got), len(want))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// Every method must be a safe no-op on a nil store — call sites never
// branch on whether the persistent tier is enabled.
func TestNilStore(t *testing.T) {
	var s *Store
	if _, ok := s.Get("key"); ok {
		t.Fatal("nil store Get hit")
	}
	s.Put("key", []byte("data"))
	if st := s.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("nil store stats = %+v, want zero", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("nil store Close: %v", err)
	}
	if s.Dir() != "" {
		t.Fatal("nil store Dir not empty")
	}
}

func TestSingleFlightSharesLoad(t *testing.T) {
	s := open(t, t.TempDir())
	payload := bytes.Repeat([]byte("z"), 1<<16)
	s.Put("big", payload)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, ok := s.Get("big"); !ok || !bytes.Equal(got, payload) {
				t.Error("concurrent Get failed")
			}
		}()
	}
	wg.Wait()
}
