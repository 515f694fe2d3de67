// Package cas holds the tiers of the repo's content-addressed caches. Store
// is the persistent tier: a size-bounded on-disk store of immutable byte
// entries keyed by digest, so a restarted or freshly scaled-out process is
// warm from byte one. Memo is the memory tier, a keyed single-flight cache
// of computed values (recorded programs, exact simulation results),
// unbounded or held to a byte budget by LRU eviction.
// The serving daemon's job table stays its own memory tier: it tracks live
// jobs, not just values.
//
// Guarantees:
//
//   - Atomic publication. Entries are written to a temp file in the store
//     and renamed into place, so a reader never observes a half-written
//     entry — not even from a concurrent process sharing the directory.
//   - Corruption tolerance. Every entry carries a versioned header and a
//     payload checksum; a truncated, garbage, or wrong-version entry is
//     quarantined (renamed aside) and reported as a miss, never an error.
//     Consumers rebuild and overwrite.
//   - Bounded size. The store tracks entry sizes and evicts least-recently
//     used entries when the configured budget is exceeded; recency survives
//     restarts through a small on-disk index, written by Close and on
//     quarantine (best effort — a missing or stale index, as after an
//     unclean exit, only degrades eviction order, never correctness).
//   - Single-flight loads. Concurrent Gets of one key share a single disk
//     read and validation pass.
//
// All methods are safe on a nil *Store (a disabled persistent tier): Get
// misses, Put discards, Stats is zero. Callers therefore never branch on
// whether -cache-dir was set.
package cas

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"subthreads/internal/telemetry"
)

// Entry file format: a fixed header followed by the payload.
//
//	offset  size  field
//	0       4     magic "tlcs"
//	4       1     format version (entryVersion)
//	5       3     reserved (zero)
//	8       8     payload length, little endian
//	16      8     FNV-1a 64 of the payload, little endian
//	24      -     payload
const (
	entryMagic   = "tlcs"
	entryVersion = 1
	headerSize   = 24
	entryExt     = ".cas"
)

// maxBytes bounds the total payload+header bytes on disk: 1 GiB, roomy for
// thousands of result documents. The least recently used entries are
// evicted past it.
const maxBytes = 1 << 30

// indexFile is the on-disk LRU index, relative to the store root.
const indexFile = "index.json"

// entryDir is the directory under the store root that holds the entries.
// Its name is that of the result documents the serving daemon keeps there,
// so a store written by an earlier daemon serves from byte one.
const entryDir = "result"

// Stats is a point-in-time snapshot of the store's counters, exported to
// the daemon's /metrics (JSON and tlsd_cas_* Prometheus families).
type Stats struct {
	// Hits / Misses classify Get calls; a quarantined entry counts as
	// both Corrupt and a miss.
	Hits      uint64 `json:"hits" prom:"hit_total Persistent-store reads that found a valid entry."`
	Misses    uint64 `json:"misses" prom:"miss_total Persistent-store reads that found nothing servable."`
	Puts      uint64 `json:"puts" prom:"put_total Entries published to the persistent store."`
	Evictions uint64 `json:"evictions" prom:"eviction_total Entries evicted to stay under the store's size cap."`
	Corrupt   uint64 `json:"corrupt" prom:"corrupt_total Entries quarantined because their frame failed its checks."`
	// Entries / Bytes describe the resident set.
	Entries int   `json:"entries" prom:"entries Entries resident in the persistent store."`
	Bytes   int64 `json:"bytes" prom:"size_bytes Bytes resident in the persistent store."`
	// LoadMicros / StoreMicros time successful disk reads and writes.
	LoadMicros  telemetry.HistogramSnapshot `json:"load_micros" prom:"load_latency_microseconds Latency of persistent-store disk reads (hits only)."`
	StoreMicros telemetry.HistogramSnapshot `json:"store_micros" prom:"store_latency_microseconds Latency of persistent-store disk writes."`
}

// DiskFault is one injected perturbation of a disk operation. A test's
// FaultInjector produces these; the store consults its injector before
// each disk touch.
type DiskFault struct {
	// Delay stalls the operation before it runs, modeling a latency spike.
	// The stall is charged to the operation's observed latency, so slow-call
	// detectors (the service's breaker) see it.
	Delay time.Duration
	// Err fails the operation outright: a load reports a miss, a store is
	// dropped (both paths the store already survives for real I/O errors).
	Err error
	// TornBytes, when > 0 on a store, truncates the on-disk frame to at
	// most that many bytes while still reporting success to the writer —
	// a torn write. The damage is latent: a later load fails frame
	// validation and quarantines the entry.
	TornBytes int
}

// FaultInjector supplies deterministic disk faults. The store asks before
// every disk operation; op is "load" or "store". Implementations must be
// safe for concurrent use (the store calls from many goroutines).
type FaultInjector interface {
	Disk(op string) (DiskFault, bool)
}

// SetFaults installs (or, with nil, removes) a fault injector: the one way
// a test injects disk faults, into the store or the daemon above it. Safe
// on a nil store. Production opens never set one.
func (s *Store) SetFaults(f FaultInjector) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.faults = f
	s.mu.Unlock()
}

// SetObserver installs a per-operation outcome hook: op is "load" or
// "store", d the operation's wall duration (injected delays included), and
// failed reports an I/O error or corrupt entry — a clean miss (no such
// entry) is not a failure. The service's circuit breaker feeds on this.
// Called outside the store's lock. Safe on a nil store.
func (s *Store) SetObserver(fn func(op string, d time.Duration, failed bool)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.observer = fn
	s.mu.Unlock()
}

// faultFor consults the installed injector, if any, for op.
func (s *Store) faultFor(op string) (DiskFault, bool) {
	s.mu.Lock()
	inj := s.faults
	s.mu.Unlock()
	if inj == nil {
		return DiskFault{}, false
	}
	return inj.Disk(op)
}

// observe reports one disk-operation outcome to the installed observer.
func (s *Store) observe(op string, d time.Duration, failed bool) {
	s.mu.Lock()
	fn := s.observer
	s.mu.Unlock()
	if fn != nil {
		fn(op, d, failed)
	}
}

// entry is the accounting record of one on-disk file.
type entry struct {
	size int64  // header + payload bytes on disk
	used uint64 // logical LRU clock reading of the last touch
}

// flight is one in-progress disk load shared by concurrent Gets.
type flight struct {
	done chan struct{}
	data []byte
	ok   bool
}

// Store is a persistent content-addressed byte store rooted at one
// directory. It is safe for concurrent use within a process, and atomic
// publication keeps concurrent processes sharing the directory safe too
// (each process maintains its own view of the LRU index; the last writer's
// index wins, and Open rebuilds accounting from the directory itself).
type Store struct {
	dir string
	max int64
	log *slog.Logger

	mu      sync.Mutex
	entries map[string]*entry // rel path -> accounting
	total   int64
	clock   uint64
	flights map[string]*flight

	hits, misses, puts, evictions, corrupt uint64
	loadMicros, storeMicros                telemetry.Histogram

	faults   FaultInjector
	observer func(op string, d time.Duration, failed bool)
}

// Open opens (creating if needed) the store rooted at dir and rebuilds its
// accounting: the directory scan is ground truth for which entries exist,
// the on-disk index (when readable) restores their recency order. log
// receives eviction and quarantine reports; nil disables logging (the
// library convention shared with internal/service).
func Open(dir string, log *slog.Logger) (*Store, error) {
	return openBudget(dir, log, maxBytes)
}

// openBudget is Open under a byte budget other than maxBytes, so the
// package's tests can make a few small entries evict.
func openBudget(dir string, log *slog.Logger, budget int64) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cas: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cas: %w", err)
	}
	s := &Store{
		dir:     dir,
		max:     budget,
		log:     log,
		entries: make(map[string]*entry),
		flights: make(map[string]*flight),
	}
	s.load()
	return s, nil
}

// persistedIndex is the JSON schema of the on-disk LRU index.
type persistedIndex struct {
	Clock   uint64            `json:"clock"`
	Entries map[string]uint64 `json:"entries"` // rel path -> last-use clock
}

// load scans the store directory and merges the persisted recency index.
func (s *Store) load() {
	var idx persistedIndex
	if data, err := os.ReadFile(filepath.Join(s.dir, indexFile)); err == nil {
		// A corrupt index is ignored wholesale: eviction order degrades
		// to "unknown age", nothing else.
		if json.Unmarshal(data, &idx) != nil {
			idx = persistedIndex{}
		}
	}
	s.clock = idx.Clock
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != entryExt {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		rel, err := filepath.Rel(s.dir, path)
		if err != nil {
			return nil
		}
		s.entries[rel] = &entry{size: info.Size(), used: idx.Entries[rel]}
		s.total += info.Size()
		return nil
	})
}

// persistIndexLocked writes the LRU index atomically. Best effort: an index
// write failure is logged and ignored (the store still works, recency just
// won't survive this process). Caller holds mu.
func (s *Store) persistIndexLocked() {
	idx := persistedIndex{Clock: s.clock, Entries: make(map[string]uint64, len(s.entries))}
	for rel, e := range s.entries {
		idx.Entries[rel] = e.used
	}
	data, err := json.Marshal(idx)
	if err == nil {
		err = writeFileAtomic(filepath.Join(s.dir, indexFile), data)
	}
	if err != nil && s.log != nil {
		s.log.Warn("cas index not persisted",
			slog.String("dir", s.dir), slog.String("error", err.Error()))
	}
}

// entryPath maps key to the entry's path relative to the store root,
// fanning out on the first two key characters so one directory never holds
// the whole store.
func entryPath(key string) string {
	if !safeName(key) {
		// Keys are digests; anything else is a programming error, not an
		// input error.
		panic(fmt.Sprintf("cas: unsafe entry name %q", key))
	}
	fan := key
	if len(fan) > 2 {
		fan = key[:2]
	}
	return filepath.Join(entryDir, fan, key+entryExt)
}

// safeName accepts the filesystem-safe alphabet entry names may use.
func safeName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return s[0] != '.'
}

// Get returns the payload stored under key, or ok=false on a miss. The
// returned bytes are shared and must be treated as read-only. Concurrent
// Gets of one key share a single disk read; a corrupt entry is quarantined
// and reported as a miss.
func (s *Store) Get(key string) (data []byte, ok bool) {
	if s == nil {
		return nil, false
	}
	rel := entryPath(key)

	s.mu.Lock()
	if f := s.flights[rel]; f != nil {
		s.mu.Unlock()
		<-f.done
		return f.data, f.ok
	}
	f := &flight{done: make(chan struct{})}
	s.flights[rel] = f
	s.mu.Unlock()

	f.data, f.ok = s.loadEntry(rel)
	s.mu.Lock()
	delete(s.flights, rel)
	s.mu.Unlock()
	close(f.done)
	return f.data, f.ok
}

// loadEntry reads and validates one entry file, maintaining the counters
// and the LRU accounting.
func (s *Store) loadEntry(rel string) ([]byte, bool) {
	fault, injected := s.faultFor("load")
	start := time.Now()
	if fault.Delay > 0 {
		time.Sleep(fault.Delay)
	}
	var raw []byte
	var err error
	if injected && fault.Err != nil {
		err = fault.Err
	} else {
		raw, err = os.ReadFile(filepath.Join(s.dir, rel))
	}
	if err != nil {
		s.mu.Lock()
		s.misses++
		if e := s.entries[rel]; e != nil && errors.Is(err, fs.ErrNotExist) {
			// The file vanished under us (another process evicted it);
			// drop the stale accounting.
			s.total -= e.size
			delete(s.entries, rel)
		}
		s.mu.Unlock()
		// A clean miss (no such entry) is healthy; anything else is the
		// disk misbehaving and feeds slow/error detection.
		s.observe("load", time.Since(start), !errors.Is(err, fs.ErrNotExist))
		return nil, false
	}
	payload, err := decodeEntry(raw)
	if err != nil {
		s.quarantine(rel, int64(len(raw)), err)
		s.observe("load", time.Since(start), true)
		return nil, false
	}

	s.mu.Lock()
	s.hits++
	s.loadMicros.Observe(uint64(time.Since(start).Microseconds()))
	s.clock++
	if e := s.entries[rel]; e != nil {
		e.used = s.clock
	} else {
		// Written by another process after Open: adopt it.
		s.entries[rel] = &entry{size: int64(len(raw)), used: s.clock}
		s.total += int64(len(raw))
	}
	s.mu.Unlock()
	s.observe("load", time.Since(start), false)
	return payload, true
}

// Put stores payload under key, atomically replacing any previous entry,
// then evicts past the size budget. The entry is fsync'd; the recency index
// is not rewritten until Close. Failures are logged and swallowed: the
// persistent tier is an optimization, never a correctness dependency, so a
// full disk degrades to cold behavior.
func (s *Store) Put(key string, payload []byte) {
	if s == nil {
		return
	}
	rel := entryPath(key)
	fault, injected := s.faultFor("store")
	start := time.Now()
	if fault.Delay > 0 {
		time.Sleep(fault.Delay)
	}
	err := fault.Err
	if !injected || err == nil {
		frame := encodeEntry(payload)
		if injected && fault.TornBytes > 0 && fault.TornBytes < len(frame) {
			// Torn write: persist a truncated frame but report success.
			// The checksum pass on a later load quarantines the debris.
			frame = frame[:fault.TornBytes]
		}
		err = writeFileAtomic(filepath.Join(s.dir, rel), frame)
	}
	if err != nil {
		if s.log != nil {
			s.log.Warn("cas store failed",
				slog.String("entry", rel), slog.String("error", err.Error()))
		}
		s.observe("store", time.Since(start), true)
		return
	}
	size := int64(headerSize + len(payload))

	s.mu.Lock()
	s.puts++
	s.storeMicros.Observe(uint64(time.Since(start).Microseconds()))
	s.clock++
	if e := s.entries[rel]; e != nil {
		s.total += size - e.size
		e.size, e.used = size, s.clock
	} else {
		s.entries[rel] = &entry{size: size, used: s.clock}
		s.total += size
	}
	evicted := s.evictLocked(rel)
	s.mu.Unlock()
	s.observe("store", time.Since(start), false)

	if s.log != nil {
		for _, ev := range evicted {
			s.log.Info("cas entry evicted", slog.String("entry", ev))
		}
	}
}

// evictLocked removes least-recently-used entries until the store fits the
// budget, never evicting keep (the entry just written). Caller holds mu.
func (s *Store) evictLocked(keep string) []string {
	var evicted []string
	for s.total > s.max && len(s.entries) > 1 {
		victim, oldest := "", uint64(0)
		for rel, e := range s.entries {
			if rel == keep {
				continue
			}
			if victim == "" || e.used < oldest {
				victim, oldest = rel, e.used
			}
		}
		if victim == "" {
			break
		}
		s.total -= s.entries[victim].size
		delete(s.entries, victim)
		s.evictions++
		os.Remove(filepath.Join(s.dir, victim))
		evicted = append(evicted, victim)
	}
	return evicted
}

// quarantine renames an entry whose frame failed validation aside
// (overwriting any previous quarantined copy, so the debris stays bounded)
// and drops its accounting; size is the bytes read.
func (s *Store) quarantine(rel string, size int64, reason error) {
	path := filepath.Join(s.dir, rel)
	if err := os.Rename(path, path+".quarantined"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// Renaming failed (e.g. permissions): remove outright rather than
		// letting a poisoned entry be re-read forever.
		os.Remove(path)
	}
	s.mu.Lock()
	s.corrupt++
	s.misses++
	if e := s.entries[rel]; e != nil {
		s.total -= e.size
		delete(s.entries, rel)
	}
	s.persistIndexLocked()
	s.mu.Unlock()
	if s.log != nil {
		s.log.Warn("cas entry quarantined",
			slog.String("entry", rel),
			slog.Int64("bytes", size),
			slog.String("reason", reason.Error()))
	}
}

// Stats snapshots the store's counters. Safe on a nil store (all zero).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Puts:        s.puts,
		Evictions:   s.evictions,
		Corrupt:     s.corrupt,
		Entries:     len(s.entries),
		Bytes:       s.total,
		LoadMicros:  s.loadMicros.Snapshot(),
		StoreMicros: s.storeMicros.Snapshot(),
	}
}

// Close persists the LRU index, recording every Put and touch since Open.
// The store stays usable; Close exists so clean shutdowns keep recency.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.persistIndexLocked()
	s.mu.Unlock()
	return nil
}

// Dir returns the store root ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// encodeEntry frames a payload with the versioned header and checksum.
func encodeEntry(payload []byte) []byte {
	frame := make([]byte, headerSize, headerSize+len(payload))
	copy(frame, entryMagic)
	frame[4] = entryVersion // bytes 5-7 stay zero (reserved)
	binary.LittleEndian.PutUint64(frame[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(frame[16:], checksum(payload))
	return append(frame, payload...)
}

// decodeEntry validates the frame and returns the payload.
func decodeEntry(raw []byte) ([]byte, error) {
	if len(raw) < headerSize {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(raw))
	}
	version, payload := raw[4], raw[headerSize:]
	n, sum := binary.LittleEndian.Uint64(raw[8:]), binary.LittleEndian.Uint64(raw[16:])
	switch {
	case string(raw[:4]) != entryMagic:
		return nil, errors.New("bad magic")
	case version != entryVersion:
		return nil, fmt.Errorf("entry version %d, want %d", version, entryVersion)
	case n != uint64(len(payload)):
		return nil, fmt.Errorf("payload length %d, have %d bytes", n, len(payload))
	}
	if checksum(payload) != sum {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// checksum is FNV-1a 64 over the payload.
func checksum(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// writeFileAtomic publishes data at path via a temp file in the same
// directory and an atomic rename, so concurrent readers (and concurrent
// processes) see either the old complete entry or the new complete entry.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
