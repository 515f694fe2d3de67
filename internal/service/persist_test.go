package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"subthreads/internal/cas"
	"subthreads/internal/telemetry"
)

func openTestStore(t *testing.T, dir string) *cas.Store {
	t.Helper()
	s, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatalf("cas.Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// drain shuts s down the way SIGTERM does. A job is marked done before its
// result is published to the store, so a restarted server must not open the
// same directory until the first life has drained.
func drain(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// The warm-restart contract end to end: a brand-new server over the same
// cache directory — a restarted daemon — serves a previously computed spec
// as a hit, byte-identical to the first life's body and to the tlssim
// rendering, without building or simulating anything.
func TestWarmRestartServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("NEW ORDER")

	// First life: cold run, result published to the store.
	s1, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp := postJob(t, ts1, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	final := waitDone(t, ts1, st.ID)
	if final.State != StateDone {
		t.Fatalf("cold job state = %s", final.State)
	}
	_, coldBody := getBody(t, ts1.URL+final.ResultURL)
	if b := s1.MetricsSnapshot().Builder; b.Builds != 2 || b.ReferenceRuns != 1 {
		t.Fatalf("cold builder stats = %+v, want 2 builds (TLS + sequential) and 1 reference run", b)
	}
	drain(t, s1)
	// The executed job populated every in-worker stage histogram, and those
	// stages account for no more than its submit-to-done latency.
	m1 := s1.MetricsSnapshot()
	var inWorker uint64
	for name, h := range map[string]telemetry.HistogramSnapshot{
		"build": m1.BuildLatencyMicros, "sim": m1.SimLatencyMicros, "render": m1.RenderLatencyMicros,
	} {
		if h.Count != 1 || h.Sum == 0 {
			t.Errorf("%s stage histogram = %+v, want one nonzero observation", name, h)
		}
		inWorker += h.Sum
	}
	if cold := m1.ColdLatencyMicros.Sum; inWorker > cold {
		t.Errorf("stage sum %dus exceeds cold latency %dus", inWorker, cold)
	}

	// Second life: new server, new memory, same directory. A 200 hit serves
	// the stored result body verbatim as the submission response.
	s2, ts2 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp2 := postJob(t, ts2, spec)
	warmBody, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatalf("read warm body: %v", err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm resubmission status = %d, want 200", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(warmBody, coldBody) {
		t.Fatalf("warm body differs from cold body (%d vs %d bytes)", len(warmBody), len(coldBody))
	}
	if want := renderExpected(t, spec); !bytes.Equal(warmBody, want) {
		t.Fatal("warm body differs from tlssim -json rendering")
	}
	// The whole point: the restarted daemon did no build work at all.
	if b := s2.MetricsSnapshot().Builder; b.Builds != 0 {
		t.Fatalf("warm builds = %d, want 0", b.Builds)
	}

	m := s2.MetricsSnapshot()
	if m.CacheDiskHits != 1 {
		t.Fatalf("cache_disk_hits = %d, want 1", m.CacheDiskHits)
	}
	if m.DiskHitLatencyMicros.Count != 1 {
		t.Fatalf("disk_hit_latency count = %d, want 1", m.DiskHitLatencyMicros.Count)
	}
	if m.CAS == nil || m.CAS.Hits == 0 {
		t.Fatalf("cas stats = %+v, want at least one hit", m.CAS)
	}

	// Third submission in the second life is a plain memory hit.
	resp3 := postJob(t, ts2, spec)
	resp3.Body.Close()
	if m := s2.MetricsSnapshot(); m.CacheHits != 1 || m.CacheDiskHits != 1 {
		t.Fatalf("after resubmit: hits=%d disk=%d, want 1/1", m.CacheHits, m.CacheDiskHits)
	}
}

// A restarted daemon whose store has lost a job's result entry simulates the
// job again: it records the TLS program on one load, with no clone, since
// the SEQUENTIAL reference comes from the seqref namespace. This pins the
// result and seqref namespaces working independently.
func TestWarmRestartReadsReferenceFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("STOCK LEVEL")

	s1, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp := postJob(t, ts1, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts1, st.ID)
	drain(t, s1)

	// Drop the result entry, keep the reference.
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	store2 := openTestStore(t, dir)
	store2.Quarantine(casResultNS, r.Digest, nil)

	s2, ts2 := newTestServer(t, Options{Workers: 1, Store: store2})
	resp2 := postJob(t, ts2, spec)
	st2 := decodeStatus(t, resp2.Body)
	resp2.Body.Close()
	final := waitDone(t, ts2, st2.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s", final.State)
	}
	// Simulated again (no stored result): the TLS program is recorded on
	// one load, and the SEQUENTIAL reference comes from the store's seqref
	// namespace, so no SEQUENTIAL program is recorded.
	if b := s2.MetricsSnapshot().Builder; b.Builds != 1 || b.Loads != 1 || b.Clones != 0 || b.ReferenceDiskHits != 1 || b.ReferenceRuns != 0 {
		t.Fatalf("builder stats = %+v, want 1 build on 1 load with no clone, and 1 reference disk hit", b)
	}
	_, body := getBody(t, ts2.URL+final.ResultURL)
	if want := renderExpected(t, spec); !bytes.Equal(body, want) {
		t.Fatal("restarted daemon's body differs from tlssim -json rendering")
	}
}

// A cold job writes the store exactly what a later life reads back: its
// rendered result and its workload's SEQUENTIAL reference, one entry each.
// No other namespace is created.
func TestColdJobStoresResultAndReference(t *testing.T) {
	dir := t.TempDir()
	store := openTestStore(t, dir)
	s, ts := newTestServer(t, Options{Workers: 1, Store: store})
	spec := tinySpec("NEW ORDER")
	requireExpected(t, spec, runDone(t, ts, spec))
	drain(t, s) // the result is published after the job is marked done

	if puts := store.Stats().Puts; puts != 2 {
		t.Errorf("store puts = %d, want 2 (result and seqref)", puts)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read store dir: %v", err)
	}
	var namespaces []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		namespaces = append(namespaces, e.Name())
		if files, _ := filepath.Glob(filepath.Join(dir, e.Name(), "*", "*.cas")); len(files) != 1 {
			t.Errorf("namespace %s holds %d entries, want 1", e.Name(), len(files))
		}
	}
	if want := []string{casResultNS, "seqref"}; !slices.Equal(namespaces, want) {
		t.Errorf("store namespaces = %q, want %q", namespaces, want)
	}
}

// The cas metric families must pass the exposition linter and carry the
// tier's counters once the store has seen traffic.
func TestPromExposesCASFamilies(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("NEW ORDER")

	s1, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp := postJob(t, ts1, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts1, st.ID)
	drain(t, s1)

	// Restarted daemon: the resubmission is a cas hit.
	_, ts2 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	resp2 := postJob(t, ts2, spec)
	resp2.Body.Close()

	req, _ := http.NewRequest("GET", ts2.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	promResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err := telemetry.LintProm(body); err != nil {
		t.Fatalf("store-enabled exposition does not lint: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"tlsd_cache_disk_hits_total 1",
		"tlsd_cache_disk_hit_latency_microseconds_count 1",
		"tlsd_cas_hit_total 1",
		"tlsd_cas_miss_total",
		"tlsd_cas_eviction_total 0",
		"tlsd_cas_corrupt_total 0",
		"tlsd_cas_load_latency_microseconds_count 1",
		"tlsd_cas_store_latency_microseconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// Without a store every path must behave exactly as before; this is the
// regression guard for the nil tier.
func TestNoStoreUnchangedBehavior(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	spec := tinySpec("NEW ORDER")
	resp := postJob(t, ts, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts, st.ID)
	m := s.MetricsSnapshot()
	if m.CAS != nil {
		t.Fatalf("cas stats present without a store: %+v", m.CAS)
	}
	if m.CacheDiskHits != 0 {
		t.Fatalf("disk hits without a store: %d", m.CacheDiskHits)
	}
}
