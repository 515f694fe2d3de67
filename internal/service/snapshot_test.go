package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"subthreads/internal/sim"
	"subthreads/internal/telemetry"
)

// runJobSpec posts a spec, waits for completion, and returns the result body.
func runJobSpec(t *testing.T, ts *httptest.Server, spec JobSpec) []byte {
	t.Helper()
	resp := postJob(t, ts, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s (%+v)", final.State, final.Failure)
	}
	_, body := getBody(t, ts.URL+final.ResultURL)
	return body
}

// The snapshot warm-start contract: the first job of a {workload, prefix}
// group publishes a machine checkpoint, and every later spec that differs
// only in fork-safe parameters — sub-thread spacing, count, overflow policy —
// forks its simulation from it, in this process life or (via the persistent
// store) a later one. Every forked body must stay byte-identical to the
// tlssim -json rendering.
func TestSnapshotWarmStartForksDominatedSpecs(t *testing.T) {
	dir := t.TempDir()
	base := tinySpec("NEW ORDER")

	s1, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	body1 := runJobSpec(t, ts1, base)
	if want := renderExpected(t, base); !bytes.Equal(body1, want) {
		t.Fatal("cold body differs from tlssim -json rendering")
	}
	m := s1.MetricsSnapshot()
	if m.SnapshotPuts != 1 {
		t.Fatalf("snapshot_puts = %d, want 1", m.SnapshotPuts)
	}
	if m.JobsReplayed == 0 || m.JobsForked != 0 {
		t.Fatalf("cold split forked=%d replayed=%d, want 0/>0", m.JobsForked, m.JobsReplayed)
	}

	// A dominated spec in the same life: same workload, divergent spacing.
	spaced := base
	spaced.Spacing = 2500
	body2 := runJobSpec(t, ts1, spaced)
	if want := renderExpected(t, spaced); !bytes.Equal(body2, want) {
		t.Fatal("forked body differs from tlssim -json rendering")
	}
	m = s1.MetricsSnapshot()
	if m.SnapshotHits != 1 || m.JobsForked != 1 {
		t.Fatalf("after spaced job: snapshot_hits=%d jobs_forked=%d, want 1/1", m.SnapshotHits, m.JobsForked)
	}

	// A restarted daemon forks a third variant from the on-disk checkpoint.
	s2, ts2 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	squash := base
	squash.Overflow = "squash"
	body3 := runJobSpec(t, ts2, squash)
	if want := renderExpected(t, squash); !bytes.Equal(body3, want) {
		t.Fatal("restart-forked body differs from tlssim -json rendering")
	}
	if m := s2.MetricsSnapshot(); m.SnapshotHits != 1 || m.JobsForked != 1 {
		t.Fatalf("restart life: snapshot_hits=%d jobs_forked=%d, want 1/1", m.SnapshotHits, m.JobsForked)
	}
}

// A corrupt checkpoint must be quarantined and the job replayed in full —
// the tier degrades, it never fails a job or serves wrong bytes.
func TestCorruptSnapshotQuarantinedNeverFatal(t *testing.T) {
	dir := t.TempDir()
	base := tinySpec("STOCK LEVEL")

	_, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	runJobSpec(t, ts1, base)

	// Overwrite the published checkpoint with bytes that pass the store's
	// integrity check but are not a snapshot frame.
	r, err := base.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	key := snapshotKey(r.Spec, r.Cfg)
	store2 := openTestStore(t, dir)
	if _, ok := store2.Get(casSnapNS, key); !ok {
		t.Fatalf("no stored checkpoint under key %s", key)
	}
	store2.Put(casSnapNS, key, []byte("not a snapshot frame"))

	s2, ts2 := newTestServer(t, Options{Workers: 1, Store: store2})
	spaced := base
	spaced.Spacing = 2500
	body := runJobSpec(t, ts2, spaced)
	if want := renderExpected(t, spaced); !bytes.Equal(body, want) {
		t.Fatal("replayed body differs from tlssim -json rendering")
	}
	m := s2.MetricsSnapshot()
	if m.SnapshotCorrupt != 1 || m.JobsForked != 0 || m.JobsReplayed == 0 {
		t.Fatalf("corrupt handling: corrupt=%d forked=%d replayed=%d, want 1/0/>0",
			m.SnapshotCorrupt, m.JobsForked, m.JobsReplayed)
	}
	// The replay recaptured and republished a healthy checkpoint over the
	// quarantined one; a third life forks again.
	if m.SnapshotPuts != 1 {
		t.Fatalf("snapshot_puts after replay = %d, want 1", m.SnapshotPuts)
	}
	s3, ts3 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	squash := base
	squash.Overflow = "squash"
	runJobSpec(t, ts3, squash)
	if m := s3.MetricsSnapshot(); m.SnapshotHits != 1 {
		t.Fatalf("self-heal: snapshot_hits = %d, want 1", m.SnapshotHits)
	}
}

// A forked job abandoned on its own cycle budget fails with that kind and
// keeps the checkpoint: the checkpoint applied, only the resumed run ran out
// of budget, so there is nothing to quarantine and no full replay to run.
func TestForkedBudgetFailureKeepsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := tinySpec("NEW ORDER")
	store := openTestStore(t, dir)
	s1, ts1 := newTestServer(t, Options{Workers: 1, Store: store})
	runJobSpec(t, ts1, base) // publishes a checkpoint

	r, err := base.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	data, ok := store.Get(casSnapNS, snapshotKey(r.Spec, r.Cfg))
	if !ok {
		t.Fatal("no published checkpoint")
	}
	snap, err := sim.DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode published checkpoint: %v", err)
	}

	// A fork-safe variant whose budget runs out shortly after the fork.
	budget := base
	budget.Spacing = 2500
	budget.MaxCycles = snap.Cycle + 1000
	resp := postJob(t, ts1, budget)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	final := waitDone(t, ts1, st.ID)
	if final.State != StateFailed || final.Failure == nil || final.Failure.Kind != "max-cycles" {
		t.Fatalf("budget job = %s %+v, want failed with kind max-cycles", final.State, final.Failure)
	}
	m := s1.MetricsSnapshot()
	if m.SnapshotCorrupt != 0 || m.SnapshotHits != 1 || m.JobsForked != 1 || m.JobsReplayed != 1 {
		t.Fatalf("after budget job: corrupt=%d hits=%d forked=%d replayed=%d, want 0/1/1/1",
			m.SnapshotCorrupt, m.SnapshotHits, m.JobsForked, m.JobsReplayed)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, casSnapNS, "*", "*.quarantined")); len(q) != 0 {
		t.Fatalf("healthy checkpoint quarantined: %v", q)
	}

	// The checkpoint still serves the next dominated spec.
	squash := base
	squash.Overflow = "squash"
	runJobSpec(t, ts1, squash)
	if m := s1.MetricsSnapshot(); m.SnapshotHits != 2 || m.JobsForked != 2 {
		t.Fatalf("after squash job: snapshot_hits=%d jobs_forked=%d, want 2/2", m.SnapshotHits, m.JobsForked)
	}
}

// Fault-injected jobs never fork: a checkpoint would skip scheduled faults.
func TestInjectedJobsNeverFork(t *testing.T) {
	dir := t.TempDir()
	base := tinySpec("NEW ORDER")

	s1, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	runJobSpec(t, ts1, base) // publishes a checkpoint

	injected := base
	injected.Spacing = 2500
	injected.Inject = "seed=7,faults=2"
	runJobSpec(t, ts1, injected)
	m := s1.MetricsSnapshot()
	if m.JobsForked != 0 {
		t.Fatalf("injected job forked (jobs_forked=%d)", m.JobsForked)
	}
}

// The snapshot metric families must pass the exposition linter and carry the
// fork-vs-replay split.
func TestPromExposesSnapshotFamilies(t *testing.T) {
	dir := t.TempDir()
	base := tinySpec("NEW ORDER")

	_, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
	runJobSpec(t, ts1, base)
	spaced := base
	spaced.Spacing = 2500
	runJobSpec(t, ts1, spaced)

	req, _ := http.NewRequest("GET", ts1.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := telemetry.LintProm(body); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, body)
	}
	text := string(body)
	for _, want := range []string{
		"tlsd_snapshot_hit_total 1",
		"tlsd_snapshot_miss_total 1",
		"tlsd_snapshot_put_total 1",
		"tlsd_snapshot_corrupt_total 0",
		"tlsd_jobs_forked_total 1",
		"tlsd_jobs_replayed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
