package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"subthreads/internal/inject"
	"subthreads/internal/report"
	"subthreads/internal/sim"
	"subthreads/internal/workload"
)

// tinySpec is the smallest meaningful job: 2 measured transactions after a
// 1-transaction warm-up.
func tinySpec(bench string) JobSpec {
	warmup := 1
	return JobSpec{Benchmark: bench, Txns: 2, Warmup: &warmup}
}

// renderExpected reproduces cmd/tlssim's -json pipeline for a spec,
// independently of the service (fresh builds, no shared cache) — the pin
// that a served result is byte-identical to what the CLI prints.
func renderExpected(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	cfg := r.Cfg
	if r.Inject != nil {
		cfg.Inject = inject.New(*r.Inject)
	}
	seqRes, _ := workload.Run(r.Spec, workload.Sequential)
	built := workload.Build(r.Spec, r.Exp.SequentialSoftware())
	return renderRun(t, r, built, sim.Run(cfg, built.Program), seqRes)
}

// renderRun renders r's result document from its run and the whole
// SEQUENTIAL reference Result through report.BuildRun and WriteRun.
func renderRun(t *testing.T, r *Resolved, built *workload.Built, res, seq *sim.Result) []byte {
	t.Helper()
	run := report.BuildRun(report.RunParams{
		Benchmark:  r.Spec.Bench.String(),
		Experiment: r.Exp.String(),
		CPUs:       r.Cfg.CPUs,
		Subthreads: r.Cfg.TLS.SubthreadsPerEpoch,
		Spacing:    r.Cfg.SubthreadSpacing,
		Epochs:     built.Stats.Epochs,
		Coverage:   built.Stats.Coverage,
	}, res, seq)
	var buf bytes.Buffer
	if err := report.WriteRun(&buf, run); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	return resp
}

func decodeStatus(t *testing.T, r io.Reader) Status {
	t.Helper()
	var st Status
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitDone polls the status endpoint until the job is terminal.
func waitDone(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, b
}

func TestResolveCanonicalDigest(t *testing.T) {
	// Spelling out the defaults must not change the content address.
	short := JobSpec{Benchmark: "NEW ORDER"}
	warmup, seed, opt := 2, int64(42), 5
	long := JobSpec{
		Benchmark:  "NEW ORDER",
		Experiment: "BASELINE",
		Txns:       8,
		Warmup:     &warmup,
		Seed:       &seed,
		Opt:        &opt,
	}
	a, err := short.Resolve()
	if err != nil {
		t.Fatalf("Resolve(short): %v", err)
	}
	b, err := long.Resolve()
	if err != nil {
		t.Fatalf("Resolve(long): %v", err)
	}
	if a.Digest != b.Digest {
		t.Errorf("defaulted and explicit specs digest differently:\n  %s\n  %s", a.Digest, b.Digest)
	}

	// Any semantic change must move the digest.
	for name, mut := range map[string]JobSpec{
		"seed":       {Benchmark: "NEW ORDER", Seed: ptr(int64(7))},
		"txns":       {Benchmark: "NEW ORDER", Txns: 4},
		"subthreads": {Benchmark: "NEW ORDER", Subthreads: 2},
		"overflow":   {Benchmark: "NEW ORDER", Overflow: "squash"},
		"paranoid":   {Benchmark: "NEW ORDER", Paranoid: true},
		"inject":     {Benchmark: "NEW ORDER", Inject: "seed=1,faults=5,window=60000"},
		"experiment": {Benchmark: "NEW ORDER", Experiment: "NO SUB-THREAD"},
	} {
		r, err := mut.Resolve()
		if err != nil {
			t.Fatalf("Resolve(%s): %v", name, err)
		}
		if r.Digest == a.Digest {
			t.Errorf("%s variant did not change the digest", name)
		}
	}

	// Invalid specs are rejected.
	for name, bad := range map[string]JobSpec{
		"benchmark":  {Benchmark: "NO SUCH BENCH"},
		"experiment": {Benchmark: "NEW ORDER", Experiment: "WARP"},
		"overflow":   {Benchmark: "NEW ORDER", Overflow: "explode"},
		"opt":        {Benchmark: "NEW ORDER", Opt: ptr(99)},
		"inject":     {Benchmark: "NEW ORDER", Inject: "gibberish"},
	} {
		if _, err := bad.Resolve(); err == nil {
			t.Errorf("Resolve accepted invalid %s", name)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestResolveArmsFaults: -paranoid and -inject resolve into an audited
// machine under the default forward-progress watchdog, and every Config arms
// a fresh injector — injectors are single-use.
func TestResolveArmsFaults(t *testing.T) {
	r, err := JobSpec{Benchmark: "NEW ORDER", Paranoid: true, Inject: "seed=1,faults=5,window=60000"}.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	cfg := r.Config()
	if !cfg.Paranoid {
		t.Error("paranoid not applied")
	}
	if cfg.Inject == nil {
		t.Error("inject built no injector")
	}
	if cfg.WatchdogCycles != inject.DefaultWatchdog {
		t.Errorf("watchdog = %d, want the injection default %d", cfg.WatchdogCycles, inject.DefaultWatchdog)
	}
	if again := r.Config(); again.Inject == cfg.Inject {
		t.Error("Config reused a consumed injector")
	}

	// An explicit watchdog wins over the injection default.
	r, err = JobSpec{Benchmark: "NEW ORDER", Inject: "seed=1,faults=5,window=60000", Watchdog: 2000}.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if r.Cfg.WatchdogCycles != 2000 {
		t.Errorf("watchdog = %d, want the spec's 2000", r.Cfg.WatchdogCycles)
	}
}

func TestEndToEndSubmitPollResultEvents(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	spec := tinySpec("NEW ORDER")

	resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	if st.ID == "" || st.Digest == "" {
		t.Fatalf("submit returned incomplete status: %+v", st)
	}
	// The job's address is the spec's own digest: nothing the daemon was
	// started with enters it, so tlsrouter routes by the digest tlsd keys.
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if got := resp.Header.Get("X-Job-Digest"); got != r.Digest || st.Digest != r.Digest {
		t.Errorf("X-Job-Digest %q, status digest %q; want Resolve's %q", got, st.Digest, r.Digest)
	}

	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job state = %s, want done (failure: %+v)", final.State, final.Failure)
	}

	rresp, body := getBody(t, ts.URL+final.ResultURL)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", rresp.StatusCode)
	}
	want := renderExpected(t, spec)
	if !bytes.Equal(body, want) {
		t.Errorf("served result differs from tlssim -json rendering (%d vs %d bytes)", len(body), len(want))
	}

	// The SSE stream replays the full run even after completion.
	eresp, events := getBody(t, ts.URL+final.EventsURL)
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200", eresp.StatusCode)
	}
	text := string(events)
	if !strings.Contains(text, "event: telemetry") {
		t.Errorf("SSE stream has no telemetry events:\n%.400s", text)
	}
	if !strings.Contains(text, `"kind":"epoch-commit"`) {
		t.Errorf("SSE stream has no epoch-commit event")
	}
	if !strings.HasSuffix(strings.TrimSpace(text), "}") || !strings.Contains(text, "event: done") {
		t.Errorf("SSE stream missing terminal done event:\n%.400s", text)
	}
}

func TestCacheHitServedWithoutResimulation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	spec := tinySpec("STOCK LEVEL")

	resp := postJob(t, ts, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	waitDone(t, ts, st.ID)
	_, first := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	builds := s.MetricsSnapshot().Builder.Builds

	// Resubmitting the same spec returns the stored body immediately.
	hit := postJob(t, ts, spec)
	hitBody, err := io.ReadAll(hit.Body)
	hit.Body.Close()
	if err != nil {
		t.Fatalf("read hit body: %v", err)
	}
	if hit.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit submit status = %d, want 200", hit.StatusCode)
	}
	if got := hit.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(hitBody, first) {
		t.Errorf("cache hit body differs from original result")
	}
	if now := s.MetricsSnapshot().Builder.Builds; now != builds {
		t.Errorf("cache hit triggered %d new builds", now-builds)
	}

	m := s.MetricsSnapshot()
	if m.CacheHits != 1 || m.JobsCompleted != 1 {
		t.Errorf("metrics: hits=%d completed=%d, want 1/1", m.CacheHits, m.JobsCompleted)
	}
	if m.CacheHitRatio <= 0 {
		t.Errorf("cache hit ratio not exported: %v", m.CacheHitRatio)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	release := make(chan struct{})
	setRunningHook(t, func(*Job) { <-release })

	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	defer close(release)

	// First job occupies the worker; second fills the queue; third bounces.
	specs := []JobSpec{tinySpec("NEW ORDER"), tinySpec("STOCK LEVEL"), tinySpec("PAYMENT")}
	r1 := postJob(t, ts, specs[0])
	first := decodeStatus(t, r1.Body)
	r1.Body.Close()
	// Wait until the worker holds job 1 so the queue is truly empty for job 2.
	waitState(t, ts, first.ID, StateRunning)

	r2 := postJob(t, ts, specs[1])
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d, want 202", r2.StatusCode)
	}
	r3 := postJob(t, ts, specs[2])
	defer r3.Body.Close()
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", r3.StatusCode)
	}
	if r3.Header.Get("Retry-After") == "" {
		t.Errorf("429 response missing Retry-After")
	}
}

// setRunningHook installs the worker seam for the test and removes it at
// cleanup (atomic store, so removal needs no ordering with worker exit).
func setRunningHook(t *testing.T, hook func(*Job)) {
	t.Helper()
	testHookRunning.Store(&hook)
	t.Cleanup(func() { testHookRunning.Store(nil) })
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET status: %v", err)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		if st.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	setRunningHook(t, func(*Job) { started <- struct{}{}; <-release })

	s := New(Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts, tinySpec("NEW ORDER"))
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	<-started // the worker holds the job

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// Admission stops immediately: readiness flips and submissions bounce.
	waitFor(t, func() bool {
		r, _ := getBody(t, ts.URL+"/readyz")
		return r.StatusCode == http.StatusServiceUnavailable
	}, "readyz never flipped to 503")
	r2 := postJob(t, ts, tinySpec("STOCK LEVEL"))
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", r2.StatusCode)
	}

	select {
	case err := <-done:
		t.Fatalf("Shutdown returned before draining the in-flight job: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The drained job finished and its result is still servable.
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("drained job state = %s, want done", final.State)
	}
	rr, _ := getBody(t, ts.URL+final.ResultURL)
	if rr.StatusCode != http.StatusOK {
		t.Errorf("result after drain = %d, want 200", rr.StatusCode)
	}
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

func TestConcurrentDuplicateSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 32})
	spec := tinySpec("ORDER STATUS")

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJob(t, ts, spec)
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var st Status
				if err := json.NewDecoder(resp.Body).Decode(&st); err == nil {
					ids[i] = st.ID
				}
			case http.StatusOK:
				ids[i] = resp.Header.Get("X-Job-Id")
			default:
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	want := ids[0]
	for i, id := range ids {
		if id != want {
			t.Errorf("submission %d landed on job %q, others on %q: duplicates not coalesced", i, id, want)
		}
	}
	waitDone(t, ts, want)
	m := s.MetricsSnapshot()
	if m.JobsCompleted != 1 {
		t.Errorf("jobs_completed = %d, want 1 (single-flight)", m.JobsCompleted)
	}
	if m.CacheMisses != 1 || m.CacheHits+m.DedupedInFlight != n-1 {
		t.Errorf("metrics: misses=%d hits=%d deduped=%d, want 1 miss and %d coalesced",
			m.CacheMisses, m.CacheHits, m.DedupedInFlight, n-1)
	}
}

// TestMixedSweep is the acceptance scenario: a 20-job mixed sweep with
// duplicates, submitted concurrently; every result must be byte-identical
// to the tlssim rendering of its spec, duplicates must be served from the
// digest index, and the hit ratio must be exported.
func TestMixedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-simulation sweep")
	}
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 32})

	distinct := []JobSpec{
		tinySpec("NEW ORDER"),
		tinySpec("STOCK LEVEL"),
		tinySpec("PAYMENT"),
		tinySpec("ORDER STATUS"),
		{Benchmark: "NEW ORDER", Txns: 2, Warmup: ptr(1), Subthreads: 2},
		{Benchmark: "NEW ORDER", Txns: 2, Warmup: ptr(1), Spacing: 2000},
		{Benchmark: "STOCK LEVEL", Txns: 2, Warmup: ptr(1), Seed: ptr(int64(7))},
	}
	jobs := make([]JobSpec, 0, 20)
	for i := 0; i < 20; i++ {
		jobs = append(jobs, distinct[(i*3)%len(distinct)])
	}

	ids := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i, spec := range jobs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			resp := postJob(t, ts, spec)
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var st Status
				if err := json.NewDecoder(resp.Body).Decode(&st); err == nil {
					ids[i] = st.ID
				}
			case http.StatusOK:
				ids[i] = resp.Header.Get("X-Job-Id")
			default:
				t.Errorf("submit %d: status %d", i, resp.StatusCode)
			}
		}(i, spec)
	}
	wg.Wait()

	expected := make(map[string][]byte) // digest -> tlssim rendering
	for i, spec := range jobs {
		if ids[i] == "" {
			t.Fatalf("job %d has no id", i)
		}
		st := waitDone(t, ts, ids[i])
		if st.State != StateDone {
			t.Fatalf("job %d failed: %+v", i, st.Failure)
		}
		want, ok := expected[st.Digest]
		if !ok {
			want = renderExpected(t, spec)
			expected[st.Digest] = want
		}
		_, body := getBody(t, ts.URL+st.ResultURL)
		if !bytes.Equal(body, want) {
			t.Errorf("job %d (%s): served result differs from tlssim rendering", i, st.Digest[:12])
		}
	}
	if len(expected) != len(distinct) {
		t.Errorf("sweep produced %d distinct digests, want %d", len(expected), len(distinct))
	}

	m := s.MetricsSnapshot()
	if m.JobsCompleted != uint64(len(distinct)) {
		t.Errorf("jobs_completed = %d, want %d (duplicates must not re-simulate)", m.JobsCompleted, len(distinct))
	}
	if got := m.CacheHits + m.DedupedInFlight; got != uint64(len(jobs)-len(distinct)) {
		t.Errorf("coalesced submissions = %d, want %d", got, len(jobs)-len(distinct))
	}
	if m.CacheHitRatio <= 0 {
		t.Errorf("hit ratio not exported: %v", m.CacheHitRatio)
	}
}

func TestFailedJobSurfacesRunError(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	// A 1-cycle budget cannot finish any run: the job must fail with a
	// structured max-cycles error and the daemon must keep serving.
	spec := tinySpec("NEW ORDER")
	spec.MaxCycles = 1
	resp := postJob(t, ts, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()

	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Failure == nil || final.Failure.Kind != "max-cycles" {
		t.Fatalf("failure = %+v, want kind max-cycles", final.Failure)
	}
	if !strings.Contains(final.Failure.Repro, "go run ./cmd/tlssim") {
		t.Errorf("failure repro %q does not name tlssim", final.Failure.Repro)
	}
	rr, _ := getBody(t, ts.URL+final.ResultURL)
	if rr.StatusCode != http.StatusGone {
		t.Errorf("result of failed job = %d, want 410", rr.StatusCode)
	}

	// The failure freed the digest: resubmitting the same spec must start a
	// fresh job instead of replaying the failure as a cache hit.
	r2 := postJob(t, ts, spec)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after failure = %d, want 202 (fresh job)", r2.StatusCode)
	}
	if got := r2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("resubmit after failure X-Cache = %q, want miss", got)
	}
	st2 := decodeStatus(t, r2.Body)
	r2.Body.Close()
	if st2.ID == st.ID {
		t.Errorf("resubmission attached to the failed job %s", st.ID)
	}
	waitDone(t, ts, st2.ID)

	// And the daemon is still healthy for well-formed work.
	r3 := postJob(t, ts, tinySpec("NEW ORDER"))
	st3 := decodeStatus(t, r3.Body)
	r3.Body.Close()
	if got := waitDone(t, ts, st3.ID); got.State != StateDone {
		t.Fatalf("follow-up job state = %s, want done", got.State)
	}
	m := s.MetricsSnapshot()
	if m.JobsFailed != 2 || m.JobsCompleted != 1 {
		t.Errorf("metrics failed=%d completed=%d, want 2/1", m.JobsFailed, m.JobsCompleted)
	}
}

func TestHealthzReportsVersion(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Version struct {
			Module string `json:"module"`
		} `json:"version"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Version.Module != "subthreads" {
		t.Errorf("healthz = %s, want ok/subthreads", body)
	}
}

func TestReproCommandRoundTrips(t *testing.T) {
	spec := JobSpec{
		Benchmark:  "DELIVERY OUTER",
		Subthreads: 4,
		Spacing:    10000,
		Overflow:   "squash",
		Paranoid:   true,
		Inject:     "seed=3,faults=10,window=60000",
	}
	r, err := spec.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	repro := r.ReproCommand()
	for _, want := range []string{
		`-benchmark "DELIVERY OUTER"`, "-subthreads 4", "-spacing 10000",
		"-overflow squash", "-paranoid", "-inject", "-json",
	} {
		if !strings.Contains(repro, want) {
			t.Errorf("repro %q missing %q", repro, want)
		}
	}
}

// An injection spec whose fault count passes the injector's limit is a 400:
// it would wrap to a negative count, or allocate its schedule, before the
// job could fail.
func TestSubmitRejectsOversizedInjection(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	resp := postJob(t, ts, JobSpec{Benchmark: "NEW ORDER", Inject: "faults=18446744073709551615"})
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "exceeds") {
		t.Errorf("HTTP %d %s, want 400 naming the fault limit", resp.StatusCode, reply)
	}
	if m := s.MetricsSnapshot(); m.JobsSubmitted != 0 || m.JobsFailed != 0 {
		t.Errorf("%d jobs submitted, %d failed; want the spec rejected before admission", m.JobsSubmitted, m.JobsFailed)
	}
}

// A timeout_ms above the largest whole number of milliseconds a
// time.Duration holds is a 400 naming that bound: the deadline would wrap
// to zero or below, and the 10 ms floor would then fail the job.
func TestSubmitRejectsOversizedTimeout(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	spec := tinySpec("NEW ORDER")
	spec.TimeoutMS = 10_000_000_000_000
	resp := postJob(t, ts, spec)
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "maximum 9223372036854") {
		t.Errorf("HTTP %d %s, want 400 naming the bound 9223372036854", resp.StatusCode, reply)
	}
	if m := s.MetricsSnapshot(); m.JobsSubmitted != 0 || m.JobsFailed != 0 {
		t.Errorf("%d jobs submitted, %d failed; want the spec rejected before admission", m.JobsSubmitted, m.JobsFailed)
	}
}

// A submission body is one spec object followed by nothing but whitespace.
// An unknown field, a second object or trailing garbage is a 400 bad job
// spec that reaches no admission tier.
func TestSubmitRejectsMalformedSpecs(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	for _, body := range []string{
		`{"benchmark":"PAYMENT","bogus":1}`,
		`{"benchmark":"PAYMENT"}{"benchmark":"NEW ORDER"}`,
		`{"benchmark":"PAYMENT"} garbage`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		reply, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "bad job spec") {
			t.Errorf("%s: HTTP %d %s, want 400 bad job spec", body, resp.StatusCode, reply)
		}
	}
	if n := s.MetricsSnapshot().JobsSubmitted; n != 0 {
		t.Errorf("%d malformed bodies reached admission, want 0", n)
	}
	if spec, err := DecodeSpec(strings.NewReader("{\"benchmark\":\"PAYMENT\"}\n\t ")); err != nil || spec.Benchmark != "PAYMENT" {
		t.Errorf("trailing whitespace: DecodeSpec = %+v, %v; want PAYMENT", spec, err)
	}
}
