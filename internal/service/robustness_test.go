package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// holdWorkers installs the running-hook so every worker parks until release
// is closed, and returns (started, release). started receives one signal per
// job that reaches StateRunning.
func holdWorkers(t *testing.T) (started chan string, release chan struct{}) {
	t.Helper()
	started = make(chan string, 16)
	release = make(chan struct{})
	hook := func(j *Job) {
		started <- j.ID()
		<-release
	}
	testHookRunning.Store(&hook)
	t.Cleanup(func() {
		testHookRunning.Store(nil)
		select {
		case <-release:
		default:
			close(release)
		}
	})
	return started, release
}

// failingSpec deterministically fails: a 10-cycle budget cannot complete any
// transaction, so the run ends in a structured "max-cycles" error.
func failingSpec() JobSpec {
	warmup := 0
	return JobSpec{Benchmark: "NEW ORDER", Txns: 1, Warmup: &warmup, MaxCycles: 10}
}

// A job with a tiny end-to-end deadline must fail with kind "timeout" and
// release its worker, queue slot, and digest claim — not hang, not report a
// generic error.
func TestJobTimeoutProducesStructuredFailure(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	started, release := holdWorkers(t)

	spec := tinySpec("NEW ORDER")
	spec.TimeoutMS = 30
	resp := postJob(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	<-started // the worker holds the job past its deadline

	// The deadline fires while the job is held; once released, the worker
	// must notice before (or instead of) simulating and fail it promptly.
	time.Sleep(50 * time.Millisecond)
	close(release)
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed || final.Failure == nil {
		t.Fatalf("state = %s, failure = %+v; want failed with a failure", final.State, final.Failure)
	}
	if final.Failure.Kind != "timeout" {
		t.Errorf("failure kind = %q, want timeout", final.Failure.Kind)
	}
	if final.Failure.Repro == "" {
		t.Errorf("timeout failure carries no repro command")
	}

	// The digest is free again: a resubmission without the deadline runs
	// fresh rather than attaching to the corpse.
	testHookRunning.Store(nil)
	spec2 := tinySpec("NEW ORDER")
	resp2 := postJob(t, ts, spec2)
	st2 := decodeStatus(t, resp2.Body)
	resp2.Body.Close()
	if st2.ID == st.ID {
		t.Fatalf("resubmission attached to the timed-out job %s", st.ID)
	}
	if got := waitDone(t, ts, st2.ID); got.State != StateDone {
		t.Fatalf("resubmitted job state = %s, want done", got.State)
	}

	m := s.MetricsSnapshot()
	if m.JobsTimedOut == 0 {
		t.Errorf("JobsTimedOut = 0 after a timeout failure")
	}
}

// DELETE /v1/jobs/{id} on a running job aborts it within the cancellation
// poll and reports kind "cancelled"; a second DELETE is a 409.
func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	started, release := holdWorkers(t)

	resp := postJob(t, ts, tinySpec("NEW ORDER"))
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %d, want 202", dresp.StatusCode)
	}

	close(release)
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed || final.Failure == nil || final.Failure.Kind != "cancelled" {
		t.Fatalf("after DELETE: state=%s failure=%+v; want failed/cancelled", final.State, final.Failure)
	}

	// Cancelling a terminal job is a conflict, not a second cancellation.
	dresp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatalf("second DELETE: %v", err)
	}
	dresp2.Body.Close()
	if dresp2.StatusCode != http.StatusConflict {
		t.Errorf("DELETE on terminal job = %d, want 409", dresp2.StatusCode)
	}
	if m := s.MetricsSnapshot(); m.JobsCancelled == 0 {
		t.Errorf("JobsCancelled = 0 after an explicit cancel")
	}
}

// Cancelling a job that is still queued must finish it without a worker ever
// touching it, and must not leak its queue slot.
func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	started, release := holdWorkers(t)

	// Occupy the only worker, then queue a second, distinct job.
	resp := postJob(t, ts, tinySpec("NEW ORDER"))
	holder := decodeStatus(t, resp.Body)
	resp.Body.Close()
	<-started

	queuedSpec := tinySpec("PAYMENT")
	resp2 := postJob(t, ts, queuedSpec)
	queued := decodeStatus(t, resp2.Body)
	resp2.Body.Close()
	if queued.State != StateQueued {
		t.Fatalf("second job state = %s, want queued", queued.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE queued: %v", err)
	}
	dresp.Body.Close()

	// The cancellation lands without the worker's help — it is still held.
	final := waitDone(t, ts, queued.ID)
	if final.State != StateFailed || final.Failure == nil || final.Failure.Kind != "cancelled" {
		t.Fatalf("queued cancel: state=%s failure=%+v", final.State, final.Failure)
	}

	close(release)
	if got := waitDone(t, ts, holder.ID); got.State != StateDone {
		t.Fatalf("held job state = %s, want done", got.State)
	}

	// The cancelled job's slot is free: the queue accepts new work again.
	testHookRunning.Store(nil)
	resp3 := postJob(t, ts, tinySpec("PAYMENT"))
	st3 := decodeStatus(t, resp3.Body)
	resp3.Body.Close()
	if got := waitDone(t, ts, st3.ID); got.State != StateDone {
		t.Fatalf("post-cancel resubmission state = %s, want done", got.State)
	}
}

// A ?wait=1 submitter that disconnects while it is the only audience cancels
// the job; an async (detached) submission survives its submitter.
func TestWaiterDisconnectCancelsUnwatchedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	started, release := holdWorkers(t)

	spec := tinySpec("NEW ORDER")
	b, _ := json.Marshal(spec)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/jobs?wait=1", bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	id := <-started // the job is running, held by the hook
	cancel()        // the only watcher walks away
	if err := <-errCh; err == nil {
		t.Fatalf("expected the aborted wait request to error")
	}
	close(release)

	final := waitDone(t, ts, id)
	if final.State != StateFailed || final.Failure == nil || final.Failure.Kind != "cancelled" {
		t.Fatalf("abandoned job: state=%s failure=%+v; want failed/cancelled", final.State, final.Failure)
	}
}

// ?wait=1 blocks to the terminal state: 200 with the result body on success,
// 410 with the structured failure on a failed run.
func TestWaitServesTerminalState(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})

	spec := tinySpec("NEW ORDER")
	b, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST wait=1: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=1 success status = %d, want 200", resp.StatusCode)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	if want := renderExpected(t, spec); !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("wait=1 body differs from tlssim rendering (%d vs %d bytes)", got.Len(), len(want))
	}

	fb, _ := json.Marshal(failingSpec())
	fresp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(fb))
	if err != nil {
		t.Fatalf("POST failing wait=1: %v", err)
	}
	defer fresp.Body.Close()
	if fresp.StatusCode != http.StatusGone {
		t.Fatalf("wait=1 failure status = %d, want 410", fresp.StatusCode)
	}
	st := decodeStatus(t, fresp.Body)
	if st.Failure == nil || st.Failure.Kind != "max-cycles" {
		t.Fatalf("wait=1 failure = %+v, want kind max-cycles", st.Failure)
	}
}

// Repeated deterministic failures quarantine the digest: the submission
// after the threshold's worth of failures is rejected 422 with a
// Retry-After, without burning a worker.
func TestPoisonQuarantine(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	spec := failingSpec()
	for i := 0; i < poisonThreshold; i++ {
		resp := postJob(t, ts, spec)
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		final := waitDone(t, ts, st.ID)
		if final.State != StateFailed || final.Failure.Kind != "max-cycles" {
			t.Fatalf("run %d: state=%s failure=%+v", i, final.State, final.Failure)
		}
	}

	resp := postJob(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("poisoned submission status = %d, want 422", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("poisoned rejection has no Retry-After")
	}
	m := s.MetricsSnapshot()
	if m.JobsRejectedPoisoned != 1 || m.PoisonedDigests != 1 {
		t.Errorf("poison metrics = rejected %d / quarantined %d, want 1 / 1",
			m.JobsRejectedPoisoned, m.PoisonedDigests)
	}

	// A healthy digest is unaffected.
	okResp := postJob(t, ts, tinySpec("NEW ORDER"))
	st := decodeStatus(t, okResp.Body)
	okResp.Body.Close()
	if got := waitDone(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("healthy digest state = %s, want done", got.State)
	}
}

func TestTimeoutFailuresNeverPoison(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Shutdown(context.Background())
	now := time.Now()
	s.mu.Lock()
	for _, kind := range []string{"timeout", "cancelled", "drain", "chaos"} {
		if deterministicFailure(kind) {
			t.Errorf("%s counted as deterministic", kind)
		}
		// A threshold's worth of any one of these kinds must not quarantine
		// the digest; the runJob path gates on deterministicFailure before
		// notePoisonLocked.
		for i := 0; i < poisonThreshold; i++ {
			if deterministicFailure(kind) {
				s.notePoisonLocked("d", &Failure{Kind: kind}, now)
			}
		}
	}
	if pe := s.poisonedLocked("d", now); pe != nil {
		t.Errorf("non-deterministic kinds quarantined the digest: %v", pe)
	}
	s.mu.Unlock()
}

// Deadline-aware admission: once the server has observed service latencies,
// a deadline smaller than the provable backlog wait is rejected up front
// with a computed Retry-After; generous deadlines still pass.
func TestDeadlineAwareAdmission(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8})

	// Teach the estimator an implausibly slow pipeline: 2s per job.
	s.mu.Lock()
	s.stageMicros[stageBuild].Observe(500_000)
	s.stageMicros[stageSim].Observe(1_000_000)
	s.stageMicros[stageRender].Observe(500_000)
	s.inFlight = 1 // a fake straggler ahead of the new submission
	s.mu.Unlock()

	spec := tinySpec("NEW ORDER")
	spec.TimeoutMS = 100 // < 1 backlog slot x 2s mean service
	resp := postJob(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("unmeetable deadline status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Errorf("unmeetable-deadline rejection has no Retry-After")
	}
	if m := s.MetricsSnapshot(); m.JobsRejectedDeadline != 1 {
		t.Errorf("JobsRejectedDeadline = %d, want 1", m.JobsRejectedDeadline)
	}

	s.mu.Lock()
	s.inFlight = 0
	s.mu.Unlock()
	spec.TimeoutMS = 60_000
	resp2 := postJob(t, ts, spec)
	st := decodeStatus(t, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("feasible deadline status = %d, want 202", resp2.StatusCode)
	}
	if got := waitDone(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("feasible-deadline job state = %s, want done", got.State)
	}
}

func TestJobTimeoutResolution(t *testing.T) {
	s := New(Options{Workers: 1, JobTimeout: time.Second})
	defer s.Shutdown(context.Background())
	for _, c := range []struct {
		ms   uint64
		want time.Duration
	}{
		{0, time.Second},              // inherit the server default
		{1, minJobTimeout},            // floored
		{100, 100 * time.Millisecond}, // honored
		{5_000, time.Second},          // ceilinged by -job-timeout
	} {
		if got := s.jobTimeout(JobSpec{TimeoutMS: c.ms}); got != c.want {
			t.Errorf("jobTimeout(%dms) = %v, want %v", c.ms, got, c.want)
		}
	}

	unlimited := New(Options{Workers: 1})
	defer unlimited.Shutdown(context.Background())
	if got := unlimited.jobTimeout(JobSpec{}); got != 0 {
		t.Errorf("no-default jobTimeout = %v, want 0 (no deadline)", got)
	}
	if got := unlimited.jobTimeout(JobSpec{TimeoutMS: 50}); got != 50*time.Millisecond {
		t.Errorf("spec timeout without ceiling = %v, want 50ms", got)
	}
}

// timeout_ms is a serving parameter: it must not move the content digest, or
// the cache would fragment by deadline.
func TestTimeoutExcludedFromDigest(t *testing.T) {
	a, err := tinySpec("NEW ORDER").Resolve()
	if err != nil {
		t.Fatal(err)
	}
	withTimeout := tinySpec("NEW ORDER")
	withTimeout.TimeoutMS = 1234
	b, err := withTimeout.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Errorf("timeout_ms changed the digest: %s vs %s", a.Digest, b.Digest)
	}
}

// The breaker state machine: threshold consecutive failures open it, the
// cooldown admits one half-open probe, and the probe's outcome decides.
func TestBreakerLifecycle(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(3, 10*time.Second, 250*time.Millisecond)
	b.now = func() time.Time { return clock }
	var transitions []string
	b.OnChange(func(from, to string) { transitions = append(transitions, from+">"+to) })

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker denied op %d", i)
		}
		b.Observe("load", time.Millisecond, true)
	}
	if st := b.Stats(); st.State != breakerOpen || st.Opens != 1 {
		t.Fatalf("after 3 failures: %+v, want open/1", st)
	}
	if b.Allow() {
		t.Fatalf("open breaker allowed an op inside the cooldown")
	}

	// A slow success is a failure too: it must not be able to close a
	// half-open probe later, and while closed it counts toward the trip.
	clock = clock.Add(11 * time.Second)
	if !b.Allow() { // half-open probe slot
		t.Fatalf("breaker denied the half-open probe after cooldown")
	}
	if b.Allow() { // second op during the probe short-circuits
		t.Fatalf("half-open breaker allowed a second concurrent op")
	}
	b.Observe("load", 300*time.Millisecond, false) // slow success = failure
	if st := b.Stats(); st.State != breakerOpen || st.Opens != 2 {
		t.Fatalf("slow probe should re-open: %+v", st)
	}

	clock = clock.Add(11 * time.Second)
	if !b.Allow() {
		t.Fatalf("breaker denied the second probe")
	}
	b.Observe("load", time.Millisecond, false)
	if st := b.Stats(); st.State != breakerClosed {
		t.Fatalf("clean probe should close: %+v", st)
	}
	if st := b.Stats(); st.ShortCircuits == 0 {
		t.Errorf("short circuits were not counted")
	}
	want := "closed>open,open>half-open,half-open>open,open>half-open,half-open>closed"
	if got := strings.Join(transitions, ","); got != want {
		t.Errorf("transitions = %s, want %s", got, want)
	}

	var nilB *Breaker
	if !nilB.Allow() {
		t.Errorf("nil breaker must always allow")
	}
	nilB.Observe("load", 0, true) // must not panic
	if st := nilB.Stats(); st.State != breakerClosed {
		t.Errorf("nil breaker stats = %+v", st)
	}
}

// Shutdown past its grace cancels stragglers with structured "drain"
// failures instead of hanging, and reports ErrDrainTimeout.
func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	ts := newHTTPServer(t, s)
	started, release := holdWorkers(t)

	resp := postJob(t, ts, tinySpec("NEW ORDER"))
	running := decodeStatus(t, resp.Body)
	resp.Body.Close()
	<-started
	resp2 := postJob(t, ts, tinySpec("PAYMENT"))
	queued := decodeStatus(t, resp2.Body)
	resp2.Body.Close()

	// Let the held worker proceed only after the drain deadline has fired;
	// the job it holds must then die on the drain cancellation, not finish.
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if !errors.Is(err, ErrDrainTimeout) {
		t.Fatalf("Shutdown = %v, want ErrDrainTimeout", err)
	}

	for _, id := range []string{running.ID, queued.ID} {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		st := j.StatusAt(time.Now())
		if st.State != StateFailed || st.Failure == nil || st.Failure.Kind != "drain" {
			t.Errorf("straggler %s: state=%s failure=%+v; want failed/drain", id, st.State, st.Failure)
		}
	}
	if m := s.MetricsSnapshot(); m.JobsCancelled != 2 {
		t.Errorf("JobsCancelled = %d, want 2", m.JobsCancelled)
	}
}

// newHTTPServer wraps a caller-owned Server (whose Shutdown the test drives
// itself) in an httptest server.
func newHTTPServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// newStubServer is a bare HTTP backend for client tests.
func newStubServer(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// The retrying client: retryable statuses are retried with the server's
// Retry-After honored, permanent ones are not, and the budget is bounded.
func TestClientRetriesRetryableStatuses(t *testing.T) {
	var calls atomic.Int64
	backend := newStubServer(t, func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.Write([]byte(`{"ok":true}`))
		}
	})
	c := &Client{Base: backend.URL, Retries: 4, BaseDelay: time.Millisecond, Seed: 7}
	body, err := c.Run(context.Background(), tinySpec("NEW ORDER"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(body) != `{"ok":true}` || calls.Load() != 3 {
		t.Fatalf("body=%q calls=%d, want success on the 3rd attempt", body, calls.Load())
	}
}

func TestClientStopsOnPermanentFailure(t *testing.T) {
	var calls atomic.Int64
	backend := newStubServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		WriteError(w, http.StatusUnprocessableEntity, "quarantined")
	})
	c := &Client{Base: backend.URL, Retries: 4, BaseDelay: time.Millisecond}
	_, err := c.Run(context.Background(), tinySpec("NEW ORDER"))
	var perm *PermanentError
	if !errors.As(err, &perm) || perm.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want PermanentError(422)", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (no retries on a permanent failure)", calls.Load())
	}
	if !strings.Contains(perm.Msg, "quarantined") {
		t.Errorf("permanent error lost the server message: %q", perm.Msg)
	}
}

func TestClientExhaustsBudget(t *testing.T) {
	var calls atomic.Int64
	backend := newStubServer(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	c := &Client{Base: backend.URL, Retries: 2, BaseDelay: time.Millisecond}
	if _, err := c.Run(context.Background(), tinySpec("NEW ORDER")); err == nil {
		t.Fatalf("Run succeeded against a permanently unavailable server")
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3 (1 attempt + 2 retries)", calls.Load())
	}
}
