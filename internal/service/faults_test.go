package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subthreads/internal/cas"
	"subthreads/internal/telemetry"
)

// diskFaults is a test-local cas.FaultInjector, installed with the store's
// SetFaults: the one way a test injects disk faults. fault picks the fault
// of the n-th load or the n-th store (each counted from 1), and every fault
// delivered is counted by kind.
type diskFaults struct {
	fault func(op string, n uint64) cas.DiskFault

	loads, stores     atomic.Uint64
	errs, slows, torn atomic.Uint64
}

func (f *diskFaults) Disk(op string) (cas.DiskFault, bool) {
	n := &f.loads
	if op == "store" {
		n = &f.stores
	}
	d := f.fault(op, n.Add(1))
	if d.Err != nil {
		f.errs.Add(1)
	}
	if d.Delay > 0 {
		f.slows.Add(1)
	}
	if d.TornBytes > 0 {
		f.torn.Add(1)
	}
	return d, d.Err != nil || d.Delay > 0 || d.TornBytes > 0
}

var errInjected = errors.New("injected disk fault")

// Under injected disk errors, latency spikes, torn writes, and worker
// panics, every result the daemon eventually serves is byte-identical to the
// tlssim rendering, and no request hangs — the retrying client either gets
// the right bytes or a classified error within its budget. A restarted
// daemon over the same directory quarantines the torn frames and rebuilds
// their results, still serving the same bytes.
func TestChaosResultsStayByteIdentical(t *testing.T) {
	// Every 3rd load and every 3rd store (from the 2nd) fail, every 3rd
	// store from the 1st is torn after the header and a few payload bytes,
	// and every 4th of each stalls 5 ms.
	faults := &diskFaults{fault: func(op string, n uint64) cas.DiskFault {
		var d cas.DiskFault
		if n%4 == 0 {
			d.Delay = 5 * time.Millisecond
		}
		switch {
		case op == "load" && n%3 == 0, op == "store" && n%3 == 2:
			d.Err = errInjected
		case op == "store" && n%3 == 1:
			d.TornBytes = 30
		}
		return d
	}}
	dir := t.TempDir()
	store := openTestStore(t, dir)
	store.SetFaults(faults)
	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 16, Store: store})

	// The first poisonThreshold-1 executions of each digest panic their
	// worker, as an organic bug would: enough to fail every spec's first
	// attempts, too few to quarantine a digest.
	var mu sync.Mutex
	runs := map[string]int{}
	setRunningHook(t, func(j *Job) {
		mu.Lock()
		runs[j.res.Digest]++
		n := runs[j.res.Digest]
		mu.Unlock()
		if n < poisonThreshold {
			panic("injected worker panic")
		}
	})

	specs := []JobSpec{
		tinySpec("NEW ORDER"),
		tinySpec("PAYMENT"),
		tinySpec("DELIVERY"),
		tinySpec("ORDER STATUS"),
		tinySpec("STOCK LEVEL"),
	}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		want[i] = renderExpected(t, spec)
	}
	run := func(ts *httptest.Server, rounds int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, len(specs)*rounds)
		for i, spec := range specs {
			for r := 0; r < rounds; r++ {
				wg.Add(1)
				go func(i int, spec JobSpec) {
					defer wg.Done()
					c := &Client{Base: ts.URL, Retries: 10, BaseDelay: time.Millisecond, Seed: uint64(i + 1)}
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
					defer cancel()
					body, err := c.Run(ctx, spec)
					if err != nil {
						errs <- err
						return
					}
					if !bytes.Equal(body, want[i]) {
						t.Errorf("spec %d: served %d bytes differ from tlssim rendering (%d bytes)",
							i, len(body), len(want[i]))
					}
				}(i, spec)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("client run failed under injected faults: %v", err)
		}
	}

	// Concurrent retrying clients: each spec is submitted repeatedly (the
	// repeats exercise the cache tiers under fault injection too).
	run(ts, 3)

	// The stub must actually have fired — a fault test that injected
	// nothing proves nothing.
	if faults.errs.Load() == 0 || faults.slows.Load() == 0 || faults.torn.Load() == 0 {
		t.Errorf("disk faults delivered: %d errors, %d stalls, %d torn writes; want each above 0",
			faults.errs.Load(), faults.slows.Load(), faults.torn.Load())
	}
	m := s.MetricsSnapshot()
	if want := uint64(len(specs) * (poisonThreshold - 1)); m.JobsFailed != want {
		t.Errorf("%d jobs failed, want %d worker panics", m.JobsFailed, want)
	}
	if m.JobsCompleted != uint64(len(specs)) || m.PoisonedDigests != 0 || m.JobsRejectedPoisoned != 0 {
		t.Errorf("completed %d, poisoned %d, rejected %d; want %d, 0, 0",
			m.JobsCompleted, m.PoisonedDigests, m.JobsRejectedPoisoned, len(specs))
	}

	// Restart over the same directory with a healthy disk and worker: each
	// torn frame fails its checks on the first read and is quarantined, and
	// its result is rebuilt.
	drain(t, s)
	testHookRunning.Store(nil)
	s2, ts2 := newTestServer(t, Options{Workers: 2, QueueDepth: 16, Store: openTestStore(t, dir)})
	run(ts2, 1)
	drain(t, s2)
	m2 := s2.MetricsSnapshot()
	if m2.CAS.Corrupt == 0 || m2.JobsCompleted < m2.CAS.Corrupt {
		t.Errorf("restart quarantined %d torn frames and rebuilt %d results; want at least one, each rebuilt",
			m2.CAS.Corrupt, m2.JobsCompleted)
	}
}

// An organic worker panic — the running hook panics inside execute's
// recover, where a bug in the pipeline would — fails its job as kind
// "panic" with a repro command, and the daemon keeps serving. Repeated
// panics on one digest feed the poison quarantine: after poisonThreshold of
// them the digest's next submission is a 422.
func TestWorkerPanicFailsJobAndQuarantines(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	bad := tinySpec("PAYMENT")
	r, err := bad.Resolve()
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	setRunningHook(t, func(j *Job) {
		if j.res.Digest == r.Digest {
			panic("worker bug")
		}
	})

	for i := 0; i < poisonThreshold; i++ {
		resp := postJob(t, ts, bad)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d, want %d", i+1, resp.StatusCode, http.StatusAccepted)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		f := waitDone(t, ts, st.ID).Failure
		if f == nil || f.Kind != "panic" || !strings.Contains(f.Error, "worker bug") || f.Repro != r.ReproCommand() {
			t.Fatalf("submission %d: failure %+v; want kind panic with the panic value and repro %q", i+1, f, r.ReproCommand())
		}
		if i == 0 {
			// The one worker survived its panic: the next job runs.
			next := tinySpec("NEW ORDER")
			resp := postJob(t, ts, next)
			st := decodeStatus(t, resp.Body)
			resp.Body.Close()
			if got := waitDone(t, ts, st.ID); got.State != StateDone {
				t.Fatalf("job after a worker panic: state %s, failure %+v; want done", got.State, got.Failure)
			}
			if _, body := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); !bytes.Equal(body, renderExpected(t, next)) {
				t.Errorf("job after a worker panic: body differs from tlssim rendering")
			}
		}
	}

	resp := postJob(t, ts, bad)
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("submission after %d panics: HTTP %d %s, want 422", poisonThreshold, resp.StatusCode, reply)
	}
	m := s.MetricsSnapshot()
	if m.JobsFailed != poisonThreshold || m.PoisonedDigests != 1 || m.JobsRejectedPoisoned != 1 {
		t.Errorf("failed %d, poisoned %d, rejected %d; want %d, 1, 1",
			m.JobsFailed, m.PoisonedDigests, m.JobsRejectedPoisoned, poisonThreshold)
	}
}

// A disk that fails every operation trips the breaker on the first job's
// admission Get: the test sets the breaker's threshold to one failure, since
// a job's only other disk operation, its result Put, runs after the job is
// marked done and so could land before or after the check below. The
// daemon keeps serving (memory + rebuild) and the degradation is visible in
// both metric representations. While the breaker is open no result is read
// or written, so the jobs after the trip deliver no further disk faults.
func TestBreakerOpensUnderDiskFaultsAndServes(t *testing.T) {
	faults := &diskFaults{fault: func(string, uint64) cas.DiskFault {
		return cas.DiskFault{Err: errInjected}
	}}
	store := openTestStore(t, t.TempDir())
	store.SetFaults(faults)
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 8, Store: store})
	s.breaker.mu.Lock()
	s.breaker.threshold = 1
	s.breaker.cooldown = time.Hour // stay open for the test's lifetime
	s.breaker.mu.Unlock()

	c := &Client{Base: ts.URL, Retries: 10, BaseDelay: time.Millisecond, Seed: 1}
	var tripped uint64 // disk faults delivered up to the end of the first job
	for i, bench := range []string{"NEW ORDER", "PAYMENT", "DELIVERY", "ORDER STATUS"} {
		body, err := c.Run(context.Background(), tinySpec(bench))
		if err != nil {
			t.Fatalf("job %d under total disk failure: %v", i, err)
		}
		if want := renderExpected(t, tinySpec(bench)); !bytes.Equal(body, want) {
			t.Errorf("job %d: degraded-mode body differs from tlssim rendering", i)
		}
		delivered := faults.errs.Load()
		if i == 0 {
			if b := s.MetricsSnapshot().Breaker; b == nil || b.State != "open" {
				t.Fatalf("breaker = %+v after the first job, want open", b)
			}
			tripped = delivered
		} else if delivered != tripped {
			t.Errorf("job %d: %d disk faults delivered in all, want %d: a disk operation ran past the open breaker", i, delivered, tripped)
		}
	}

	m := s.MetricsSnapshot()
	if m.Breaker == nil || m.Breaker.State != "open" {
		t.Fatalf("breaker = %+v, want open under total disk failure", m.Breaker)
	}
	if m.Breaker.ShortCircuits == 0 {
		t.Errorf("open breaker short-circuited nothing")
	}
	if m.JobsCompleted == 0 {
		t.Errorf("no jobs completed while degraded")
	}
}

// A Prometheus scrape of a daemon with a store, and so a disk breaker,
// stays lintable: the degraded-mode families obey the same exposition rules
// as the rest.
func TestChaosAndBreakerPromFamiliesLint(t *testing.T) {
	s, _ := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4,
		Store: openTestStore(t, t.TempDir()),
	})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape status = %d", rec.Code)
	}
	if err := telemetry.LintProm(rec.Body.Bytes()); err != nil {
		t.Errorf("breaker scrape fails lint: %v", err)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"tlsd_cas_breaker_state", "tlsd_cas_breaker_opens_total",
		"tlsd_cas_breaker_short_circuits_total",
		"tlsd_jobs_timeout_total", "tlsd_jobs_cancelled_total",
		"tlsd_jobs_rejected_poisoned_total", "tlsd_jobs_rejected_deadline_total",
		"tlsd_poisoned_digests",
	} {
		if !bytes.Contains([]byte(body), []byte(family)) {
			t.Errorf("scrape is missing %s", family)
		}
	}
}
