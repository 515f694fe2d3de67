package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"subthreads/internal/chaos"
	"subthreads/internal/telemetry"
)

// chaosOptions is an aggressive, fully deterministic fault schedule: every
// 3rd disk read errors, every 4th disk op stalls 5ms, every 3rd write is
// torn, every 6th job execution panics its worker.
func chaosConfig() chaos.Config {
	return chaos.Config{Seed: 1, DiskErrEvery: 3, SlowEvery: 4, SlowMS: 5, TornEvery: 3, PanicEvery: 6}
}

// The chaos acceptance test: under injected disk errors, latency spikes,
// torn writes, and worker panics, every result the daemon eventually serves
// is byte-identical to the tlssim rendering, and no request hangs — the
// retrying client either gets the right bytes or a classified error within
// its budget.
func TestChaosResultsStayByteIdentical(t *testing.T) {
	ch := chaos.New(chaosConfig())
	s, ts := newTestServer(t, Options{
		Workers:    2,
		QueueDepth: 16,
		Store:      openTestStore(t, t.TempDir()),
		Chaos:      ch,
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

	// Concurrent retrying clients: each spec is submitted repeatedly (the
	// repeats exercise the cache tiers under fault injection too).
	const rounds = 3
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
		t.Errorf("client run failed under chaos: %v", err)
	}

	// The schedule must actually have fired — a chaos test that injected
	// nothing proves nothing.
	cs := ch.Stats()
	if cs.DiskErrs == 0 && cs.TornWrite == 0 && cs.DiskSlows == 0 {
		t.Errorf("no disk faults delivered: %+v (schedule too sparse for this run)", cs)
	}
	m := s.MetricsSnapshot()
	if m.Chaos == nil {
		t.Fatalf("metrics omit the chaos block while chaos is armed")
	}
	if m.JobsCompleted == 0 {
		t.Errorf("no jobs completed under chaos")
	}
}

// The same fault schedule twice delivers the same faults: the schedule is a
// pure function of the seed and the draw sequence, which is what makes a
// chaos failure reproducible.
func TestChaosScheduleIsDeterministic(t *testing.T) {
	run := func() chaos.Stats {
		ch := chaos.New(chaosConfig())
		_, ts := newTestServer(t, Options{
			Workers: 1, QueueDepth: 8,
			Store: openTestStore(t, t.TempDir()),
			Chaos: ch,
		})
		c := &Client{Base: ts.URL, Retries: 10, BaseDelay: time.Millisecond, Seed: 1}
		for _, bench := range []string{"NEW ORDER", "PAYMENT"} {
			if _, err := c.Run(context.Background(), tinySpec(bench)); err != nil {
				t.Fatalf("%s under chaos: %v", bench, err)
			}
		}
		return ch.Stats()
	}
	// One worker and a sequential client keep the draw order identical, so
	// the delivered-fault counters must match exactly.
	if a, b := run(), run(); a != b {
		t.Errorf("two identical chaos runs diverged: %+v vs %+v", a, b)
	}
}

// An injected worker panic fails its job with kind "chaos", not an organic
// "panic", and never feeds the poison quarantine: a retry would run, so a
// digest the schedule keeps panicking is still admitted past the quarantine
// threshold.
func TestChaosPanicsNeverPoison(t *testing.T) {
	ch := chaos.New(chaos.Config{Seed: 1, PanicEvery: 1})
	s, ts := newTestServer(t, Options{Workers: 1, Chaos: ch})
	spec := tinySpec("PAYMENT")
	for i := 0; i <= poisonThreshold; i++ {
		resp := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("submission %d after %d injected panics: status %d, want %d: %s",
				i+1, i, resp.StatusCode, http.StatusAccepted, body)
		}
		st := decodeStatus(t, resp.Body)
		resp.Body.Close()
		final := waitDone(t, ts, st.ID)
		if final.State != StateFailed || final.Failure == nil || final.Failure.Kind != "chaos" {
			t.Fatalf("submission %d: state %s, failure %+v; want failed with kind chaos", i+1, final.State, final.Failure)
		}
	}
	m := s.MetricsSnapshot()
	if m.PoisonedDigests != 0 || m.JobsRejectedPoisoned != 0 || m.JobsFailed != poisonThreshold+1 {
		t.Errorf("poisoned %d, rejected %d, failed %d; want 0, 0, %d",
			m.PoisonedDigests, m.JobsRejectedPoisoned, m.JobsFailed, poisonThreshold+1)
	}
	if got := ch.Stats().Panics; got != poisonThreshold+1 {
		t.Errorf("%d panics injected, want %d", got, poisonThreshold+1)
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
	ch := chaos.New(chaos.Config{Seed: 1, DiskErrEvery: 1})
	s, ts := newTestServer(t, Options{
		Workers: 1, QueueDepth: 8,
		Store: openTestStore(t, t.TempDir()),
		Chaos: ch,
	})
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
		faults := ch.Stats().DiskErrs
		if i == 0 {
			if b := s.MetricsSnapshot().Breaker; b == nil || b.State != "open" {
				t.Fatalf("breaker = %+v after the first job, want open", b)
			}
			tripped = faults
		} else if faults != tripped {
			t.Errorf("job %d: %d disk faults delivered in all, want %d: a disk operation ran past the open breaker", i, faults, tripped)
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

// A Prometheus scrape of a chaos-and-breaker-armed daemon stays lintable:
// the degraded-mode families obey the same exposition rules as the rest.
func TestChaosAndBreakerPromFamiliesLint(t *testing.T) {
	ch := chaos.New(chaosConfig())
	s, _ := newTestServer(t, Options{
		Workers: 1, QueueDepth: 4,
		Store: openTestStore(t, t.TempDir()),
		Chaos: ch,
	})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("scrape status = %d", rec.Code)
	}
	if err := telemetry.LintProm(rec.Body.Bytes()); err != nil {
		t.Errorf("chaos/breaker scrape fails lint: %v", err)
	}
	body := rec.Body.String()
	for _, family := range []string{
		"tlsd_cas_breaker_state", "tlsd_cas_breaker_opens_total",
		"tlsd_cas_breaker_short_circuits_total", "tlsd_chaos_faults_total",
		"tlsd_jobs_timeout_total", "tlsd_jobs_cancelled_total",
		"tlsd_jobs_rejected_poisoned_total", "tlsd_jobs_rejected_deadline_total",
		"tlsd_poisoned_digests",
	} {
		if !bytes.Contains([]byte(body), []byte(family)) {
			t.Errorf("scrape is missing %s", family)
		}
	}
}
