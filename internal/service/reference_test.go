package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

// Every served speedup divides by the SEQUENTIAL cycle count of the job's
// workload. tlsd simulates that reference once per SEQUENTIAL program in
// each life of the daemon and then reads it from memory. These tests pin
// the tier's counts and that every document it serves is the one `tlssim
// -json` prints.

// runDone submits spec, requires it to complete and returns its body.
func runDone(t *testing.T, ts *httptest.Server, spec JobSpec) []byte {
	t.Helper()
	resp := postJob(t, ts, spec)
	st := decodeStatus(t, resp.Body)
	resp.Body.Close()
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("%s job state = %s, failure %+v", spec.Benchmark, final.State, final.Failure)
	}
	_, body := getBody(t, ts.URL+final.ResultURL)
	return body
}

// requireExpected fails unless body is the tlssim -json rendering of spec.
func requireExpected(t *testing.T, spec JobSpec, body []byte) {
	t.Helper()
	if !bytes.Equal(body, renderExpected(t, spec)) {
		js, _ := json.Marshal(spec)
		t.Errorf("%s: served body differs from tlssim -json", js)
	}
}

// tierCounts is b without its residency (resident bytes and evictions),
// which the bounded-tier tests pin: what is left is where each lookup was
// served from.
func tierCounts(b workload.BuildStats) workload.BuildStats {
	b.ResidentBytes, b.Evictions = 0, 0
	return b
}

// TestResultReadsOnlyReferenceCycles: the result document reads nothing of
// the SEQUENTIAL reference but its cycle count, which is all the reference
// tier keeps. If report.BuildRun ever reads more of it, this fails instead
// of tlsd serving wrong bytes from the tier.
func TestResultReadsOnlyReferenceCycles(t *testing.T) {
	b := workload.NewBuilder()
	for _, bench := range tpcc.All() {
		r, err := tinySpec(bench.String()).Resolve()
		if err != nil {
			t.Fatalf("Resolve: %v", err)
		}
		res, built := b.Run(r.Spec, r.Exp)
		seq, _ := b.Run(r.Spec, workload.Sequential)
		full := renderRun(t, r, built, res, seq)
		if cycles := renderRun(t, r, built, res, &sim.Result{Cycles: seq.Cycles}); !bytes.Equal(full, cycles) {
			t.Errorf("%v: the document differs when the reference carries only its cycles", bench)
		}
	}
}

// Jobs of one SEQUENTIAL program run its reference once and read it from
// memory after that. A variant of a seen workload (another sub-thread
// spacing) runs no SEQUENTIAL build or simulation, and DELIVERY, DELIVERY
// OUTER and an opt-0 DELIVERY, which record one SEQUENTIAL program, share
// one reference. A novel job records its TLS program and its one-use
// SEQUENTIAL program from one load and its clone, and only the TLS program
// stays in memory: a DELIVERY job's TLS program, about 13 MB of the 16 MiB
// budget, is still there for the spacing variant submitted right after it.
func TestReferenceFromMemory(t *testing.T) {
	variant := tinySpec("NEW ORDER")
	variant.Spacing = 2500
	delivery := tinySpec("DELIVERY")
	delivery.Spacing = 2500
	opt0 := tinySpec("DELIVERY")
	opt0.Opt = ptr(0)
	for _, tc := range []struct {
		name  string
		specs []JobSpec
		want  workload.BuildStats
	}{
		// The TLS and SEQUENTIAL programs are the first job's builds, from
		// one load; the variant's one program lookup is its TLS program,
		// from memory.
		{"variant", []JobSpec{tinySpec("NEW ORDER"), variant},
			workload.BuildStats{Builds: 2, Loads: 1, Clones: 1, MemoryHits: 1, ReferenceRuns: 1, ReferenceMemoryHits: 1}},
		// Three TLS programs, each from a load of its own but the first,
		// which shares its load with the one SEQUENTIAL program; the
		// DELIVERY variant's TLS program is a memory hit.
		{"delivery", []JobSpec{tinySpec("DELIVERY"), delivery, tinySpec("DELIVERY OUTER"), opt0},
			workload.BuildStats{Builds: 4, Loads: 3, Clones: 1, MemoryHits: 1, ReferenceRuns: 1, ReferenceMemoryHits: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Options{Workers: 1})
			for _, spec := range tc.specs {
				requireExpected(t, spec, runDone(t, ts, spec))
			}
			if b := tierCounts(s.MetricsSnapshot().Builder); b != tc.want {
				t.Errorf("builder stats = %+v, want %+v", b, tc.want)
			}
		})
	}
}

// The store keeps results only, so after a restart a variant of a seen
// workload runs its reference again, over the store the first life left
// ("stored"): like a novel job, it records its TLS program and its one-use
// SEQUENTIAL program from one load and its clone. It serves the bytes
// tlssim -json prints, and the store gains only its result entry.
func TestRestartedVariantReference(t *testing.T) {
	base := tinySpec("NEW ORDER")
	variant := base
	variant.Spacing = 2500
	t.Run("stored", func(t *testing.T) {
		dir := t.TempDir()
		s1, ts1 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
		runDone(t, ts1, base)
		drain(t, s1)

		s2, ts2 := newTestServer(t, Options{Workers: 1, Store: openTestStore(t, dir)})
		requireExpected(t, variant, runDone(t, ts2, variant))
		want := workload.BuildStats{Builds: 2, Loads: 1, Clones: 1, ReferenceRuns: 1}
		if b := tierCounts(s2.MetricsSnapshot().Builder); b != want {
			t.Errorf("builder stats = %+v, want %+v", b, want)
		}
		drain(t, s2)
		requireResultsOnly(t, dir, 2)
	})
}

// A job whose deadline fires during its reference run fails alone, as a
// timeout, and publishes nothing; a concurrent variant of the same workload,
// inside its own reference run at that moment, completes byte-identical and
// publishes the reference a third job then reads from memory. A test hook
// holds both jobs inside their runs, so the order is fixed without a sleep.
func TestReferenceRunDeadlineFailsAlone(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})

	timed := tinySpec("NEW ORDER")
	timed.Spacing = 1500
	timed.TimeoutMS = 60_000
	variant := tinySpec("NEW ORDER")
	variant.Spacing = 2500

	// The hook holds each job inside its reference run until the test
	// releases it: the timed job on one gate, the variant on the other. Only
	// the test goroutine closes a gate, and the cleanup (which runs before
	// the server's drain) releases any a failed test left shut.
	timedGate, variantGate := make(chan struct{}), make(chan struct{})
	release := func(gate chan struct{}) {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}
	arrived := make(chan *Job, 2)
	hook := func(j *Job) {
		arrived <- j
		if j.res.Cfg.SubthreadSpacing == timed.Spacing {
			<-timedGate
		} else {
			<-variantGate
		}
	}
	testHookReference.Store(&hook)
	t.Cleanup(func() {
		testHookReference.Store(nil)
		release(timedGate)
		release(variantGate)
	})

	var ids []string
	for _, spec := range []JobSpec{timed, variant} {
		resp := postJob(t, ts, spec)
		ids = append(ids, decodeStatus(t, resp.Body).ID)
		resp.Body.Close()
	}
	for range 2 {
		// Fire the timed job's deadline once both jobs are inside their
		// runs: the cause its deadline timer delivers.
		if j := <-arrived; j.ID() == ids[0] {
			j.Cancel(context.DeadlineExceeded)
		}
	}
	release(timedGate)
	final := waitDone(t, ts, ids[0])
	if final.State != StateFailed || final.Failure == nil || final.Failure.Kind != "timeout" {
		t.Fatalf("timed job: state %s, failure %+v; want a timeout failure", final.State, final.Failure)
	}
	if b := s.MetricsSnapshot().Builder; b.ReferenceRuns != 0 {
		t.Errorf("the timed-out run published: builder stats %+v", b)
	}

	release(variantGate)
	if final := waitDone(t, ts, ids[1]); final.State != StateDone {
		t.Fatalf("concurrent variant: state %s, failure %+v", final.State, final.Failure)
	}
	_, body := getBody(t, ts.URL+"/v1/jobs/"+ids[1]+"/result")
	requireExpected(t, variant, body)

	third := tinySpec("NEW ORDER")
	third.Spacing = 3500
	requireExpected(t, third, runDone(t, ts, third))
	if b := s.MetricsSnapshot().Builder; b.ReferenceRuns != 1 || b.ReferenceMemoryHits != 1 {
		t.Errorf("builder stats = %+v, want 1 reference run and 1 memory hit", b)
	}
}

// A SEQUENTIAL job on the unmodified machine is its workload's reference
// run: it publishes its own cycle count instead of simulating its program a
// second time. A TLS-SEQ job runs the same machine on the TLS program, and
// an injected SEQUENTIAL job runs a perturbed one, so each still runs the
// clean reference: the TLS-SEQ job on a SEQUENTIAL program recorded from
// its own program's load, the injected job on its own program. Every body
// is the one tlssim -json prints.
func TestSequentialJobIsItsReference(t *testing.T) {
	seq := tinySpec("NEW ORDER")
	seq.Experiment = "SEQUENTIAL"
	tlsSeq := tinySpec("NEW ORDER")
	tlsSeq.Experiment = "TLS-SEQ"
	injected := seq
	injected.Inject = "seed=1,faults=5,window=60000"
	for _, tc := range []struct {
		name       string
		spec       JobSpec
		want       workload.BuildStats
		references int32 // reference simulations besides the job's own
	}{
		{"sequential", seq, workload.BuildStats{Builds: 1, Loads: 1, ReferenceRuns: 1}, 0},
		{"tls-seq", tlsSeq, workload.BuildStats{Builds: 2, Loads: 1, Clones: 1, ReferenceRuns: 1}, 1},
		// The job's program is the SEQUENTIAL one, so the reference run
		// simulates it again, with no second lookup.
		{"injected", injected, workload.BuildStats{Builds: 1, Loads: 1, ReferenceRuns: 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var references atomic.Int32
			hook := func(*Job) { references.Add(1) }
			testHookReference.Store(&hook)
			t.Cleanup(func() { testHookReference.Store(nil) })

			s, ts := newTestServer(t, Options{Workers: 1})
			requireExpected(t, tc.spec, runDone(t, ts, tc.spec))
			if n := references.Load(); n != tc.references {
				t.Errorf("%d reference simulations, want %d", n, tc.references)
			}
			if b := tierCounts(s.MetricsSnapshot().Builder); b != tc.want {
				t.Errorf("builder stats = %+v, want %+v", b, tc.want)
			}
		})
	}
}
