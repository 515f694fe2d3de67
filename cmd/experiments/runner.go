package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"subthreads/internal/cas"
	"subthreads/internal/inject"
	"subthreads/internal/sim"
	"subthreads/internal/workload"
)

// progress emits one per-experiment timing line to stderr (never to the
// report writer, which must stay byte-identical across -j values).
func progress(name string, sims int, start time.Time, r *runner) {
	fmt.Fprintf(os.Stderr, "%s: %d simulations in %v (j=%d)\n",
		name, sims, time.Since(start).Round(time.Millisecond), r.jobs)
}

// runner fans independent simulations across a bounded worker pool (-j).
// Every build goes through one shared workload.Builder, so a suite that
// replays the same binary against many machines — figure6, victim, spawn —
// performs exactly one database load + trace recording per distinct spec,
// and concurrent workers share it safely (Built is read-only under sim.Run).
//
// On top of the build cache sits one simulation cache, an exact-run memo
// keyed by {program, full config digest}: the same simulation requested
// twice executes once. figure5 and figure6 both run SEQUENTIAL on each
// benchmark, for example, and figure5's DELIVERY OUTER SEQUENTIAL task runs
// the program its DELIVERY task already ran. Simulations are deterministic,
// so serving a duplicate from the memo keeps parDo's determinism contract —
// identical output for every -j — and the run/memoized split is
// deterministic too.
type runner struct {
	jobs    int
	builder *workload.Builder

	// Suite-wide hardening overlays (set after construction, before use):
	// paranoid enables the TLS protocol auditor on every simulation, and
	// injectCfg seeds a fresh deterministic fault injector per simulation —
	// per-task injectors keep output independent of worker scheduling, so
	// reports stay byte-identical across -j even under injection.
	paranoid  bool
	injectCfg *inject.Config

	memo cas.Memo[simKey, *sim.Result] // exact runs, by program and FullDigest

	// Simulation accounting: runs executed and exact-duplicate results
	// served from the memo. The split is deterministic (one execution per
	// distinct simulation) even though which task wins a race is not.
	simsRun  atomic.Int64
	simsMemo atomic.Int64

	// failed counts tasks that panicked (recovered by parDo); any failure
	// makes the suite exit non-zero after the remaining experiments finish.
	failed atomic.Int64
}

// simKey identifies a simulation within a suite: the build key pins the
// program (so every spec that records one SEQUENTIAL program shares it), and
// sim.FullDigest pins the machine.
type simKey struct {
	prog   workload.BuildKey
	digest string
}

func newRunner(jobs int) *runner {
	if jobs < 1 {
		jobs = 1
	}
	return &runner{jobs: jobs, builder: workload.NewBuilder()}
}

// Sims reports the run / memoized simulation split.
func (r *runner) Sims() (run, memoized int) {
	return int(r.simsRun.Load()), int(r.simsMemo.Load())
}

// apply overlays the suite-wide hardening options on one machine config.
func (r *runner) apply(cfg sim.Config) sim.Config {
	if r.paranoid {
		cfg.Paranoid = true
	}
	if r.injectCfg != nil {
		cfg.Inject = inject.New(*r.injectCfg)
		if cfg.WatchdogCycles == 0 {
			cfg.WatchdogCycles = inject.DefaultWatchdog
		}
	}
	return cfg
}

// Failures reports how many tasks panicked and were recovered.
func (r *runner) Failures() int { return int(r.failed.Load()) }

// runner returns the options' shared runner, or a serial one for callers
// (tests) that construct options directly.
func (o options) runner() *runner {
	if o.par != nil {
		return o.par
	}
	return newRunner(1)
}

// parDo evaluates fn(0) .. fn(n-1) on up to r.jobs workers and returns the
// results in index order. Determinism contract: each fn(i) must depend only
// on i — never on shared mutable state — so the result slice, and therefore
// everything rendered from it, is identical for every -j. fn runs on other
// goroutines; with -j 1 everything stays on the caller's.
func parDo[T any](r *runner, n int, fn func(int) T) []T {
	out := make([]T, n)
	workers := r.jobs
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = runTask(r, i, fn)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = runTask(r, i, fn)
			}
		}()
	}
	wg.Wait()
	return out
}

// runTask runs one parDo task, converting a panic (a failed simulation, e.g.
// a sim.RunError under fault injection) into a recorded failure so the rest
// of the suite still completes. The failed slot keeps its zero value; an
// experiment that consumes it will itself fail and be recovered by the
// per-experiment guard in main, reported, and skipped.
func runTask[T any](r *runner, i int, fn func(int) T) (out T) {
	defer func() {
		if p := recover(); p != nil {
			r.failed.Add(1)
			fmt.Fprintf(os.Stderr, "experiments: task %d failed: %v\n", i, p)
		}
	}()
	return fn(i)
}

// runOut is one simulation plus the (cached) build it ran.
type runOut struct {
	res   *sim.Result
	built *workload.Built
}

// run simulates a Figure 5 experiment through the build cache.
func (r *runner) run(spec workload.Spec, e workload.Experiment) runOut {
	return r.runOn(spec, e.SequentialSoftware(), workload.Machine(e))
}

// runConfig simulates the TLS binary on a custom machine through the cache.
func (r *runner) runConfig(spec workload.Spec, cfg sim.Config) runOut {
	return r.runOn(spec, false, cfg)
}

// runSeqConfig simulates the SEQUENTIAL binary on a custom machine (the
// core-model ablations vary the machine under both software modes).
func (r *runner) runSeqConfig(spec workload.Spec, cfg sim.Config) runOut {
	return r.runOn(spec, true, cfg)
}

// runOn routes one simulation through the exact-run memo.
func (r *runner) runOn(spec workload.Spec, sequential bool, cfg sim.Config) runOut {
	built := r.builder.Build(spec, sequential)
	cfg = r.apply(cfg)
	res, executed := r.memo.Do(simKey{workload.KeyOf(spec, sequential), sim.FullDigest(cfg)}, func() *sim.Result {
		r.simsRun.Add(1)
		return sim.Run(cfg, built.Program)
	})
	if !executed {
		if res == nil {
			// The winning task panicked; fail this duplicate the same way a
			// fresh run would have.
			panic(fmt.Sprintf("experiments: duplicate of a failed simulation (spec %+v)", spec))
		}
		r.simsMemo.Add(1)
	}
	return runOut{res, built}
}
