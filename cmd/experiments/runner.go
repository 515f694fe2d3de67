package main

import (
	"errors"
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
// On top of the build cache sit two simulation caches:
//
//   - an exact-run memo keyed by {spec, software mode, full config digest}:
//     the same simulation requested twice (figure5 and figure6 both run
//     SEQUENTIAL on each benchmark, for example) executes once;
//   - a prefix-snapshot cache keyed by {spec, prefix digest}: the first
//     simulation of a group whose configs differ only in fork-safe
//     parameters (sub-thread count/size, spawn policy, penalties, overflow
//     policy, ...) captures a checkpoint at the end of the program's leading
//     barrier prefix, and every later member forks from it instead of
//     replaying the prefix.
//
// Both are sound because sim.ResumeE guarantees byte-identical results, so
// parDo's determinism contract — identical output for every -j — still
// holds; only the run/forked/memoized split changes, and deterministically.
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

	memo  cas.Memo[simKey, *sim.Result]   // exact runs, by FullDigest
	snaps cas.Memo[simKey, *sim.Snapshot] // prefix checkpoints, by PrefixDigest

	// Simulation accounting: full runs executed, runs forked from a prefix
	// snapshot, and exact-duplicate results served from the memo. The split
	// is deterministic (one full run per prefix group, one execution per
	// distinct simulation) even though which task wins a race is not.
	simsRun    atomic.Int64
	simsForked atomic.Int64
	simsMemo   atomic.Int64

	// failed counts tasks that panicked (recovered by parDo); any failure
	// makes the suite exit non-zero after the remaining experiments finish.
	failed atomic.Int64
}

// simKey identifies a simulation (or a prefix-sharing group) within a suite:
// the workload spec plus software mode pin the program, the digest pins the
// machine (FullDigest for the memo, PrefixDigest for the snapshot cache).
type simKey struct {
	spec   workload.Spec
	seq    bool
	digest string
}

func newRunner(jobs int) *runner {
	if jobs < 1 {
		jobs = 1
	}
	return &runner{jobs: jobs, builder: workload.NewBuilder()}
}

// Sims reports the full / forked / memoized simulation split.
func (r *runner) Sims() (run, forked, memoized int) {
	return int(r.simsRun.Load()), int(r.simsForked.Load()), int(r.simsMemo.Load())
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

// runOn routes one simulation through the exact-run memo and, for TLS
// programs, the prefix-snapshot cache.
func (r *runner) runOn(spec workload.Spec, sequential bool, cfg sim.Config) runOut {
	built := r.builder.Build(spec, sequential)
	cfg = r.apply(cfg)
	res, executed := r.memo.Do(simKey{spec, sequential, sim.FullDigest(cfg)}, func() *sim.Result {
		return r.simulate(spec, sequential, cfg, built.Program)
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

// simulate executes one distinct simulation, forking from the prefix group's
// shared snapshot when one exists and falling back to a full run otherwise.
// Fault-injected runs never fork (a checkpoint would skip scheduled faults);
// sequential programs are all barrier, so their "prefix" is the whole run and
// sharing it would just hold a full machine image for no reuse.
func (r *runner) simulate(spec workload.Spec, sequential bool, cfg sim.Config, prog *sim.Program) *sim.Result {
	if cfg.Inject != nil || sequential {
		r.simsRun.Add(1)
		return sim.Run(cfg, prog)
	}
	var res *sim.Result
	var err error
	snap, captured := r.snaps.Do(simKey{spec, sequential, sim.PrefixDigest(cfg)}, func() (snap *sim.Snapshot) {
		r.simsRun.Add(1)
		res, snap, err = sim.RunCapture(cfg, prog)
		return snap
	})
	if captured {
		if err != nil {
			panic(err)
		}
		return res
	}
	if snap != nil {
		// sim.ResumeE's rule: a *sim.RunError is the forked run's own
		// outcome and fails this task; any other error means the
		// checkpoint does not apply, and the run replays in full.
		res, err = sim.ResumeE(cfg, prog, snap)
		if err == nil || errors.As(err, new(*sim.RunError)) {
			r.simsForked.Add(1)
			if err != nil {
				panic(err)
			}
			return res
		}
		fmt.Fprintf(os.Stderr, "experiments: prefix fork failed (%v); replaying in full\n", err)
	}
	r.simsRun.Add(1)
	return sim.Run(cfg, prog)
}
