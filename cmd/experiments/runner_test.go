package main

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

func TestParDoOrderAndCoverage(t *testing.T) {
	for _, jobs := range []int{1, 2, 8, 100} {
		r := newRunner(jobs)
		for _, n := range []int{0, 1, 7, 64} {
			var calls atomic.Int64
			out := parDo(r, n, func(i int) int {
				calls.Add(1)
				return i * i
			})
			if len(out) != n || int(calls.Load()) != n {
				t.Fatalf("j=%d n=%d: len=%d calls=%d", jobs, n, len(out), calls.Load())
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("j=%d n=%d: out[%d] = %d", jobs, n, i, v)
				}
			}
		}
	}
}

// TestDuplicateOfFailedSimulationFails: a simulation that fails fails its
// task and every duplicate of it. Two tasks request one simulation whose
// cycle budget trips: it executes once, the memo serves no result, and both
// tasks fail, at -j 1 (the duplicate finds the failed cell) and at -j 8 (it
// may wait on the running one).
func TestDuplicateOfFailedSimulationFails(t *testing.T) {
	spec := tinyOptions().spec(tpcc.NewOrder)
	cfg := workload.Machine(workload.Baseline)
	cfg.MaxCycles = 1000
	for _, jobs := range []int{1, 8} {
		r := newRunner(jobs)
		out := parDo(r, 2, func(int) runOut { return r.runConfig(spec, cfg) })
		if n := r.Failures(); n != 2 {
			t.Errorf("-j %d: %d tasks failed, want 2", jobs, n)
		}
		for i, o := range out {
			if o.res != nil {
				t.Errorf("-j %d: task %d returned a result", jobs, i)
			}
		}
		if run, memoized := r.Sims(); run != 1 || memoized != 0 {
			t.Errorf("-j %d: split %d run + %d memoized, want 1 + 0", jobs, run, memoized)
		}
	}
}

// TestSequentialRunPerProgram: the memo keys a simulation by its program,
// so the SEQUENTIAL tasks of DELIVERY, DELIVERY OUTER and an opt-0 DELIVERY,
// which record one SEQUENTIAL program, run once and share one Result, at
// -j 1 and at -j 8.
func TestSequentialRunPerProgram(t *testing.T) {
	o := tinyOptions()
	opt0 := o.spec(tpcc.Delivery)
	opt0.OptLevel = 0
	specs := []workload.Spec{o.spec(tpcc.Delivery), o.spec(tpcc.DeliveryOuter), opt0}
	for _, jobs := range []int{1, 8} {
		r := newRunner(jobs)
		out := parDo(r, len(specs), func(i int) runOut { return r.run(specs[i], workload.Sequential) })
		if run, memoized := r.Sims(); run != 1 || memoized != 2 {
			t.Errorf("-j %d: split %d run + %d memoized, want 1 + 2", jobs, run, memoized)
		}
		for i, x := range out {
			if x.res == nil || x.res != out[0].res {
				t.Errorf("-j %d: task %d does not share the first task's Result", jobs, i)
			}
		}
	}
}

// experimentFns lists every experiment generator, each of which must produce
// byte-identical output regardless of -j.
var experimentFns = []struct {
	name string
	fn   func(io.Writer, options)
}{
	{"table2", runTable2},
	{"figure5", runFigure5},
	{"figure6", runFigure6},
	{"figure4", runFigure4},
	{"tuning", runTuning},
	{"predictor", runPredictor},
	{"victim", runVictim},
	{"sweep", runSweep},
	{"spawn", runSpawn},
	{"l1track", runL1Track},
	{"checkpoint-cost", runCheckpointCost},
	{"mlp", runMLP},
	{"icache", runICache},
}

// TestOutputDeterministicAcrossJ is the parallel runner's core contract:
// every figure and table renders byte-identically at -j 1 and -j 8, and
// splits its simulations into runs and memo hits identically.
func TestOutputDeterministicAcrossJ(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	for _, e := range experimentFns {
		t.Run(e.name, func(t *testing.T) {
			render := func(jobs int) (string, [2]int) {
				o := tinyOptions()
				o.par = newRunner(jobs)
				var b strings.Builder
				e.fn(&b, o)
				run, memoized := o.par.Sims()
				return b.String(), [2]int{run, memoized}
			}
			serial, serialSplit := render(1)
			parallel, parallelSplit := render(8)
			if serial != parallel {
				t.Errorf("-j 1 and -j 8 outputs differ:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
					serial, parallel)
			}
			if serialSplit != parallelSplit {
				t.Errorf("run/memoized split differs: %v at -j 1, %v at -j 8",
					serialSplit, parallelSplit)
			}
			if len(serial) == 0 {
				t.Error("experiment produced no output")
			}
		})
	}
}

// TestSweepsBuildOncePerSpec: the repeated-binary sweeps replay one binary
// against many machines, so the shared cache must perform exactly one build
// per distinct (spec, software-mode) — here one benchmark, two modes.
func TestSweepsBuildOncePerSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three sweep experiments")
	}
	for _, e := range experimentFns {
		switch e.name {
		case "figure6", "victim", "spawn":
		default:
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			o := tinyOptions()
			o.par = newRunner(4)
			e.fn(io.Discard, o)
			if n := o.par.builder.Builds(); n != 2 {
				t.Errorf("%s performed %d builds, want 2 (sequential + TLS)", e.name, n)
			}
		})
	}
}

// TestRunnerDefaultsSerial: options constructed without a pool (tests, zero
// value) fall back to a serial runner with a private cache.
func TestRunnerDefaultsSerial(t *testing.T) {
	var o options
	r := o.runner()
	if r.jobs != 1 || r.builder == nil {
		t.Fatalf("default runner = %+v", r)
	}
	if got := fmt.Sprint(parDo(r, 3, func(i int) int { return i })); got != "[0 1 2]" {
		t.Fatalf("serial parDo = %s", got)
	}
}
