// Command experiments regenerates every table and figure of the paper's
// evaluation (§4-5) on the simulated CMP:
//
//	-table1     simulation parameters (Table 1, from the live configuration)
//	-table2     benchmark statistics (Table 2)
//	-figure5    overall performance of the optimized benchmarks
//	-figure6    sub-thread count / size sweep
//	-figure4    selective secondary violations (start table) ablation
//	-tuning     iterative dependence-removal narrative (§3, Figure 2)
//	-predictor  dependence-predictor comparison (§2.2)
//	-victim     speculative victim cache size sweep (§2.1)
//	-sweep      synthetic thread-size x dependence-count sweep (§1)
//	-spawn      sub-thread placement policy ablation (§5.1)
//	-l1track    L1 sub-thread tracking ablation (§2.2)
//	-checkpoint-cost  register-backup cost sweep (§2.2)
//	-all        everything above
//
// Absolute numbers will not match the paper (the substrate is a from-scratch
// simulator, not the authors' testbed); the shapes — who wins, by roughly
// what factor — are the reproduction target. See EXPERIMENTS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"subthreads/internal/cliflags"
	"subthreads/internal/db"
	"subthreads/internal/report"
	"subthreads/internal/sim"
	"subthreads/internal/tls"
	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

type options struct {
	txns   int
	warmup int
	seed   int64
	paper  bool
	// bench restricts every experiment to one benchmark (-benchmark); nil
	// runs each experiment's own list.
	bench *tpcc.Benchmark
	// par is the shared worker pool + build cache (-j); nil means serial
	// with a private cache (see options.runner).
	par *runner
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 0 on success;
// 2 for a usage error — a bad flag, a stray argument, transaction counts
// workload.CheckCounts rejects or an unknown -benchmark, all caught before
// any experiment starts; 1 when an experiment or one of its tasks failed.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1    = fs.Bool("table1", false, "print Table 1 (simulation parameters)")
		table2    = fs.Bool("table2", false, "run Table 2 (benchmark statistics)")
		figure5   = fs.Bool("figure5", false, "run Figure 5 (overall performance)")
		figure6   = fs.Bool("figure6", false, "run Figure 6 (sub-thread sweep)")
		figure4   = fs.Bool("figure4", false, "run the Figure 4 start-table ablation")
		tuning    = fs.Bool("tuning", false, "run the §3 iterative tuning narrative")
		predictor = fs.Bool("predictor", false, "run the §2.2 dependence-predictor comparison")
		victim    = fs.Bool("victim", false, "run the §2.1 victim-cache size sweep")
		sweep     = fs.Bool("sweep", false, "run the §1 synthetic thread-size x dependence sweep")
		spawn     = fs.Bool("spawn", false, "run the §5.1 sub-thread placement policy ablation")
		l1track   = fs.Bool("l1track", false, "run the §2.2 L1 sub-thread tracking ablation")
		ckptCost  = fs.Bool("checkpoint-cost", false, "run the §2.2 register-backup cost sweep")
		mlp       = fs.Bool("mlp", false, "run the blocking vs non-blocking loads core-model ablation")
		icache    = fs.Bool("icache", false, "run the instruction-cache core-model ablation")
		all       = fs.Bool("all", false, "run everything")
		opts      options
	)
	fs.IntVar(&opts.txns, "txns", 8, "measured transactions per benchmark")
	fs.IntVar(&opts.warmup, "warmup", 2, "warm-up transactions before timing")
	fs.Int64Var(&opts.seed, "seed", 42, "input generation seed")
	fs.BoolVar(&opts.paper, "paper", false, "use the full single-warehouse TPC-C scale")
	bench := fs.String("benchmark", "", "restrict to one benchmark (e.g. \"NEW ORDER\")")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "simulations to run in parallel (output is identical for every -j)")
	showVersion := cliflags.AddVersion(fs)
	faults := cliflags.AddFaults(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := cliflags.NoArgs(fs)
	if err == nil {
		err = workload.CheckCounts(opts.txns, opts.warmup)
	}
	if err == nil && *bench != "" {
		var b tpcc.Benchmark
		b, err = tpcc.Parse(*bench)
		opts.bench = &b
	}
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	cliflags.HandleVersion(*showVersion)
	opts.par = newRunner(*jobs)
	opts.par.paranoid = faults.Paranoid
	icfg, err := faults.Config()
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	opts.par.injectCfg = icfg

	repro := cliflags.Repro("experiments", args)
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "experiments: fatal: %v | repro: %s\n", p, repro)
			code = 1
		}
	}()

	ran := false
	failed := 0
	// Each experiment runs under its own recover so one failure (e.g. a
	// watchdog abort under -inject surfacing through a nil task result)
	// reports and moves on: the suite always emits every result it can.
	experiment := func(enabled bool, name string, fn func(io.Writer, options)) {
		if !(enabled || *all) {
			return
		}
		ran = true
		defer func() {
			if p := recover(); p != nil {
				failed++
				fmt.Fprintf(stderr, "experiments: %s failed: %v (continuing with remaining experiments)\n", name, p)
			}
		}()
		fn(stdout, opts)
	}
	experiment(*table1, "table1", printTable1)
	experiment(*table2, "table2", runTable2)
	experiment(*figure5, "figure5", runFigure5)
	experiment(*figure6, "figure6", runFigure6)
	experiment(*figure4, "figure4", runFigure4)
	experiment(*tuning, "tuning", runTuning)
	experiment(*predictor, "predictor", runPredictor)
	experiment(*victim, "victim", runVictim)
	experiment(*sweep, "sweep", runSweep)
	experiment(*spawn, "spawn", runSpawn)
	experiment(*l1track, "l1track", runL1Track)
	experiment(*ckptCost, "checkpoint-cost", runCheckpointCost)
	experiment(*mlp, "mlp", runMLP)
	experiment(*icache, "icache", runICache)
	if !ran {
		fs.Usage()
		return 2
	}
	// How the suite's simulations were satisfied, and how many programs the
	// build cache recorded: on stderr, so stdout stays byte-identical.
	simsRun, simsMemo := opts.par.Sims()
	bs := opts.par.builder.Stats()
	fmt.Fprintf(stderr, "experiments: %d simulations: %d run + %d memoized; %d builds, %d memory hits\n",
		simsRun+simsMemo, simsRun, simsMemo, bs.Builds, bs.MemoryHits)
	if taskFails := opts.par.Failures(); failed > 0 || taskFails > 0 {
		fmt.Fprintf(stderr, "experiments: %d experiment(s) and %d task(s) failed; results above are partial | repro: %s\n",
			failed, taskFails, repro)
		return 1
	}
	return 0
}

func (o options) spec(b tpcc.Benchmark) workload.Spec {
	spec := workload.DefaultSpec(b)
	spec.Txns = o.txns
	spec.Warmup = o.warmup
	spec.Seed = o.seed
	if o.paper {
		spec.Scale = tpcc.PaperScale()
	}
	return spec
}

func (o options) benchmarks(list []tpcc.Benchmark) []tpcc.Benchmark {
	if o.bench == nil {
		return list
	}
	return []tpcc.Benchmark{*o.bench}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n================ %s ================\n\n", title)
}

// printTable1 reports the live machine configuration — the reproduction of
// Table 1 is that these ARE the parameters the simulator uses.
func printTable1(w io.Writer, _ options) {
	header(w, "TABLE 1: simulation parameters")
	cfg := sim.DefaultConfig()
	t := report.NewTable("Parameter", "Value")
	t.AddRow("Issue width", fmt.Sprintf("%d", cfg.CPU.IssueWidth))
	t.AddRow("Reorder buffer size", fmt.Sprintf("%d", cfg.CPU.ReorderBuffer))
	t.AddRow("Integer multiply", fmt.Sprintf("%d cycles", cfg.CPU.Lat.IntMul))
	t.AddRow("Integer divide", fmt.Sprintf("%d cycles", cfg.CPU.Lat.IntDiv))
	t.AddRow("All other integer", fmt.Sprintf("%d cycle", cfg.CPU.Lat.ALU))
	t.AddRow("FP divide", fmt.Sprintf("%d cycles", cfg.CPU.Lat.FPDiv))
	t.AddRow("FP square root", fmt.Sprintf("%d cycles", cfg.CPU.Lat.FPSqrt))
	t.AddRow("All other FP", fmt.Sprintf("%d cycles", cfg.CPU.Lat.FPOp))
	t.AddRow("Branch prediction", fmt.Sprintf("GShare (2^%d counters, %d history bits)",
		cfg.CPU.BranchTableBits, cfg.CPU.BranchHistoryBits))
	t.AddRow("Cache line size", "32B")
	t.AddRow("Data cache", fmt.Sprintf("%dKB, %d-way set-assoc",
		cfg.Mem.L1Sets*cfg.Mem.L1Ways*32/1024, cfg.Mem.L1Ways))
	t.AddRow("Unified secondary cache", fmt.Sprintf("%dMB, %d-way set-assoc, %d banks",
		cfg.TLS.L2Sets*cfg.TLS.L2Ways*32/(1024*1024), cfg.TLS.L2Ways, cfg.Mem.L2Banks))
	t.AddRow("Speculative victim cache", fmt.Sprintf("%d entry", cfg.TLS.VictimEntries))
	t.AddRow("Miss latency to secondary cache", fmt.Sprintf("%d cycles", cfg.Mem.L2HitLat))
	t.AddRow("Miss latency to local memory", fmt.Sprintf("%d cycles", cfg.Mem.MemLat))
	t.AddRow("Main memory bandwidth", fmt.Sprintf("1 access per %d cycles", cfg.Mem.MemOccupancy))
	t.AddRow("CPUs", fmt.Sprintf("%d", cfg.CPUs))
	t.AddRow("Sub-thread contexts per thread (BASELINE)", fmt.Sprintf("%d", cfg.TLS.SubthreadsPerEpoch))
	t.AddRow("Speculative instructions per sub-thread", fmt.Sprintf("%d", cfg.SubthreadSpacing))
	fmt.Fprint(w, t.String())
}

// runTable2 regenerates Table 2: per-benchmark execution time, coverage,
// thread size, speculative instructions per thread, and threads per
// transaction.
func runTable2(w io.Writer, o options) {
	header(w, "TABLE 2: benchmark statistics")
	r := o.runner()
	start := time.Now()
	benches := o.benchmarks(tpcc.All())
	// Two simulations per benchmark: SEQUENTIAL (even slots) and BASELINE
	// (odd slots), fanned out together.
	flat := parDo(r, 2*len(benches), func(i int) runOut {
		b := benches[i/2]
		if i%2 == 0 {
			return r.run(o.spec(b), workload.Sequential)
		}
		return r.run(o.spec(b), workload.Baseline)
	})
	t := report.NewTable("Benchmark", "Exec.Time (Mcycles)", "Coverage",
		"Avg Thread Size (dyn.instr)", "Spec.Insts per Thread", "Threads per Txn")
	for bi, b := range benches {
		seqRes := flat[2*bi].res
		baseRes, built := flat[2*bi+1].res, flat[2*bi+1].built
		st := built.Stats
		// Speculative instructions per thread, net of re-executed work
		// (rewound instructions were all speculative).
		specPerThread := 0.0
		if st.Epochs > 0 {
			net := float64(baseRes.SpecInstrs) - float64(baseRes.RewoundInstrs)
			if net < 0 {
				net = 0
			}
			specPerThread = net / float64(st.Epochs)
		}
		t.AddRow(b.String(),
			report.F(float64(seqRes.Cycles)/1e6, 1),
			fmt.Sprintf("%.0f%%", st.Coverage*100),
			report.K(st.AvgThreadSize),
			report.K(specPerThread),
			report.F(st.ThreadsPerTxn, 1),
		)
	}
	fmt.Fprint(w, t.String())
	progress("table2", len(flat), start, r)
}

// figure5Experiments is the bar order of Figure 5.
var figure5Experiments = []workload.Experiment{
	workload.Sequential,
	workload.TLSSeq,
	workload.NoSubthread,
	workload.Baseline,
	workload.NoSpeculation,
}

// runFigure5 regenerates Figure 5: normalized execution-time breakdowns for
// every benchmark across the five machine configurations.
func runFigure5(w io.Writer, o options) {
	header(w, "FIGURE 5: overall performance of optimized benchmarks (4 CPUs)")
	fmt.Fprintln(w, report.Legend())
	r := o.runner()
	start := time.Now()
	benches := o.benchmarks(tpcc.All())
	exps := figure5Experiments
	flat := parDo(r, len(benches)*len(exps), func(i int) runOut {
		return r.run(o.spec(benches[i/len(exps)]), exps[i%len(exps)])
	})
	for bi, b := range benches {
		var rows []report.Row
		var seq *sim.Result
		for ei, e := range exps {
			res := flat[bi*len(exps)+ei].res
			if e == workload.Sequential {
				seq = res
			}
			rows = append(rows, report.Row{Label: e.String(), Result: res})
		}
		fmt.Fprintf(w, "\n(%s)\n", b)
		fmt.Fprint(w, report.BreakdownBars(rows, seq.Cycles, 4, 60))
		fmt.Fprint(w, report.SpeedupTable(rows, seq))
	}
	progress("figure5", len(flat), start, r)
}

// runFigure6 regenerates Figure 6: the number of sub-thread contexts (2, 4,
// 8) crossed with the sub-thread size (speculative instructions between
// checkpoints) for the five TLS-profitable benchmarks.
func runFigure6(w io.Writer, o options) {
	header(w, "FIGURE 6: varying sub-thread count and size")
	counts := []int{2, 4, 8}
	sizes := []uint64{1000, 2500, 5000, 10000, 50000}
	r := o.runner()
	start := time.Now()
	benches := o.benchmarks(tpcc.TLSProfitable())
	// Per benchmark: slot 0 is SEQUENTIAL, then counts x sizes in row-major
	// order. All 16 cells share ONE build through the cache.
	perB := 1 + len(counts)*len(sizes)
	flat := parDo(r, len(benches)*perB, func(i int) runOut {
		b := benches[i/perB]
		k := i % perB
		if k == 0 {
			return r.run(o.spec(b), workload.Sequential)
		}
		k--
		cfg := workload.Machine(workload.Baseline)
		cfg.TLS.SubthreadsPerEpoch = counts[k/len(sizes)]
		cfg.SubthreadSpacing = sizes[k%len(sizes)]
		return r.runConfig(o.spec(b), cfg)
	})
	for bi, b := range benches {
		seq := flat[bi*perB].res
		fmt.Fprintf(w, "\n(%s)  speedup over SEQUENTIAL; * marks the BASELINE configuration\n", b)
		t := report.NewTable(append([]string{"sub-threads \\ size"},
			func() []string {
				var hs []string
				for _, s := range sizes {
					hs = append(hs, fmt.Sprintf("%d", s))
				}
				return hs
			}()...)...)
		for ni, n := range counts {
			row := []string{fmt.Sprintf("%d", n)}
			for si, size := range sizes {
				res := flat[bi*perB+1+ni*len(sizes)+si].res
				cell := fmt.Sprintf("%.2f", res.Speedup(seq))
				if n == 8 && size == 5000 {
					cell += "*"
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
		fmt.Fprint(w, t.String())
	}
	progress("figure6", len(flat), start, r)
}

// runFigure4 demonstrates the sub-thread start table (Figure 4): with it,
// secondary violations restart only dependent sub-threads; without it, later
// epochs fully restart.
func runFigure4(w io.Writer, o options) {
	header(w, "FIGURE 4: selective secondary violations via the start table")
	r := o.runner()
	start := time.Now()
	benches := o.benchmarks([]tpcc.Benchmark{tpcc.NewOrder, tpcc.NewOrder150})
	flat := parDo(r, 3*len(benches), func(i int) runOut {
		b := benches[i/3]
		switch i % 3 {
		case 0:
			return r.run(o.spec(b), workload.Sequential)
		case 1:
			return r.run(o.spec(b), workload.Baseline)
		default:
			cfg := workload.Machine(workload.Baseline)
			cfg.TLS.StartTable = false
			return r.runConfig(o.spec(b), cfg)
		}
	})
	for bi, b := range benches {
		seq, with, without := flat[3*bi].res, flat[3*bi+1].res, flat[3*bi+2].res
		t := report.NewTable("Configuration", "Speedup", "Rewound instrs", "Secondary violations")
		t.AddRow("start table ON (Fig 4b)", report.F(with.Speedup(seq), 2),
			report.I(with.RewoundInstrs), report.I(with.TLS.SecondaryViolations))
		t.AddRow("start table OFF (Fig 4a)", report.F(without.Speedup(seq), 2),
			report.I(without.RewoundInstrs), report.I(without.TLS.SecondaryViolations))
		fmt.Fprintf(w, "\n(%s)\n%s", b, t.String())
	}
	progress("figure4", len(flat), start, r)
}

// runTuning walks the §3 iterative parallelization process on NEW ORDER:
// each optimization level removes the dependence the profiler ranked worst,
// and (with sub-threads) performance improves step by step — Figure 2's
// narrative.
func runTuning(w io.Writer, o options) {
	header(w, "§3 TUNING: iterative dependence removal on NEW ORDER")
	r := o.runner()
	start := time.Now()
	spec := o.spec(tpcc.NewOrder)
	// Slot 0: SEQUENTIAL. Then per optimization level: BASELINE machine
	// (even offset) and NO SUB-THREAD machine (odd offset) on that level's
	// binary — the two share one build per level.
	flat := parDo(r, 1+2*db.NumOptLevels, func(i int) runOut {
		if i == 0 {
			return r.run(spec, workload.Sequential)
		}
		s := spec
		s.OptLevel = (i - 1) / 2
		if (i-1)%2 == 0 {
			return r.runConfig(s, workload.Machine(workload.Baseline))
		}
		return r.runConfig(s, workload.Machine(workload.NoSubthread))
	})
	seq := flat[0].res
	levels := []string{
		"0: unoptimized",
		"1: +lazy latches",
		"2: +pinless buffer-pool reads",
		"3: +per-epoch log buffers",
		"4: +lock inheritance",
		"5: +per-CPU allocation pools",
	}
	t := report.NewTable("Optimization level", "Speedup (8 sub-threads)", "Speedup (no sub-threads)",
		"Violations", "Latch stall%")
	for lvl := 0; lvl < db.NumOptLevels; lvl++ {
		base, built := flat[1+2*lvl].res, flat[1+2*lvl].built
		noSub := flat[2+2*lvl].res
		syncPct := 100 * float64(base.Breakdown[sim.Sync]) / float64(base.Breakdown.Total())
		t.AddRow(levels[lvl],
			report.F(base.Speedup(seq), 2),
			report.F(noSub.Speedup(seq), 2),
			report.I(base.TLS.PrimaryViolations+base.TLS.SecondaryViolations),
			report.F(syncPct, 1))
		if lvl == 0 || lvl == db.NumOptLevels-1 {
			fmt.Fprintf(w, "\nprofile after level %d (top harmful dependences, §3.1):\n%s",
				lvl, base.Pairs.Report(built.PCs, 5))
		}
	}
	fmt.Fprintf(w, "\n%s", t.String())
	progress("tuning", len(flat), start, r)
}

// runPredictor compares sub-threads against a Moshovos-style dependence
// predictor that synchronizes predicted-dependent loads (§2.2): the paper
// found prediction ineffective for these large threads because only some
// dynamic instances of a load PC are truly dependent.
func runPredictor(w io.Writer, o options) {
	header(w, "§2.2 ABLATION: dependence predictor vs sub-threads")
	r := o.runner()
	start := time.Now()
	benches := o.benchmarks([]tpcc.Benchmark{tpcc.NewOrder, tpcc.NewOrder150})
	exps := []workload.Experiment{workload.Sequential, workload.NoSubthread,
		workload.PredictorSync, workload.Baseline}
	flat := parDo(r, len(benches)*len(exps), func(i int) runOut {
		return r.run(o.spec(benches[i/len(exps)]), exps[i%len(exps)])
	})
	for bi, b := range benches {
		seq := flat[bi*len(exps)].res
		noSub := flat[bi*len(exps)+1].res
		pred := flat[bi*len(exps)+2].res
		base := flat[bi*len(exps)+3].res
		t := report.NewTable("Configuration", "Speedup", "Violations", "Sync stalls", "Failed%")
		row := func(label string, r *sim.Result) {
			failPct := 100 * float64(r.Breakdown[sim.Failed]) / float64(r.Breakdown.Total())
			t.AddRow(label, report.F(r.Speedup(seq), 2),
				report.I(r.TLS.PrimaryViolations+r.TLS.SecondaryViolations),
				report.I(r.PredictorSyncs), report.F(failPct, 1))
		}
		row("all-or-nothing TLS", noSub)
		row("  + dependence predictor", pred)
		row("8 sub-threads (BASELINE)", base)
		fmt.Fprintf(w, "\n(%s)\n%s", b, t.String())
	}
	progress("predictor", len(flat), start, r)
}

// runVictim sweeps the speculative victim cache size (§2.1): the paper chose
// 64 entries as "large enough to avoid stalling threads due to cache
// overflows for our worst case", the largest transaction with 8 sub-threads.
func runVictim(w io.Writer, o options) {
	header(w, "§2.1 ABLATION: speculative victim cache size")
	sizes := []int{0, 4, 16, 64, 256}
	r := o.runner()
	start := time.Now()
	benches := o.benchmarks([]tpcc.Benchmark{tpcc.DeliveryOuter, tpcc.NewOrder150})
	// Per benchmark: SEQUENTIAL, then per size a (stall policy, squash
	// policy) pair. All 2x5 machines replay one cached TLS build.
	perB := 1 + 2*len(sizes)
	flat := parDo(r, len(benches)*perB, func(i int) runOut {
		b := benches[i/perB]
		k := i % perB
		if k == 0 {
			return r.run(o.spec(b), workload.Sequential)
		}
		k--
		cfg := workload.Machine(workload.Baseline)
		cfg.TLS.VictimEntries = sizes[k/2]
		if k%2 == 1 {
			cfg.TLS.OverflowPolicy = tls.OverflowSquash
		}
		return r.runConfig(o.spec(b), cfg)
	})
	for bi, b := range benches {
		seq := flat[bi*perB].res
		t := report.NewTable("Victim entries", "Speedup", "Overflow stalls", "Squashes (squash policy)")
		for si, size := range sizes {
			res := flat[bi*perB+1+2*si].res
			resSq := flat[bi*perB+2+2*si].res
			t.AddRow(fmt.Sprintf("%d", size), report.F(res.Speedup(seq), 2),
				report.I(res.TLS.OverflowStalls), report.I(resSq.TLS.OverflowSquashes))
		}
		fmt.Fprintf(w, "\n(%s)\n%s", b, t.String())
	}
	progress("victim", len(flat), start, r)
}
