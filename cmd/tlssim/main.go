// Command tlssim runs one benchmark on one machine configuration and prints
// the full measurement: cycle breakdown, speedup vs. a sequential run, TLS
// protocol statistics, cache behaviour, and the §3.1 dependence profile. It
// is the one run command, and the reference output for cmd/tlsd: its flags
// fill a service.JobSpec, one flag per field, which resolves through
// JobSpec.Resolve exactly as a daemon job does — one validation, one set of
// defaults, one digest — and -json prints the bytes the daemon serves for the
// same spec.
//
// The same run can write the §3.1 profile as JSON (-profile-out) and its
// telemetry: a Chrome trace-event timeline for ui.perfetto.dev (-trace-out),
// a metrics snapshot (-metrics-out) and the raw event stream as JSON Lines
// (-events-out).
//
// Example:
//
//	tlssim -benchmark "NEW ORDER" -experiment BASELINE -txns 8
//	tlssim -benchmark "DELIVERY OUTER" -subthreads 4 -spacing 10000
//	tlssim -opt 0 -profile 15 -profile-out profile.json
//	tlssim -opt 0 -txns 4 -warmup 1 -trace-out t.json -events-out e.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"subthreads/internal/check"
	"subthreads/internal/cliflags"
	"subthreads/internal/report"
	"subthreads/internal/service"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

// options is one parsed command line: the run as a JobSpec, plus what to
// print and write about it.
type options struct {
	spec       service.JobSpec
	list       bool
	jsonOut    bool
	check      bool
	profTop    int
	profileOut string
	version    *bool
	outputs    *cliflags.Outputs
}

// parseArgs parses a command line (without the program name). The flag
// defaults are Resolve's defaults, so a flag left out resolves as the
// matching JobSpec field left out.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	d := workload.DefaultSpec(tpcc.NewOrder)
	o := &options{}
	js := &o.spec
	fs := flag.NewFlagSet("tlssim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&js.Benchmark, "benchmark", d.Bench.String(), "benchmark name (see -list)")
	fs.StringVar(&js.Experiment, "experiment", workload.Baseline.String(), "machine configuration (see -list); NO SUB-THREAD is all-or-nothing TLS")
	fs.IntVar(&js.Txns, "txns", d.Txns, "measured transactions (0 takes the default, as an omitted tlsd field does)")
	js.Warmup = fs.Int("warmup", d.Warmup, "warm-up transactions")
	js.Seed = fs.Int64("seed", d.Seed, "input seed")
	js.Opt = fs.Int("opt", d.OptLevel, "database optimization level (0-5, §3.2); 0 is the untuned engine")
	fs.BoolVar(&js.Paper, "paper", false, "full single-warehouse TPC-C scale")
	fs.IntVar(&js.Subthreads, "subthreads", 0, "override sub-thread contexts per thread")
	fs.Uint64Var(&js.Spacing, "spacing", 0, "override speculative instructions per sub-thread")
	fs.StringVar(&js.Overflow, "overflow", "", "victim-cache overflow policy: stall | squash")
	fs.Uint64Var(&js.Watchdog, "watchdog-cycles", 0, "abort after this many cycles without a commit (0 = off, or the injection default under -inject)")
	fs.Uint64Var(&js.MaxCycles, "max-cycles", 0, "abort the run past this many cycles (0 = no budget)")
	faults := cliflags.AddFaults(fs)
	fs.BoolVar(&o.list, "list", false, "list benchmarks and experiments")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the measurement as JSON instead of text")
	fs.BoolVar(&o.check, "check", false, "verify the speculative run against the serial oracle before measuring")
	fs.IntVar(&o.profTop, "profile", 5, "show the top-N violated dependences (§3.1)")
	fs.StringVar(&o.profileOut, "profile-out", "", "write the §3.1 dependence profile (top -profile pairs) as JSON")
	o.version = cliflags.AddVersion(fs)
	o.outputs = cliflags.AddOutputs(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := cliflags.NoArgs(fs); err != nil {
		fmt.Fprintf(stderr, "tlssim: %v\n", err)
		return nil, err
	}
	if o.profTop < 0 {
		err := fmt.Errorf("-profile must be >= 0, got %d", o.profTop)
		fmt.Fprintf(stderr, "tlssim: %v\n", err)
		return nil, err
	}
	js.Paranoid, js.Inject = faults.Paranoid, faults.Inject
	return o, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns its exit status: 0 on success;
// 2 for a usage error — a bad flag, or a spec Resolve rejects, reported with
// the message tlsd answers 400 with; 1 for a failed simulation or output.
func run(args []string, stdout, stderr io.Writer) (code int) {
	o, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	cliflags.HandleVersion(*o.version)
	if o.list {
		fmt.Fprintln(stdout, "benchmarks:")
		for _, b := range tpcc.All() {
			fmt.Fprintf(stdout, "  %s\n", b)
		}
		fmt.Fprintln(stdout, "experiments:")
		for e := workload.Experiment(0); e < workload.NumExperiments; e++ {
			fmt.Fprintf(stdout, "  %s\n", e)
		}
		return 0
	}
	r, err := o.spec.Resolve()
	if err != nil {
		fmt.Fprintf(stderr, "tlssim: %v\n", err)
		return 2
	}
	// A failed simulation (watchdog trip, audit violation, cycle-budget
	// exhaustion) panics with a structured *sim.RunError; report it on one
	// line with the reproducing command and exit non-zero.
	repro := cliflags.Repro("tlssim", args)
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintf(stderr, "tlssim: fatal: %v | repro: %s\n", p, repro)
			code = 1
		}
	}()
	if o.check {
		if err := check.Differential(r.Spec, r.Config()); err != nil {
			fmt.Fprintf(stderr, "tlssim: check failed: %v | repro: %s\n", err, repro)
			return 1
		}
		fmt.Fprintf(stdout, "check:      serial oracle clean (state digest, outputs, memory image)\n")
	}
	if err := measure(o, r, stdout); err != nil {
		fmt.Fprintf(stderr, "tlssim: %v\n", err)
		return 1
	}
	return 0
}

// measure runs r and its sequential reference, writes the requested output
// files, and prints the measurement.
func measure(o *options, r *service.Resolved, w io.Writer) error {
	cfg := r.Config()
	o.outputs.Attach(&cfg)
	builder := workload.NewBuilder()
	seqRes, _ := builder.Run(r.Spec, workload.Sequential)
	built := builder.Build(r.Spec, r.Exp.SequentialSoftware())
	res := sim.Run(cfg, built.Program)

	if err := o.outputs.Write(built.PCs.Name); err != nil {
		return err
	}
	if o.profileOut != "" {
		p := report.BuildProfile(r.Spec.Bench.String(), r.Exp.String(), r.Spec.OptLevel, res, built.PCs, o.profTop)
		if err := cliflags.WriteFile(o.profileOut, func(f io.Writer) error { return report.WriteProfile(f, p) }); err != nil {
			return err
		}
	}
	if o.jsonOut {
		return r.WriteResult(w, built, res, seqRes.Cycles)
	}

	st := built.Stats
	fmt.Fprintf(w, "benchmark:  %s\n", r.Spec.Bench)
	fmt.Fprintf(w, "experiment: %s (CPUs=%d, sub-threads=%d, spacing=%d)\n",
		r.Exp, cfg.CPUs, cfg.TLS.SubthreadsPerEpoch, cfg.SubthreadSpacing)
	fmt.Fprintf(w, "program:    %d txns, %d epochs, coverage %.0f%%, avg thread %.0f instrs\n",
		st.Txns, st.Epochs, st.Coverage*100, st.AvgThreadSize)
	fmt.Fprintf(w, "\ncycles:     %d (speedup %.2fx over SEQUENTIAL's %d)\n",
		res.Cycles, res.Speedup(seqRes), seqRes.Cycles)

	fmt.Fprintln(w, "\n"+report.Legend())
	rows := []report.Row{
		{Label: "SEQUENTIAL", Result: seqRes},
		{Label: r.Exp.String(), Result: res},
	}
	fmt.Fprint(w, report.BreakdownBars(rows, seqRes.Cycles, 4, 60))

	fmt.Fprintf(w, "\nTLS protocol:\n")
	fmt.Fprintf(w, "  primary violations:    %d\n", res.TLS.PrimaryViolations)
	fmt.Fprintf(w, "  secondary violations:  %d\n", res.TLS.SecondaryViolations)
	fmt.Fprintf(w, "  overflow squashes:     %d\n", res.TLS.OverflowSquashes)
	fmt.Fprintf(w, "  sub-thread starts:     %d\n", res.TLS.SubthreadStarts)
	fmt.Fprintf(w, "  exposed loads:         %d\n", res.TLS.ExposedLoads)
	fmt.Fprintf(w, "  commits:               %d\n", res.TLS.Commits)
	fmt.Fprintf(w, "  rewound instructions:  %d\n", res.RewoundInstrs)
	fmt.Fprintf(w, "\nmemory:\n")
	fmt.Fprintf(w, "  L1 hits/misses:        %d/%d\n", res.L1Hits, res.L1Misses)
	fmt.Fprintf(w, "  L2 hits/misses:        %d/%d\n", res.L2Hits, res.L2Misses)
	fmt.Fprintf(w, "  branches (mispredict): %d (%d)\n", res.Branches, res.Mispredicts)

	if o.profTop > 0 && res.TLS.PrimaryViolations > 0 {
		fmt.Fprintf(w, "\ndependence profile (§3.1), top %d by failed cycles; %d failed cycles attributed:\n%s",
			o.profTop, res.Pairs.TotalFailedCycles(), res.Pairs.Report(built.PCs, o.profTop))
	}
	return nil
}
