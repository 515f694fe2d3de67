package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"subthreads/internal/report"
	"subthreads/internal/service"
	"subthreads/internal/sim"
	"subthreads/internal/trace"
	"subthreads/internal/workload"
)

// In-process calls into the program's layers, shared by every workload: the
// sim workload's passes, the sweep's replayed prefix groups, and the serve
// and fleet correctness checks all go through these, so every traced run
// times the same public calls.

// layerStats accumulates the counters the program itself reports for the
// in-process work of a traced run.
type layerStats struct {
	builds          int
	runs            int
	simEvents       uint64 // program events behind the timed simulations
	cycles          uint64
	issued, stepped uint64 // (Busy+Failed) and all CPU-cycles stepped
	l1, l2          uint64
	violations      uint64
	committed       uint64
	rewound         uint64
	epochs          uint64
	mallocs, bytes  uint64 // heap allocations during speculative runs' sim.RunE
	// lastBuilt holds the most recent builds (callers reset it per pass) for
	// the trace-event count and the cursor timing.
	lastBuilt []*workload.Built
}

// programEvents counts the trace events of a program.
func programEvents(p *sim.Program) uint64 {
	var n uint64
	for _, u := range p.Units {
		n += uint64(len(u.Trace.Events()))
	}
	return n
}

// build times workload.Build.
func build(rec *recorder, req, parent uint64, st *layerStats, spec workload.Spec, sequential bool) *workload.Built {
	var b *workload.Built
	rec.do("workload.Build", req, parent, func(uint64) { b = workload.Build(spec, sequential) })
	if st != nil {
		st.builds++
		st.lastBuilt = append(st.lastBuilt, b)
	}
	return b
}

// simulate times sim.RunE, returning its host time, and, when st is set,
// records the run's counters and, for runs that execute speculative epochs,
// the heap allocations it made (a SEQUENTIAL run has no epochs to divide by).
func simulate(rec *recorder, req, parent uint64, st *layerStats, cfg sim.Config, prog *sim.Program) (*sim.Result, time.Duration, error) {
	var res *sim.Result
	var err error
	var el time.Duration
	var before, after runtime.MemStats
	if st != nil {
		runtime.ReadMemStats(&before)
	}
	rec.do("sim.RunE", req, parent, func(uint64) {
		t := time.Now()
		res, err = sim.RunE(cfg, prog)
		el = time.Since(t)
	})
	if st != nil && err == nil {
		runtime.ReadMemStats(&after)
		if res.EpochCount > 0 {
			st.mallocs += after.Mallocs - before.Mallocs
			st.bytes += after.TotalAlloc - before.TotalAlloc
			st.epochs += uint64(res.EpochCount)
		}
		st.addResult(res, prog)
	}
	return res, el, err
}

func (st *layerStats) addResult(res *sim.Result, prog *sim.Program) {
	st.runs++
	st.simEvents += programEvents(prog)
	st.cycles += res.Cycles
	st.issued += res.Breakdown[sim.Busy] + res.Breakdown[sim.Failed]
	st.stepped += res.Breakdown.Total()
	st.l1 += res.L1Hits + res.L1Misses
	st.l2 += res.L2Hits + res.L2Misses
	st.violations += res.TLS.PrimaryViolations + res.TLS.SecondaryViolations
	st.committed += res.CommittedInstrs
	st.rewound += res.RewoundInstrs
}

// resolve times service.JobSpec.Resolve.
func resolve(rec *recorder, req uint64, js service.JobSpec) (*service.Resolved, error) {
	var r *service.Resolved
	var err error
	rec.do("service.JobSpec.Resolve", req, 0, func(uint64) { r, err = js.Resolve() })
	return r, err
}

// tlssimRun is what one in-process `tlssim -json` produced.
type tlssimRun struct {
	body   []byte
	instrs uint64        // committed instructions, both simulations
	cycles uint64        // simulated cycles, both simulations
	simCPU time.Duration // process CPU time inside sim.RunE
}

// tlssimJSON does in process what `tlssim -json` does for one resolved spec:
// build both programs, simulate the requested machine and SEQUENTIAL, and
// render the result document. The bytes equal what tlsd serves for the spec.
func tlssimJSON(rec *recorder, req uint64, st *layerStats, r *service.Resolved) (out tlssimRun, err error) {
	rec.do("tlssim", req, 0, func(top uint64) {
		seqBuilt := build(rec, req, top, st, r.Spec, true)
		c0 := cpuTime()
		seqRes, _, e := simulate(rec, req, top, st, workload.Machine(workload.Sequential), seqBuilt.Program)
		if err = e; err != nil {
			return
		}
		out.simCPU = cpuTime() - c0
		built := build(rec, req, top, st, r.Spec, r.Exp.SequentialSoftware())
		c0 = cpuTime()
		res, _, e := simulate(rec, req, top, st, r.Cfg, built.Program)
		if err = e; err != nil {
			return
		}
		out.simCPU += cpuTime() - c0
		out.instrs = res.CommittedInstrs + seqRes.CommittedInstrs
		out.cycles = res.Cycles + seqRes.Cycles
		out.body, err = render(rec, req, top, r, built, res, seqRes)
	})
	return out, err
}

// render times report.BuildRun + report.WriteRun.
func render(rec *recorder, req, parent uint64, r *service.Resolved, built *workload.Built, res, seqRes *sim.Result) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	rec.do("report.WriteRun", req, parent, func(uint64) {
		run := report.BuildRun(report.RunParams{
			Benchmark:  r.Spec.Bench.String(),
			Experiment: r.Exp.String(),
			CPUs:       r.Cfg.CPUs,
			Subthreads: r.Cfg.TLS.SubthreadsPerEpoch,
			Spacing:    r.Cfg.SubthreadSpacing,
			Epochs:     built.Stats.Epochs,
			Coverage:   built.Stats.Coverage,
		}, res, seqRes)
		err = report.WriteRun(&buf, run)
	})
	return buf.Bytes(), err
}

// cursorNsPerEvent times trace.Cursor.Next over every trace of the given
// programs (a 4-wide issue width, as the core model uses).
func cursorNsPerEvent(built []*workload.Built) (float64, uint64) {
	var events uint64
	start := time.Now()
	c := trace.NewCursor(nil)
	for _, b := range built {
		for _, u := range b.Program.Units {
			c.Reset(u.Trace)
			for {
				if _, ok := c.Next(4); !ok {
					break
				}
				events++
			}
		}
	}
	el := time.Since(start)
	if events == 0 {
		return 0, 0
	}
	return float64(el.Nanoseconds()) / float64(events), events
}

// commonLayers fills the per-layer metrics every workload's traced run
// reports from its in-process calls: spans give the times, layerStats the
// program's own counters.
func commonLayers(out *outcome, rec *recorder, st *layerStats) error {
	buildMs := rec.durations("workload.Build")
	runMs := rec.durations("sim.RunE")
	renderMs := rec.durations("report.WriteRun")
	resolveMs := rec.durations("service.JobSpec.Resolve")
	if len(buildMs) == 0 || len(runMs) == 0 || len(renderMs) == 0 || len(resolveMs) == 0 {
		return fmt.Errorf("traced run made no in-process build/simulate/render/resolve calls")
	}
	out.layer("workload.build_ms", "ms", median(buildMs), len(buildMs))
	out.layer("workload.builds", "count", float64(st.builds), st.builds)
	var events uint64
	for _, b := range st.lastBuilt {
		events += programEvents(b.Program)
	}
	out.layer("trace.events", "count", float64(events), len(st.lastBuilt))
	ns, n := cursorNsPerEvent(st.lastBuilt)
	out.layer("trace.cursor_ns_per_event", "ns", ns, int(n))
	simS := sum(runMs) / 1000
	out.layer("sim.run_ms", "ms", median(runMs), len(runMs))
	out.layer("sim.mcycles_per_s", "Mcycles/s", float64(st.cycles)/1e6/simS, len(runMs))
	out.layer("sim.events_per_s", "1/s", float64(st.simEvents)/simS, len(runMs))
	out.layer("sim.issue_ratio", "ratio", ratio(st.issued, st.stepped), len(runMs))
	out.layer("sim.allocs_per_epoch", "count", ratio(st.mallocs, st.epochs), int(st.epochs))
	out.layer("sim.bytes_per_epoch", "B", ratio(st.bytes, st.epochs), int(st.epochs))
	// Counts are per simulation, so they do not grow with the window.
	runs := uint64(st.runs)
	out.layer("cache.l1_accesses", "count", ratio(st.l1, runs), st.runs)
	out.layer("cache.l2_accesses", "count", ratio(st.l2, runs), st.runs)
	out.layer("tls.violations", "count", ratio(st.violations, runs), st.runs)
	out.layer("tls.useful_ratio", "ratio", ratio(st.committed, st.committed+st.rewound), len(runMs))
	out.layer("report.render_ms", "ms", median(renderMs), len(renderMs))
	out.layer("service.resolve_us", "us", 1000*median(resolveMs), len(resolveMs))
	return nil
}

// foldInto adds <layer>.cpu_share for every layer from a CPU profile.
func foldInto(out *outcome, profiles ...[]byte) error {
	total := map[string]float64{}
	var secs float64
	for _, p := range profiles {
		shares, s, err := foldLayers(p)
		if err != nil {
			return err
		}
		for l, v := range shares {
			total[l] += v * s
		}
		secs += s
	}
	for _, l := range allLayers {
		share := 0.0
		if secs > 0 {
			share = total[l] / secs
		}
		out.layer(l+".cpu_share", "%", 100*share, int(secs*100)) // n = 10ms samples
	}
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
