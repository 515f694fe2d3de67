// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark iteration performs one full experiment (database load,
// trace recording, cycle-level simulation) and reports the paper's metrics —
// speedup over SEQUENTIAL, simulated Mcycles, violations — via ReportMetric,
// so `go test -bench=. -benchmem` reproduces the whole evaluation. The
// cmd/experiments tool renders the same data as figures; these benchmarks are
// the machine-readable form.
package subthreads_test

import (
	"fmt"
	"testing"

	"subthreads"
)

// benchSpec keeps benchmark iterations to roughly a second.
func benchSpec(b subthreads.Benchmark) subthreads.Spec {
	spec := subthreads.DefaultSpec(b)
	spec.Txns = 3
	spec.Warmup = 1
	return spec
}

// seqCycles caches the SEQUENTIAL reference run per benchmark (the
// normalization baseline of every figure).
var seqCycles = map[subthreads.Benchmark]uint64{}

func seqReference(b subthreads.Benchmark) uint64 {
	if c, ok := seqCycles[b]; ok {
		return c
	}
	res, _ := subthreads.Run(benchSpec(b), subthreads.Sequential)
	seqCycles[b] = res.Cycles
	return res.Cycles
}

func reportRun(b *testing.B, res *subthreads.Result, ref uint64) {
	b.ReportMetric(float64(ref)/float64(res.Cycles), "speedup")
	b.ReportMetric(float64(res.Cycles)/1e6, "Mcycles")
	b.ReportMetric(float64(res.TLS.PrimaryViolations+res.TLS.SecondaryViolations), "violations")
}

// BenchmarkTable2 regenerates the Table 2 benchmark statistics: each
// sub-benchmark reports the thread size and coverage of one workload.
func BenchmarkTable2(b *testing.B) {
	for _, bench := range subthreads.Benchmarks() {
		b.Run(bench.String(), func(b *testing.B) {
			var built *subthreads.Built
			for i := 0; i < b.N; i++ {
				built = subthreads.Build(benchSpec(bench), false)
			}
			b.ReportMetric(built.Stats.AvgThreadSize, "instrs/thread")
			b.ReportMetric(built.Stats.Coverage*100, "coverage%")
			b.ReportMetric(built.Stats.ThreadsPerTxn, "threads/txn")
		})
	}
}

// BenchmarkSimulate isolates the simulator hot path: the program is built
// once through the shared build cache and every iteration is one pure
// sim.Run over it — `go test -bench=BenchmarkSimulate -benchmem` is the
// allocation guard for the de-allocated inner loop (allocs/op here is
// allocations per run, excluding the build). SEQUENTIAL times one core over
// the sequential build; the other legs time four. Each leg reports simulated
// Mcycles per host second, perfbench's sim.mcycles_per_s unit.
func BenchmarkSimulate(b *testing.B) {
	builder := subthreads.NewBuilder()
	for _, e := range []subthreads.Experiment{subthreads.Sequential, subthreads.NoSubthread, subthreads.Baseline} {
		b.Run(e.String(), func(b *testing.B) {
			built := builder.Build(benchSpec(subthreads.NewOrder), e.SequentialSoftware())
			cfg := subthreads.Machine(e)
			b.ReportAllocs()
			b.ResetTimer()
			var res *subthreads.Result
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res = subthreads.Simulate(cfg, built.Program)
				cycles += res.Cycles
			}
			b.ReportMetric(float64(res.EpochCount), "epochs")
			b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5: every benchmark crossed with the
// five machine configurations; the speedup metric is the bar height inverse.
func BenchmarkFigure5(b *testing.B) {
	experiments := []subthreads.Experiment{
		subthreads.Sequential,
		subthreads.TLSSeq,
		subthreads.NoSubthread,
		subthreads.Baseline,
		subthreads.NoSpeculation,
	}
	for _, bench := range subthreads.Benchmarks() {
		for _, e := range experiments {
			b.Run(fmt.Sprintf("%s/%s", bench, e), func(b *testing.B) {
				ref := seqReference(bench)
				var res *subthreads.Result
				for i := 0; i < b.N; i++ {
					res, _ = subthreads.Run(benchSpec(bench), e)
				}
				reportRun(b, res, ref)
			})
		}
	}
}

// BenchmarkFigure6 regenerates (a compact grid of) Figure 6: sub-thread
// count x sub-thread size for the five TLS-profitable benchmarks. The full
// grid is available from cmd/experiments -figure6.
func BenchmarkFigure6(b *testing.B) {
	counts := []int{2, 8}
	sizes := []uint64{2500, 5000, 50000}
	for _, bench := range []subthreads.Benchmark{
		subthreads.NewOrder, subthreads.NewOrder150, subthreads.Delivery,
		subthreads.DeliveryOuter, subthreads.StockLevel,
	} {
		for _, n := range counts {
			for _, size := range sizes {
				b.Run(fmt.Sprintf("%s/subthreads=%d/size=%d", bench, n, size), func(b *testing.B) {
					ref := seqReference(bench)
					cfg := subthreads.Machine(subthreads.Baseline)
					cfg.TLS.SubthreadsPerEpoch = n
					cfg.SubthreadSpacing = size
					var res *subthreads.Result
					for i := 0; i < b.N; i++ {
						res, _ = subthreads.RunConfig(benchSpec(bench), cfg)
					}
					reportRun(b, res, ref)
				})
			}
		}
	}
}

// BenchmarkStartTable regenerates the Figure 4 ablation: secondary
// violations with and without the sub-thread start table.
func BenchmarkStartTable(b *testing.B) {
	for _, on := range []bool{true, false} {
		name := "on"
		if !on {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			ref := seqReference(subthreads.NewOrder150)
			cfg := subthreads.Machine(subthreads.Baseline)
			cfg.TLS.StartTable = on
			var res *subthreads.Result
			for i := 0; i < b.N; i++ {
				res, _ = subthreads.RunConfig(benchSpec(subthreads.NewOrder150), cfg)
			}
			reportRun(b, res, ref)
			b.ReportMetric(float64(res.RewoundInstrs), "rewound-instrs")
		})
	}
}

// BenchmarkPredictor regenerates the §2.2 comparison: all-or-nothing TLS, a
// Moshovos-style dependence predictor, and sub-threads.
func BenchmarkPredictor(b *testing.B) {
	for _, e := range []subthreads.Experiment{
		subthreads.NoSubthread, subthreads.PredictorSync, subthreads.Baseline,
	} {
		b.Run(e.String(), func(b *testing.B) {
			ref := seqReference(subthreads.NewOrder)
			var res *subthreads.Result
			for i := 0; i < b.N; i++ {
				res, _ = subthreads.Run(benchSpec(subthreads.NewOrder), e)
			}
			reportRun(b, res, ref)
			b.ReportMetric(float64(res.PredictorSyncs), "syncs")
		})
	}
}

// BenchmarkVictimCache regenerates the §2.1 sweep: speculative victim cache
// capacity vs. overflow squashes on the worst-case workload.
func BenchmarkVictimCache(b *testing.B) {
	for _, entries := range []int{0, 16, 64} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			ref := seqReference(subthreads.DeliveryOuter)
			cfg := subthreads.Machine(subthreads.Baseline)
			cfg.TLS.VictimEntries = entries
			var res *subthreads.Result
			for i := 0; i < b.N; i++ {
				res, _ = subthreads.RunConfig(benchSpec(subthreads.DeliveryOuter), cfg)
			}
			reportRun(b, res, ref)
			b.ReportMetric(float64(res.TLS.OverflowSquashes), "overflow-squashes")
		})
	}
}

// BenchmarkTuning regenerates the §3.2 narrative: NEW ORDER speedup at each
// database optimization level.
func BenchmarkTuning(b *testing.B) {
	for lvl := 0; lvl <= 5; lvl++ {
		b.Run(fmt.Sprintf("opt=%d", lvl), func(b *testing.B) {
			ref := seqReference(subthreads.NewOrder)
			spec := benchSpec(subthreads.NewOrder)
			spec.OptLevel = lvl
			var res *subthreads.Result
			for i := 0; i < b.N; i++ {
				res, _ = subthreads.RunConfig(spec, subthreads.Machine(subthreads.Baseline))
			}
			reportRun(b, res, ref)
		})
	}
}

// BenchmarkSpawnPolicy regenerates the §5.1 placement-policy comparison:
// periodic (BASELINE), adaptive sizing, and predictor-guided checkpoints.
func BenchmarkSpawnPolicy(b *testing.B) {
	for _, p := range []subthreads.SpawnPolicy{
		subthreads.SpawnPeriodic, subthreads.SpawnAdaptive, subthreads.SpawnPredictor,
	} {
		b.Run(p.String(), func(b *testing.B) {
			ref := seqReference(subthreads.NewOrder150)
			cfg := subthreads.Machine(subthreads.Baseline)
			cfg.Spawn = p
			var res *subthreads.Result
			for i := 0; i < b.N; i++ {
				res, _ = subthreads.RunConfig(benchSpec(subthreads.NewOrder150), cfg)
			}
			reportRun(b, res, ref)
			b.ReportMetric(float64(res.TLS.SubthreadStarts), "spawns")
		})
	}
}

// BenchmarkTelemetry is the instrumentation-overhead guard: the "off" case
// runs with a nil emitter and must stay within noise (<2%) of the pre-
// telemetry baseline — compare with benchstat — because a nil emitter
// reduces every instrumentation site to a pointer test. The other cases
// price real sinks (a bounded ring, the metrics aggregator).
func BenchmarkTelemetry(b *testing.B) {
	cases := []struct {
		name string
		sink func() subthreads.TelemetryEmitter
	}{
		{"off", func() subthreads.TelemetryEmitter { return nil }},
		{"ring", func() subthreads.TelemetryEmitter { return subthreads.NewTelemetryRing(4096) }},
		{"metrics", func() subthreads.TelemetryEmitter { return subthreads.NewTelemetryMetrics() }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ref := seqReference(subthreads.NewOrder)
			cfg := subthreads.Machine(subthreads.Baseline)
			var res *subthreads.Result
			for i := 0; i < b.N; i++ {
				cfg.Telemetry = c.sink()
				res, _ = subthreads.RunConfig(benchSpec(subthreads.NewOrder), cfg)
			}
			reportRun(b, res, ref)
		})
	}
}

// BenchmarkDependenceSweep regenerates (a diagonal of) the §1 synthetic
// sweep: all-or-nothing vs sub-threads as thread size and dependence count
// grow together.
func BenchmarkDependenceSweep(b *testing.B) {
	cells := []struct {
		size, deps int
	}{{2000, 2}, {10000, 8}, {60000, 24}}
	for _, cell := range cells {
		b.Run(fmt.Sprintf("size=%d/deps=%d", cell.size, cell.deps), func(b *testing.B) {
			params := subthreads.SynthParams{
				Threads: 16, ThreadSize: cell.size, DepLoads: cell.deps, Seed: 42,
			}
			aonCfg := subthreads.DefaultSimConfig()
			aonCfg.SubthreadSpacing = 0
			aonCfg.TLS.SubthreadsPerEpoch = 1
			var ratio float64
			for i := 0; i < b.N; i++ {
				progA, err := subthreads.GenerateSynthetic(params)
				if err != nil {
					b.Fatal(err)
				}
				progS, _ := subthreads.GenerateSynthetic(params)
				aon := subthreads.Simulate(aonCfg, progA)
				sub := subthreads.Simulate(subthreads.DefaultSimConfig(), progS)
				ratio = float64(aon.Cycles) / float64(sub.Cycles)
			}
			b.ReportMetric(ratio, "aon/sub-ratio")
		})
	}
}
