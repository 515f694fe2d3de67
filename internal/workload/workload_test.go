package workload

import (
	"testing"

	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
)

// tinySpec keeps workload tests fast.
func tinySpec(b tpcc.Benchmark) Spec {
	spec := DefaultSpec(b)
	spec.Scale = tpcc.Scale{Districts: 4, CustomersPerDistrict: 60, Items: 400, OrdersPerDistrict: 30}
	spec.Txns = 2
	spec.Warmup = 1
	return spec
}

func TestBuildSequential(t *testing.T) {
	built := Build(tinySpec(tpcc.NewOrder), true)
	if built.Stats.Epochs != 0 {
		t.Errorf("sequential build has %d epochs", built.Stats.Epochs)
	}
	for _, u := range built.Program.Units {
		if !u.Barrier {
			t.Fatal("sequential build must contain only barrier units")
		}
	}
	if len(built.Program.Units) != 2 {
		t.Errorf("units = %d, want one per measured transaction", len(built.Program.Units))
	}
}

func TestBuildTLS(t *testing.T) {
	built := Build(tinySpec(tpcc.NewOrder), false)
	st := built.Stats
	if st.Epochs == 0 || st.Coverage <= 0 || st.Coverage > 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AvgThreadSize <= 0 || st.ThreadsPerTxn <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if built.Program.Epochs() != st.Epochs {
		t.Errorf("program epochs %d != stats %d", built.Program.Epochs(), st.Epochs)
	}
	if built.PCs == nil || built.PCs.Len() == 0 {
		t.Error("PC registry empty")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(tinySpec(tpcc.NewOrder), false)
	b := Build(tinySpec(tpcc.NewOrder), false)
	if a.Stats != b.Stats {
		t.Errorf("same spec built different stats: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestMachineConfigs(t *testing.T) {
	cases := []struct {
		e       Experiment
		cpus    int
		subs    int
		spacing uint64
		specOff bool
	}{
		{Sequential, 1, 1, 0, false},
		{TLSSeq, 1, 1, 0, false},
		{NoSubthread, 4, 1, 0, false},
		{Baseline, 4, 8, 5000, false},
		{NoSpeculation, 4, 1, 0, true},
		{PredictorSync, 4, 1, 0, false},
	}
	for _, c := range cases {
		cfg := Machine(c.e)
		if cfg.CPUs != c.cpus {
			t.Errorf("%v: CPUs = %d, want %d", c.e, cfg.CPUs, c.cpus)
		}
		if cfg.TLS.SubthreadsPerEpoch != c.subs {
			t.Errorf("%v: SubthreadsPerEpoch = %d, want %d", c.e, cfg.TLS.SubthreadsPerEpoch, c.subs)
		}
		if cfg.SubthreadSpacing != c.spacing {
			t.Errorf("%v: spacing = %d, want %d", c.e, cfg.SubthreadSpacing, c.spacing)
		}
		if cfg.TLS.SpeculationOff != c.specOff {
			t.Errorf("%v: SpeculationOff = %v", c.e, cfg.TLS.SpeculationOff)
		}
	}
	if !Machine(PredictorSync).UsePredictor {
		t.Error("PredictorSync must enable the predictor")
	}
}

func TestExperimentNames(t *testing.T) {
	seen := map[string]bool{}
	for e := Experiment(0); e < NumExperiments; e++ {
		name := e.String()
		if name == "" || seen[name] {
			t.Errorf("bad or duplicate name %q", name)
		}
		seen[name] = true
	}
}

// TestEndToEndNewOrderShape is the repository's core regression: on NEW
// ORDER, sub-threads must beat all-or-nothing TLS, which must beat
// single-CPU execution, and NO SPECULATION must bound them all — the
// qualitative content of Figure 5(a).
func TestEndToEndNewOrderShape(t *testing.T) {
	spec := tinySpec(tpcc.NewOrder)
	spec.Txns = 3

	seq, _ := Run(spec, Sequential)
	tlsSeq, _ := Run(spec, TLSSeq)
	noSub, _ := Run(spec, NoSubthread)
	baseline, _ := Run(spec, Baseline)
	noSpec, _ := Run(spec, NoSpeculation)

	check := func(name string, res *sim.Result, cpus int) {
		t.Helper()
		if got, want := res.Breakdown.Total(), uint64(cpus)*res.Cycles; got != want {
			t.Errorf("%s: breakdown %d != CPUs*cycles %d", name, got, want)
		}
	}
	check("seq", seq, 1)
	check("tls-seq", tlsSeq, 1)
	check("no-sub", noSub, 4)
	check("baseline", baseline, 4)
	check("no-spec", noSpec, 4)

	// TLS software overhead is small.
	if r := tlsSeq.Speedup(seq); r < 0.85 || r > 1.10 {
		t.Errorf("TLS-SEQ relative performance = %.2f, want ~0.93-1.05", r)
	}
	if s := baseline.Speedup(seq); s <= noSub.Speedup(seq) {
		t.Errorf("sub-threads (%.2f) must beat all-or-nothing (%.2f)", s, noSub.Speedup(seq))
	}
	if s := noSpec.Speedup(seq); s < baseline.Speedup(seq)*0.98 {
		t.Errorf("NO SPECULATION (%.2f) must bound BASELINE (%.2f)", s, baseline.Speedup(seq))
	}
	if baseline.TLS.SubthreadStarts == 0 {
		t.Error("baseline never started sub-threads")
	}
	if noSub.Breakdown[sim.Failed] == 0 {
		t.Error("all-or-nothing NEW ORDER shows no failed speculation")
	}
	if baseline.Breakdown[sim.Failed] >= noSub.Breakdown[sim.Failed] {
		t.Errorf("sub-threads did not reduce failed cycles: %d vs %d",
			baseline.Breakdown[sim.Failed], noSub.Breakdown[sim.Failed])
	}
}

func TestRunConfigCustomMachine(t *testing.T) {
	spec := tinySpec(tpcc.NewOrder)
	cfg := Machine(Baseline)
	cfg.TLS.SubthreadsPerEpoch = 2
	cfg.SubthreadSpacing = 2500
	res, built := RunConfig(spec, cfg)
	if res.Cycles == 0 || built.Stats.Epochs == 0 {
		t.Fatal("custom run produced nothing")
	}
}

func TestRunProfilerCollectsPairs(t *testing.T) {
	spec := tinySpec(tpcc.NewOrder)
	spec.Txns = 3
	res, built := Run(spec, NoSubthread)
	if res.TLS.PrimaryViolations == 0 {
		t.Skip("no violations on this seed; profiler untestable here")
	}
	top := res.Pairs.Top(5)
	if len(top) == 0 {
		t.Fatal("violations occurred but profiler recorded no pairs")
	}
	// The report must resolve site names through the workload's registry.
	rep := res.Pairs.Report(built.PCs, 5)
	if len(rep) == 0 {
		t.Error("empty profiler report")
	}
}

// TestRunDeterminism: the whole pipeline — loading, trace recording, and the
// cycle-level simulation — is deterministic, so results are exactly
// reproducible run to run.
func TestRunDeterminism(t *testing.T) {
	spec := tinySpec(tpcc.NewOrder)
	a, _ := Run(spec, Baseline)
	b, _ := Run(spec, Baseline)
	if a.Cycles != b.Cycles || a.Breakdown != b.Breakdown || a.TLS != b.TLS {
		t.Errorf("nondeterministic run:\n%+v\nvs\n%+v", a, b)
	}
}

// TestBuildAllocs bounds the heap allocations of one -txns 1 build at
// 10,000. A build makes 3–4 k, nearly all of them three per B-tree node. An
// object per row or a path slice per B-tree descent would add tens of
// thousands, and a site name concatenated at every emission adds 6–9 k to a
// DELIVERY build, so each fails the bound.
func TestBuildAllocs(t *testing.T) {
	const bound = 10_000
	for _, b := range []tpcc.Benchmark{tpcc.Payment, tpcc.Delivery} {
		for _, sequential := range []bool{false, true} {
			spec := DefaultSpec(b)
			spec.Txns, spec.Warmup = 1, 1
			n := testing.AllocsPerRun(1, func() { Build(spec, sequential) })
			t.Logf("%v sequential=%v: %.0f allocations per build", b, sequential, n)
			if n > bound {
				t.Errorf("%v sequential=%v: %.0f allocations per build, want at most %d", b, sequential, n, bound)
			}
		}
	}
}
