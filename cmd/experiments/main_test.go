package main

import (
	"bytes"
	"strings"
	"testing"

	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

func tinyOptions() options {
	return only(options{txns: 1, warmup: 1, seed: 7}, tpcc.NewOrder)
}

// only restricts o to benchmark b, as -benchmark does.
func only(o options, b tpcc.Benchmark) options {
	o.bench = &b
	return o
}

func TestPrintTable1(t *testing.T) {
	var b strings.Builder
	printTable1(&b, tinyOptions())
	out := b.String()
	for _, want := range []string{
		"Issue width", "GShare", "2MB", "64 entry", "75 cycles",
		"Sub-thread contexts per thread", "5000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestBenchmarkFilter(t *testing.T) {
	o := tinyOptions()
	got := o.benchmarks(tpcc.All())
	if len(got) != 1 || got[0] != tpcc.NewOrder {
		t.Errorf("filter = %v", got)
	}
	o.bench = nil
	if len(o.benchmarks(tpcc.All())) != len(tpcc.All()) {
		t.Error("empty filter must pass everything through")
	}
}

func TestSpecConstruction(t *testing.T) {
	o := tinyOptions()
	spec := o.spec(tpcc.StockLevel)
	if spec.Txns != 1 || spec.Warmup != 1 || spec.Seed != 7 {
		t.Errorf("spec = %+v", spec)
	}
	o.paper = true
	if o.spec(tpcc.StockLevel).Scale != tpcc.PaperScale() {
		t.Error("-paper did not select the full scale")
	}
}

// TestFigure4Runs exercises one full experiment function end to end with a
// minimal workload, validating the rendering path.
func TestFigure4Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three simulations")
	}
	var b strings.Builder
	runFigure4(&b, tinyOptions())
	out := b.String()
	if !strings.Contains(out, "start table ON") || !strings.Contains(out, "start table OFF") {
		t.Errorf("figure 4 output malformed:\n%s", out)
	}
}

// TestVictimRuns exercises the victim sweep rendering with one benchmark.
func TestVictimRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several simulations")
	}
	o := only(tinyOptions(), tpcc.NewOrder150)
	var b strings.Builder
	runVictim(&b, o)
	if !strings.Contains(b.String(), "Victim entries") {
		t.Errorf("victim output malformed:\n%s", b.String())
	}
}

// TestUsageErrorsBeforeAnyTask: out-of-range transaction counts, a stray
// argument and an unknown benchmark are usage errors (exit 2) caught before
// any experiment starts, even one such as Table 1 that runs nothing. The
// counts are reported with workload.CheckCounts's message, which tlssim and
// tlsd print too.
func TestUsageErrorsBeforeAnyTask(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-table2", "-benchmark", "ORDER STATUS", "-txns", "1", "-warmup", "-1"},
			workload.CheckCounts(1, -1).Error()},
		{[]string{"-table2", "-benchmark", "ORDER STATUS", "-txns", "0"},
			workload.CheckCounts(0, 2).Error()},
		{[]string{"-table2", "-benchmark", "ORDER STATUS", "stray", "-txns", "1"},
			`unexpected argument "stray" (quote names that contain spaces)`},
		{[]string{"-table1", "-figure5", "-benchmark", "NEW ORDERX"},
			`tpcc: unknown benchmark "NEW ORDERX"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 2 {
			t.Errorf("experiments %q exit %d, want 2 (stderr %q)", c.args, code, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("experiments %q ran before rejecting its arguments:\n%s", c.args, stdout.String())
		}
		if got, want := stderr.String(), "experiments: "+c.want+"\n"; got != want {
			t.Errorf("experiments %q stderr %q, want %q", c.args, got, want)
		}
	}
}
