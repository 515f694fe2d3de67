package check

import (
	"strings"
	"testing"

	"subthreads/internal/mem"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

func smallSpec(b tpcc.Benchmark) workload.Spec {
	spec := workload.DefaultSpec(b)
	spec.Txns = 3
	spec.Warmup = 1
	return spec
}

// TestDifferentialCleanOnAllBenchmarks is the oracle's primary claim: every
// committed workload, run speculatively with sub-threads on the baseline
// machine, produces exactly the serial state, outputs, and memory image —
// with the paranoid protocol auditor enabled throughout.
func TestDifferentialCleanOnAllBenchmarks(t *testing.T) {
	for _, b := range tpcc.All() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			cfg := workload.Machine(workload.Baseline)
			cfg.Paranoid = true
			if err := Differential(smallSpec(b), cfg); err != nil {
				t.Errorf("differential oracle failed: %v", err)
			}
		})
	}
}

func TestDifferentialCleanUnderOtherMachines(t *testing.T) {
	for _, e := range []workload.Experiment{workload.NoSubthread, workload.PredictorSync} {
		cfg := workload.Machine(e)
		cfg.Paranoid = true
		if err := Differential(smallSpec(tpcc.NewOrder), cfg); err != nil {
			t.Errorf("%v: %v", e, err)
		}
	}
}

// The functional half reports each kind of divergence with its own error:
// the databases' state digests, the transaction count, a value inside a
// transaction's outputs, and the length of a transaction's outputs. Equal
// builds pass.
func TestFunctionalReportsEachDivergence(t *testing.T) {
	outs := [][]int64{{1, 2, 3}, {4, 5}}
	for _, c := range []struct {
		name                  string
		flatDigest, tlsDigest uint64
		flat, tls             [][]int64
		want                  string // "" = no error
	}{
		{"equal", 7, 7, outs, [][]int64{{1, 2, 3}, {4, 5}}, ""},
		{"digest", 7, 8, outs, outs,
			"check: database state digest diverged: flat/serial 0x7, TLS-transformed 0x8"},
		{"transaction count", 7, 7, outs, outs[:1],
			"check: transaction count diverged: 2 flat vs 1 TLS"},
		{"output value", 7, 7, outs, [][]int64{{1, 2, 3}, {4, 6}},
			"check: transaction 1 output diverged at value 1: flat 5, TLS 6"},
		{"output length", 7, 7, outs, [][]int64{{1, 2}, {4, 5}},
			"check: transaction 0 output length diverged: flat 3 values, TLS 2"},
	} {
		err := functional(c.flatDigest, c.tlsDigest, c.flat, c.tls)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: functional = %v, want nil", c.name, err)
		case c.want != "" && (err == nil || err.Error() != c.want):
			t.Errorf("%s: functional = %v, want %q", c.name, err, c.want)
		}
	}
}

func TestCompareReportsLowestDivergentAddress(t *testing.T) {
	w := func(n int) mem.Addr { return mem.Addr(n * mem.WordSize) }
	serial := Image{
		w(1): {Unit: 0, Seq: 10},
		w(5): {Unit: 1, Seq: 20},
		w(9): {Unit: 2, Seq: 30},
	}
	spec := Image{
		w(1): {Unit: 0, Seq: 10},
		w(5): {Unit: 3, Seq: 7, Ctx: 2}, // wrong writer
		w(9): {Unit: 9, Seq: 9},         // also wrong, but higher address
	}
	d := Compare(serial, spec)
	if d == nil {
		t.Fatal("divergent images compared equal")
	}
	if d.Addr != w(5) {
		t.Errorf("first divergence at %v, want %v", d.Addr, w(5))
	}
	if d.Serial == nil || d.Serial.Unit != 1 || d.Spec == nil || d.Spec.Unit != 3 {
		t.Errorf("divergence writers = %+v", d)
	}
	msg := d.Error()
	for _, want := range []string{"divergence", "epoch 3", "sub-thread ctx 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("report %q missing %q", msg, want)
		}
	}
	if Compare(serial, serial) != nil {
		t.Error("identical images reported divergent")
	}
}

func TestCompareCatchesMissingWriter(t *testing.T) {
	a := mem.Addr(64)
	d := Compare(Image{a: {Unit: 4, Seq: 2}}, Image{})
	if d == nil || d.Spec != nil || d.Serial == nil {
		t.Fatalf("missing speculative writer not reported: %+v", d)
	}
	if !strings.Contains(d.Error(), "no writer") {
		t.Errorf("report %q missing %q", d.Error(), "no writer")
	}
}

// lossyOracle simulates a protocol bug — a commit path that loses one unit's
// speculative stores (as a broken SM directory or squash-without-replay
// would) — by dropping every OnStore of the victim unit.
type lossyOracle struct {
	inner  *Oracle
	victim uint64
}

func (l *lossyOracle) OnStore(unit uint64, ctx int, addr mem.Addr, seq uint64) {
	if unit == l.victim {
		return
	}
	l.inner.OnStore(unit, ctx, addr, seq)
}
func (l *lossyOracle) OnSquash(unit uint64, ctx int) { l.inner.OnSquash(unit, ctx) }
func (l *lossyOracle) OnCommit(unit uint64)          { l.inner.OnCommit(unit) }

// TestSeededBugCaughtWithFirstDivergenceReport seeds the bug above into a
// real speculative TPC-C run and requires the differential comparison to
// fail with a first-divergence report naming the lost writer.
func TestSeededBugCaughtWithFirstDivergenceReport(t *testing.T) {
	built := workload.Build(smallSpec(tpcc.NewOrder), false)
	serial := SerialImage(built.Program)

	// Pick a victim unit that is the final writer of at least one word, so
	// losing its stores is architecturally visible.
	var victim uint64
	for _, c := range serial {
		if c.Unit > 0 {
			victim = c.Unit
			break
		}
	}
	if victim == 0 {
		t.Fatal("no speculative unit finally writes any word; scenario broken")
	}

	o := &lossyOracle{inner: NewOracle(), victim: victim}
	cfg := workload.Machine(workload.Baseline)
	cfg.Oracle = o
	if _, err := sim.RunE(cfg, built.Program); err != nil {
		t.Fatal(err)
	}
	d := Compare(serial, o.inner.Image())
	if d == nil {
		t.Fatal("seeded store-loss bug escaped the differential oracle")
	}
	if d.Serial == nil {
		t.Fatalf("divergence has no serial writer: %+v", d)
	}
	if !strings.Contains(d.Error(), "divergence at") {
		t.Errorf("report %q does not locate the divergence", d.Error())
	}
	t.Logf("first-divergence report: %v", d)
}

func TestOracleDoneDetectsUncommittedStores(t *testing.T) {
	o := NewOracle()
	o.OnStore(3, 1, mem.Addr(128), 7)
	if err := o.Done(); err == nil {
		t.Error("uncommitted buffered store not reported")
	}
	o.OnSquash(3, 0)
	if err := o.Done(); err != nil {
		t.Errorf("squashed store still pending: %v", err)
	}
}

func TestOracleSquashDiscardsOnlyLaterContexts(t *testing.T) {
	o := NewOracle()
	a, b := mem.Addr(0), mem.Addr(64)
	o.OnStore(1, 0, a, 5)
	o.OnStore(1, 2, b, 9)
	o.OnSquash(1, 1) // rewind to ctx 1: ctx 0's store survives
	o.OnCommit(1)
	img := o.Image()
	if _, ok := img[a.Word()]; !ok {
		t.Error("pre-rewind store discarded by a later-context squash")
	}
	if _, ok := img[b.Word()]; ok {
		t.Error("squashed store committed")
	}
}
