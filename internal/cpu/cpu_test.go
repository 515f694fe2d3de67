package cpu

import (
	"math/rand"
	"testing"

	"subthreads/internal/isa"
)

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if p.IssueWidth != 4 {
		t.Errorf("IssueWidth = %d", p.IssueWidth)
	}
	if p.ReorderBuffer != 128 {
		t.Errorf("ReorderBuffer = %d", p.ReorderBuffer)
	}
	if p.BranchHistoryBits != 8 {
		t.Errorf("BranchHistoryBits = %d", p.BranchHistoryBits)
	}
	if p.Lat.IntDiv != 76 {
		t.Errorf("IntDiv latency = %d", p.Lat.IntDiv)
	}
}

// warm starts a measurement on a trained predictor: it clears the history
// and the statistics and keeps the counters.
func warm(g *GShare) { g.history, g.Predictions, g.Mispredicts = 0, 0, 0 }

// mispredictRate is the fraction of g's predictions that missed.
func mispredictRate(g *GShare) float64 { return float64(g.Mispredicts) / float64(g.Predictions) }

func TestGShareLearnsBiasedBranch(t *testing.T) {
	g := NewGShare(10, 8)
	pc := isa.PC(42)
	// An always-taken branch must be predicted nearly perfectly after
	// warm-up.
	for i := 0; i < 64; i++ {
		g.Predict(pc, true)
	}
	warm(g)
	for i := 0; i < 1000; i++ {
		g.Predict(pc, true)
	}
	if g.Mispredicts != 0 {
		t.Errorf("always-taken branch mispredicted %d times", g.Mispredicts)
	}
}

func TestGShareLearnsAlternatingPattern(t *testing.T) {
	g := NewGShare(12, 8)
	pc := isa.PC(7)
	// Alternating T/NT is captured by global history after warm-up.
	for i := 0; i < 512; i++ {
		g.Predict(pc, i%2 == 0)
	}
	warm(g)
	for i := 0; i < 1000; i++ {
		g.Predict(pc, i%2 == 0)
	}
	if rate := mispredictRate(g); rate > 0.02 {
		t.Errorf("alternating pattern mispredict rate = %.3f", rate)
	}
}

func TestGShareRandomBranchNearHalf(t *testing.T) {
	g := NewGShare(12, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		g.Predict(isa.PC(rng.Intn(64)), rng.Intn(2) == 0)
	}
	rate := mispredictRate(g)
	if rate < 0.35 || rate > 0.65 {
		t.Errorf("random branches mispredict rate = %.3f, want ~0.5", rate)
	}
}

func TestGShareDistinguishesPCs(t *testing.T) {
	g := NewGShare(14, 0) // no history: pure per-PC bias
	for i := 0; i < 200; i++ {
		g.Predict(isa.PC(1), true)
		g.Predict(isa.PC(100001), false)
	}
	warm(g)
	for i := 0; i < 100; i++ {
		g.Predict(isa.PC(1), true)
		g.Predict(isa.PC(100001), false)
	}
	if g.Mispredicts != 0 {
		t.Errorf("two opposite-bias PCs interfered: %d mispredicts", g.Mispredicts)
	}
}

func TestGShareGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad geometry did not panic")
		}
	}()
	NewGShare(0, 8)
}
