package predict

import "testing"

func TestPredictorWarmsUp(t *testing.T) {
	p := New()
	if p.ShouldSync(5) {
		t.Fatal("cold predictor predicted dependent")
	}
	p.RecordViolation(5)
	if p.ShouldSync(5) {
		t.Fatal("one violation should not reach sync threshold")
	}
	p.RecordViolation(5)
	if !p.ShouldSync(5) {
		t.Fatal("two violations must reach sync threshold")
	}
}

func TestPredictorDecay(t *testing.T) {
	p := New()
	p.RecordViolation(5)
	p.RecordViolation(5)
	p.RecordUseless(5)
	if p.ShouldSync(5) {
		t.Error("one decay must drop below threshold")
	}
	p.RecordUseless(5)
	p.RecordUseless(5) // saturates at 0
	if p.conf[5] != 0 {
		t.Errorf("conf = %d, want 0", p.conf[5])
	}
}

func TestPredictorSaturation(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		p.RecordViolation(7)
	}
	if p.conf[7] != confMax {
		t.Errorf("conf = %d, want %d", p.conf[7], confMax)
	}
	if p.Trained != 10 {
		t.Errorf("Trained = %d", p.Trained)
	}
}

func TestZeroPCIgnored(t *testing.T) {
	p := New()
	p.RecordViolation(0)
	if len(p.conf) != 0 {
		t.Error("zero PC trained the predictor")
	}
}

func TestTracked(t *testing.T) {
	p := New()
	p.RecordViolation(1)
	p.RecordViolation(2)
	p.RecordViolation(2)
	if n := len(p.conf); n != 2 {
		t.Errorf("%d PCs tracked, want 2", n)
	}
}
