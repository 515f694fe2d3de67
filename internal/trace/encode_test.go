package trace

import (
	"reflect"
	"testing"

	"subthreads/internal/isa"
	"subthreads/internal/snapbin"
)

// sampleTrace exercises every event kind, including back-to-back ALU runs
// (which the Builder merges) and a run length > 1.
func sampleTrace() *Trace {
	b := NewBuilder()
	b.ALU(3)
	b.ALU(2) // merges with the run above
	b.Load(isa.PC(7), 0x1000)
	b.Store(isa.PC(8), 0x1008)
	b.Branch(isa.PC(9), true)
	b.Branch(isa.PC(9), false)
	b.Op(isa.IntMul)
	b.Op(isa.IntDiv)
	b.LatchAcquire(isa.PC(10), 0x2000)
	b.ALU(1)
	b.LatchRelease(isa.PC(10), 0x2000)
	return b.Finish()
}

// encode renders traces back to back into one frame.
func encode(ts ...*Trace) []byte {
	w := snapbin.NewWriter(0)
	for _, t := range ts {
		t.Encode(w)
	}
	return w.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	want := sampleTrace()
	r := snapbin.NewReader(encode(want))
	got := Decode(r)
	if err := r.Done(); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Fatalf("events round-trip mismatch:\n got %v\nwant %v", got.Events(), want.Events())
	}
	if got.Instrs() != want.Instrs() {
		t.Fatalf("instrs = %d, want %d", got.Instrs(), want.Instrs())
	}
	for k := isa.Kind(0); int(k) < isa.NumKinds; k++ {
		if got.Count(k) != want.Count(k) {
			t.Fatalf("count[%v] = %d, want %d", k, got.Count(k), want.Count(k))
		}
	}
}

// Encoding is prefix-framed: two traces concatenate and decode back in order.
func TestBinaryConcatenation(t *testing.T) {
	a := sampleTrace()
	b := NewBuilder()
	b.ALU(42)
	second := b.Finish()

	r := snapbin.NewReader(encode(a, second))
	gotA := Decode(r)
	gotB := Decode(r)
	if err := r.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(gotA.Events(), a.Events()) || !reflect.DeepEqual(gotB.Events(), second.Events()) {
		t.Fatal("concatenated traces decoded out of order")
	}
}

// Garbage and truncation must produce errors, never panics.
func TestDecodeRejectsMalformed(t *testing.T) {
	valid := encode(sampleTrace())
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      valid[:len(valid)/2],
		"bad kind":       {1, 0xff},
		"zero alu run":   {1, byte(isa.ALU), 0},
		"truncated alu":  {1, byte(isa.ALU)},
		"huge count":     {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"missing events": {5},
	}
	for name, data := range cases {
		r := snapbin.NewReader(data)
		if tr := Decode(r); tr != nil || r.Err() == nil {
			t.Errorf("%s: Decode accepted malformed input", name)
		}
	}
}
