package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

func buildSample() *Trace {
	b := NewBuilder()
	b.ALU(10)
	b.Load(1, 0x100)
	b.ALU(3)
	b.ALU(4) // merges with previous run
	b.Store(2, 0x104)
	b.Branch(3, true)
	b.Op(isa.IntDiv)
	b.LatchAcquire(4, 0x200)
	b.LatchRelease(5, 0x200)
	return b.Finish()
}

func TestBuilderMergesALURuns(t *testing.T) {
	tr := buildSample()
	evs := tr.Events()
	// alu(10), load, alu(7), store, branch, idiv, latch-acq, latch-rel
	if len(evs) != 8 {
		t.Fatalf("got %d events, want 8: %v", len(evs), evs)
	}
	if ev := evs[2].Event(); ev.Kind != isa.ALU || ev.N != 7 {
		t.Errorf("ALU runs did not merge: %v", ev)
	}
	if tr.Instrs() != 10+1+7+1+1+1+1+1 {
		t.Errorf("Instrs = %d", tr.Instrs())
	}
	if tr.Count(isa.ALU) != 17 {
		t.Errorf("ALU count = %d", tr.Count(isa.ALU))
	}
	if tr.MemRefs() != 2 {
		t.Errorf("MemRefs = %d", tr.MemRefs())
	}
}

func TestBuilderZeroALUIgnored(t *testing.T) {
	b := NewBuilder()
	b.ALU(0)
	tr := b.Finish()
	if len(tr.Events()) != 0 || tr.Instrs() != 0 {
		t.Errorf("ALU(0) recorded something: %v", tr.Events())
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder()
	b.ALU(5)
	b.Load(1, 0x10)
	b.Reset()
	if b.Instrs() != 0 {
		t.Fatalf("Instrs after Reset = %d", b.Instrs())
	}
	b.Store(2, 0x20)
	tr := b.Finish()
	if tr.Instrs() != 1 || tr.Count(isa.Store) != 1 || tr.Count(isa.ALU) != 0 {
		t.Errorf("post-Reset trace wrong: %+v", tr)
	}
}

func TestCursorWalk(t *testing.T) {
	tr := buildSample()
	c := NewCursor(tr)
	var instrs uint64
	for {
		ev, ok := c.Next(4)
		if !ok {
			break
		}
		instrs += uint64(ev.N)
		if ev.Kind == isa.ALU && ev.N > 4 {
			t.Errorf("ALU chunk %d exceeds maxALU 4", ev.N)
		}
	}
	if instrs != tr.Instrs() {
		t.Errorf("cursor consumed %d instrs, trace has %d", instrs, tr.Instrs())
	}
	if !c.AtEnd() {
		t.Error("cursor not at end")
	}
	if _, ok := c.Next(4); ok {
		t.Error("Next after end returned ok")
	}
}

func TestCursorALUClipping(t *testing.T) {
	b := NewBuilder()
	b.ALU(10)
	c := NewCursor(b.Finish())
	ev, ok := c.Next(4)
	if !ok || ev.N != 4 {
		t.Fatalf("first chunk = %v,%v", ev, ok)
	}
	ev, _ = c.Next(4)
	if ev.N != 4 {
		t.Fatalf("second chunk N = %d", ev.N)
	}
	ev, _ = c.Next(4)
	if ev.N != 2 {
		t.Fatalf("final chunk N = %d", ev.N)
	}
	if !c.AtEnd() {
		t.Error("not at end after consuming run")
	}
	if ev, ok := c.Next(0); ok {
		t.Errorf("Next(0) consumed %v", ev)
	}
}

func TestCursorNextZeroBudgetMidRun(t *testing.T) {
	b := NewBuilder()
	b.ALU(8)
	c := NewCursor(b.Finish())
	c.Next(3)
	if _, ok := c.Next(0); ok {
		t.Error("Next(0) mid-run must not consume")
	}
	if c.Done() != 3 {
		t.Errorf("Done = %d, want 3", c.Done())
	}
}

func TestCursorSeekRestoresExactly(t *testing.T) {
	tr := buildSample()
	c := NewCursor(tr)
	c.Next(4)
	c.Next(4) // mid-run positions too
	mark := c.Pos()
	var after []Event
	for {
		ev, ok := c.Next(4)
		if !ok {
			break
		}
		after = append(after, ev)
	}
	c.Seek(mark)
	if c.Done() != mark.Done() {
		t.Fatalf("Done after Seek = %d, want %d", c.Done(), mark.Done())
	}
	for i := 0; ; i++ {
		ev, ok := c.Next(4)
		if !ok {
			if i != len(after) {
				t.Fatalf("replay ended early at %d of %d", i, len(after))
			}
			break
		}
		if i >= len(after) || ev != after[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, ev, after[i])
		}
	}
}

func TestCursorRewind(t *testing.T) {
	tr := buildSample()
	c := NewCursor(tr)
	for {
		if _, ok := c.Next(16); !ok {
			break
		}
	}
	c.Rewind()
	if c.Done() != 0 || c.AtEnd() {
		t.Error("Rewind did not reset cursor")
	}
}

func TestPeek(t *testing.T) {
	tr := buildSample()
	c := NewCursor(tr)
	if k, ok := c.Peek(); !ok || k != isa.ALU {
		t.Errorf("Peek = %v,%v", k, ok)
	}
	c.Next(100) // consume the ALU run
	if k, ok := c.Peek(); !ok || k != isa.Load {
		t.Errorf("Peek after run = %v,%v", k, ok)
	}
}

// Property: replay from any checkpoint is deterministic — consuming the trace
// twice from the same Pos yields identical instruction counts. This is the
// invariant sub-thread rewind relies on.
func TestReplayDeterminismProperty(t *testing.T) {
	f := func(seed int64, budget uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		for i := 0; i < 50; i++ {
			switch rng.Intn(5) {
			case 0:
				b.ALU(uint32(rng.Intn(20) + 1))
			case 1:
				b.Load(isa.PC(rng.Intn(10)), mem.Addr(rng.Intn(1024)*4))
			case 2:
				b.Store(isa.PC(rng.Intn(10)), mem.Addr(rng.Intn(1024)*4))
			case 3:
				b.Branch(isa.PC(rng.Intn(10)), rng.Intn(2) == 0)
			case 4:
				b.Op(isa.FPOp)
			}
		}
		tr := b.Finish()
		maxALU := uint32(budget%8) + 1
		c := NewCursor(tr)
		// Walk to a random midpoint, checkpoint, finish, then replay.
		steps := rng.Intn(40)
		for i := 0; i < steps; i++ {
			c.Next(maxALU)
		}
		mark := c.Pos()
		first := drain(c, maxALU)
		c.Seek(mark)
		second := drain(c, maxALU)
		return first == second && mark.Done()+first == tr.Instrs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func drain(c *Cursor, maxALU uint32) uint64 {
	var n uint64
	for {
		ev, ok := c.Next(maxALU)
		if !ok {
			return n
		}
		n += uint64(ev.N)
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{Event{Kind: isa.ALU, N: 5}, "alu x5"},
		{Event{Kind: isa.Load, PC: 3, Addr: 0x20, N: 1}, "load pc=3 addr=0x00000020"},
		{Event{Kind: isa.IntDiv, N: 1}, "idiv"},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestPeekEvent(t *testing.T) {
	b := NewBuilder()
	b.ALU(10)
	b.Load(5, 0x40)
	c := NewCursor(b.Finish())
	ev, ok := c.PeekEvent()
	if !ok || ev.Kind != isa.ALU || ev.N != 10 {
		t.Fatalf("PeekEvent = %v,%v", ev, ok)
	}
	c.Next(4) // consume part of the run
	ev, _ = c.PeekEvent()
	if ev.N != 6 {
		t.Errorf("mid-run PeekEvent N = %d, want remaining 6", ev.N)
	}
	c.Next(100)
	ev, _ = c.PeekEvent()
	if ev.Kind != isa.Load || ev.Addr != 0x40 {
		t.Errorf("PeekEvent after run = %v", ev)
	}
	c.Next(1)
	if _, ok := c.PeekEvent(); ok {
		t.Error("PeekEvent at end returned ok")
	}
}
