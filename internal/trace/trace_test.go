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

func TestCursorHead(t *testing.T) {
	tr := buildSample()
	c := NewCursor(tr)
	if p, ok := c.Head(); !ok || p.Kind() != isa.ALU {
		t.Errorf("Head = %v,%v", p, ok)
	}
	c.Next(100) // consume the ALU run
	p, ok := c.Head()
	if !ok || p.Kind() != isa.Load || p.PC() != 1 || p.Event().Addr != 0x100 {
		t.Errorf("Head after run = %v,%v", p, ok)
	}
	if c.Done() != 10 {
		t.Errorf("Head consumed: Done = %d, want 10", c.Done())
	}
	c.Step() // the load
	c.TakeALU(100)
	c.Step() // the store
	if p, ok := c.Head(); !ok || p.Kind() != isa.Branch || p.PC() != 3 || !p.Taken() {
		t.Errorf("Head at branch = %v,%v", p, ok)
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

func TestCursorTakeALU(t *testing.T) {
	b := NewBuilder()
	b.ALU(10)
	b.Load(5, 0x40)
	c := NewCursor(b.Finish())
	if n := c.TakeALU(4); n != 4 {
		t.Fatalf("TakeALU(4) = %d", n)
	}
	// A partly consumed run stays at the head, its offset in Pos.
	if p, ok := c.Head(); !ok || p.Kind() != isa.ALU || c.Pos().Offset() != 4 {
		t.Errorf("mid-run Head = %v,%v at offset %d", p, ok, c.Pos().Offset())
	}
	if n := c.TakeALU(100); n != 6 {
		t.Errorf("TakeALU(100) = %d, want the remaining 6", n)
	}
	if p := c.Pos(); p.Index() != 1 || p.Offset() != 0 || p.Done() != 10 {
		t.Errorf("after the run: pos %+v", p)
	}
	if p, ok := c.Head(); !ok || p.Event() != (Event{Kind: isa.Load, PC: 5, Addr: 0x40, N: 1}) {
		t.Errorf("Head after run = %v,%v", p, ok)
	}
	c.Step()
	if _, ok := c.Head(); ok || !c.AtEnd() || c.Done() != 11 {
		t.Errorf("Head at end returned ok (done %d)", c.Done())
	}
}

func TestValidPos(t *testing.T) {
	tr := buildSample() // alu(10), load, alu(7), store, branch, idiv, latch-acq, latch-rel
	end := len(tr.Events())
	cases := []struct {
		idx  int
		off  uint32
		done uint64
		want bool
	}{
		{0, 0, 0, true},
		{0, 9, 9, true},
		{0, 10, 10, false}, // past the run: it would never end
		{0, 4000, 10, false},
		{1, 0, 10, true},
		{1, 1, 11, false}, // one-instruction entries have no offset
		{2, 6, 17, true},
		{2, 7, 18, false},
		{end, 0, tr.Instrs(), true},
		{end, 1, tr.Instrs(), false},
		{end + 1, 0, tr.Instrs(), false},
		{-1, 0, 0, false},
		{1, 0, tr.Instrs() + 1, false},
	}
	for _, c := range cases {
		if got := tr.ValidPos(MakePos(c.idx, c.off, c.done)); got != c.want {
			t.Errorf("ValidPos(%d, %d, %d) = %v, want %v", c.idx, c.off, c.done, got, c.want)
		}
	}
}
