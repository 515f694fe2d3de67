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

// TestBuilderMergesALURuns: consecutive ALU calls merge into one run, which
// fuses into the entry of the instruction after it, while a run too long to
// fuse and a run that ends the trace each keep an entry of their own.
func TestBuilderMergesALURuns(t *testing.T) {
	tr := buildSample()
	evs := tr.Events()
	// alu(10)+load, alu(7)+store, branch, idiv, latch-acq, latch-rel
	if len(evs) != 6 {
		t.Fatalf("got %d entries, want 6: %v", len(evs), evs)
	}
	if p := evs[1]; p.Run() != 7 || p.Kind() != isa.Store || p.PC() != 2 {
		t.Errorf("ALU runs did not merge into the store's entry: %v", p)
	}
	if p := evs[2]; p.Run() != 0 || p.Event() != (Event{Kind: isa.Branch, PC: 3, N: 1, Taken: true}) {
		t.Errorf("the branch took in a run: %v", p)
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
	// The stream the cursor yields is the unfused one: eight events.
	var got []Event
	for c := NewCursor(tr); ; {
		ev, ok := c.Next(100)
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if len(got) != 8 || got[2] != (Event{Kind: isa.ALU, N: 7}) {
		t.Errorf("cursor stream = %v, want 8 events with alu x7 third", got)
	}

	b := NewBuilder()
	b.ALU(100)
	b.ALU(50) // 150: too long to fuse
	b.Load(1, 0x10)
	b.ALU(maxPrefix) // the longest run that fuses
	b.Store(2, 0x20)
	b.ALU(3) // ends the trace
	want := []struct {
		kind isa.Kind
		run  uint32
	}{{isa.ALU, 150}, {isa.Load, 0}, {isa.Store, maxPrefix}, {isa.ALU, 3}}
	evs = b.Finish().Events()
	if len(evs) != len(want) {
		t.Fatalf("got entries %v, want %d", evs, len(want))
	}
	for i, w := range want {
		if evs[i].Kind() != w.kind || evs[i].Run() != w.run {
			t.Errorf("entry %d = %v (run %d), want %v with run %d", i, evs[i], evs[i].Run(), w.kind, w.run)
		}
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
	if !atEnd(c) {
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
	if !atEnd(c) {
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
	c.Seek(Pos{})
	if c.Done() != 0 || atEnd(c) {
		t.Error("seeking the zero position did not rewind the cursor")
	}
}

func TestCursorHead(t *testing.T) {
	tr := buildSample()
	c := NewCursor(tr)
	if p, ok := c.Head(); !ok || p.Run() != 10 || p.Kind() != isa.Load {
		t.Errorf("Head = %v,%v, want the load with its run of 10", p, ok)
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
	p, _ = c.Head()
	take(c, p, 100)
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
	b.Store(6, 0x80)
	c := NewCursor(b.Finish())
	p, _ := c.Head()
	if n := take(c, p, 4); n != 4 {
		t.Fatalf("take(4) = %d", n)
	}
	// A partly consumed run stays at the head, its offset in Pos.
	if q, ok := c.Head(); !ok || q != p || c.Pos().off != 4 {
		t.Errorf("mid-run Head = %v,%v at offset %d", q, ok, c.Pos().off)
	}
	if n := take(c, p, 100); n != 6 {
		t.Errorf("take(100) = %d, want the remaining 6", n)
	}
	// The fused run is consumed: the cursor is at the entry's event.
	if pos := c.Pos(); pos.idx != 0 || pos.off != 10 || pos.Done() != 10 {
		t.Errorf("after the run: pos %+v", pos)
	}
	if q, ok := c.Head(); !ok || q.Event() != (Event{Kind: isa.Load, PC: 5, Addr: 0x40, N: 1}) {
		t.Errorf("Head after run = %v,%v", q, ok)
	}
	if n := c.Pending(p); n != 0 {
		t.Errorf("Pending at the event = %d, want 0", n)
	}
	c.Step()
	if pos := c.Pos(); pos.idx != 1 || pos.off != 0 || pos.Done() != 11 {
		t.Errorf("after the load: pos %+v", pos)
	}
	p, _ = c.Head()
	if n := c.Pending(p); n != 0 {
		t.Errorf("Pending at an entry without a run = %d, want 0", n)
	}
	c.Step()
	if _, ok := c.Head(); ok || !atEnd(c) || c.Done() != 12 {
		t.Errorf("Head at end returned ok (done %d)", c.Done())
	}

	// An ALU entry's run moves the cursor on once consumed.
	b = NewBuilder()
	b.ALU(200)
	b.Branch(7, false)
	c = NewCursor(b.Finish())
	p, _ = c.Head()
	if n := take(c, p, 150); n != 150 || c.Pos().idx != 0 {
		t.Fatalf("take(150) = %d at %+v", n, c.Pos())
	}
	if n := take(c, p, 150); n != 50 || c.Pos().idx != 1 || c.Pos().off != 0 {
		t.Errorf("take(150) = %d at %+v, want 50 and the next entry", n, c.Pos())
	}
}
