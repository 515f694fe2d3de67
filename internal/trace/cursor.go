package trace

import (
	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// Pos is a saved cursor position — the state a sub-thread checkpoint needs to
// restart execution from (the register-file backup of §2.2 is modeled as
// zero-cost, so a position is all there is to save). A position lies inside
// an entry: within the ALU run it carries (Offset below the entry's Run), or
// at its event once that run is consumed (Offset equal to a fused prefix's
// length, 0 for an entry without one).
type Pos struct {
	idx  int    // entry index
	off  uint32 // instructions already consumed of the run events[idx] carries
	done uint64 // total instructions consumed before this position
}

// Done reports how many dynamic instructions precede the position.
func (p Pos) Done() uint64 { return p.done }

// Index reports the index of the entry the position lies in.
func (p Pos) Index() int { return p.idx }

// Offset reports the instructions already consumed of the ALU run the entry
// at Index carries.
func (p Pos) Offset() uint32 { return p.off }

// EventIndex reports p in the coordinates of the unfused event stream that
// Next yields, where an ALU run fused into an entry and the entry's event
// count as two events: the index of the event p lies in, and the
// instructions already consumed inside it. The snapshot codec writes
// positions in these coordinates; PosAt is the inverse. A nil t stands for
// a trace not at hand, whose positions keep their coordinates as they are
// (see PosAt).
func (t *Trace) EventIndex(p Pos) (idx int, off uint32) {
	if t == nil {
		return p.idx, p.off
	}
	idx = p.idx
	for _, e := range t.events[:p.idx] {
		if e.prefix() != 0 {
			idx++
		}
	}
	if p.idx < len(t.events) {
		if n := t.events[p.idx].prefix(); n != 0 && p.off == n {
			return idx + 1, 0 // at the event the run is fused into
		}
	}
	return idx, p.off
}

// PosAt returns the position at event idx of t's unfused event stream, off
// instructions into it, with done instructions before it: the inverse of
// EventIndex. ok is false where no cursor over t can stand: idx outside the
// stream or past its end, off not below the run's length inside an ALU run
// (Pending would wrap there, and the run would never end) or not 0 at any
// other event or at the end, or more instructions done than t holds. With
// ok false, p is still the position the coordinates name inside an ALU run,
// so that a test can build one past its run; elsewhere it is the zero Pos.
//
// A nil t stands for a trace not at hand: p then keeps the coordinates as
// they are, and ok is true. The snapshot codec restores an idle core's
// checkpoints so; no cursor seeks to them before a new unit replaces them.
func (t *Trace) PosAt(idx int, off uint32, done uint64) (p Pos, ok bool) {
	if t == nil {
		return Pos{idx: idx, off: off, done: done}, true
	}
	if idx < 0 {
		return Pos{}, false
	}
	ok = done <= t.instrs
	rest := idx // events still to pass
	for i, e := range t.events {
		n := e.prefix()
		switch run := e.Run(); {
		case rest == 0 && run != 0: // in the entry's run
			return Pos{idx: i, off: off, done: done}, ok && off < run
		case rest == 0 || rest == 1 && n != 0: // at its event
			if off != 0 {
				return Pos{}, false
			}
			return Pos{idx: i, off: n, done: done}, ok
		case n != 0:
			rest -= 2
		default:
			rest--
		}
	}
	if rest != 0 || off != 0 {
		return Pos{}, false
	}
	return Pos{idx: len(t.events), done: done}, ok
}

// Cursor walks a Trace, supporting checkpoint (Pos) and rewind (Seek). It
// presents the unfused event stream: an entry's ALU run first, then its
// event.
type Cursor struct {
	t   *Trace
	pos Pos
}

// NewCursor returns a cursor at the start of t.
func NewCursor(t *Trace) *Cursor { return &Cursor{t: t} }

// Reset repoints the cursor at the start of t, allowing one cursor to be
// reused across traces (the simulator keeps one per core).
func (c *Cursor) Reset(t *Trace) {
	c.t = t
	c.pos = Pos{}
}

// Trace returns the trace being walked.
func (c *Cursor) Trace() *Trace { return c.t }

// AtEnd reports whether the whole trace has been consumed.
func (c *Cursor) AtEnd() bool { return c.pos.idx >= len(c.t.events) }

// Done reports the number of dynamic instructions consumed so far.
func (c *Cursor) Done() uint64 { return c.pos.done }

// Pos returns the current position for later Seek.
func (c *Cursor) Pos() Pos { return c.pos }

// Seek rewinds (or forwards) the cursor to a previously captured position.
func (c *Cursor) Seek(p Pos) { c.pos = p }

// Rewind returns the cursor to the start of the trace.
func (c *Cursor) Rewind() { c.pos = Pos{} }

// Head returns the entry at the cursor without consuming it; ok is false at
// the end of the trace. The ALU run the entry carries may be partly or
// wholly consumed already (see Pending).
func (c *Cursor) Head() (p Packed, ok bool) {
	if c.pos.idx >= len(c.t.events) {
		return 0, false
	}
	return c.t.events[c.pos.idx], true
}

// Pending reports the instructions of the ALU run p carries that the cursor
// has still to consume before p's event, where p is the entry at the cursor
// (Head): 0 when the cursor is at the event.
func (c *Cursor) Pending(p Packed) uint32 { return p.Run() - c.pos.off }

// TakeALU consumes n of the ALU instructions pending in p, the entry at the
// cursor, where 0 < n <= Pending(p), so a 4-wide core can consume a long run
// across several cycles. Consuming the last of an ALU entry's run moves the
// cursor to the next entry; the last of a fused prefix leaves it at the
// entry's event, which Step then consumes.
func (c *Cursor) TakeALU(p Packed, n uint32) {
	c.pos.off += n
	c.pos.done += uint64(n)
	if p.Kind() == isa.ALU && c.pos.off == p.arg() {
		c.pos.idx++
		c.pos.off = 0
	}
}

// Step consumes the event of the entry at the cursor, whose ALU run must be
// consumed already (Pending is 0).
func (c *Cursor) Step() {
	c.pos.idx++
	c.pos.off = 0
	c.pos.done++
}

// Next consumes and returns the next event. For ALU runs it consumes at most
// maxALU instructions and returns an event with the clipped run length, so a
// 4-wide core can consume a long run across several cycles. ok is false at
// end of trace.
func (c *Cursor) Next(maxALU uint32) (ev Event, ok bool) {
	p, ok := c.Head()
	if !ok {
		return Event{}, false
	}
	if n := c.Pending(p); n != 0 {
		n = min(n, maxALU)
		if n == 0 {
			// Caller has no issue slots; treat as a 0-instruction peek miss.
			return Event{}, false
		}
		c.TakeALU(p, n)
		return Event{Kind: isa.ALU, N: n}, true
	}
	c.Step()
	return Event{Kind: p.Kind(), PC: p.PC(), Addr: mem.Addr(p.arg()), N: 1, Taken: p.Taken()}, true
}
