package trace

import (
	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// Pos is a saved cursor position — the state a sub-thread checkpoint needs to
// restart execution from (the register-file backup of §2.2 is modeled as
// zero-cost, so a position is all there is to save).
type Pos struct {
	idx  int    // event index
	off  uint32 // instructions already consumed inside events[idx]
	done uint64 // total instructions consumed before this position
}

// Done reports how many dynamic instructions precede the position.
func (p Pos) Done() uint64 { return p.done }

// Index reports the event index of the position.
func (p Pos) Index() int { return p.idx }

// Offset reports the instructions already consumed inside the event at Index.
func (p Pos) Offset() uint32 { return p.off }

// MakePos reconstructs a position from its components — the inverse of
// Index/Offset/Done, used by the whole-machine snapshot codec to restore
// cursor and checkpoint state. Check a position from outside the process
// with Trace.ValidPos before a cursor seeks to it.
func MakePos(idx int, off uint32, done uint64) Pos {
	return Pos{idx: idx, off: off, done: done}
}

// ValidPos reports whether a cursor over t can hold p: its index lies within
// the trace or at its end, its offset is below the run length for an ALU
// run and 0 for a one-instruction entry and at the end, and it counts no
// more instructions done than t holds. TakeALU subtracts the offset from the
// run length, so a position past its run would never finish it.
func (t *Trace) ValidPos(p Pos) bool {
	switch {
	case p.idx < 0 || p.idx > len(t.events) || p.done > t.instrs:
		return false
	case p.idx < len(t.events) && t.events[p.idx].kind == isa.ALU:
		return p.off < t.events[p.idx].arg
	default:
		return p.off == 0
	}
}

// Cursor walks a Trace, supporting checkpoint (Pos) and rewind (Seek).
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
// the end of the trace. An ALU run may be partly consumed already (see
// Pos.Offset).
func (c *Cursor) Head() (p Packed, ok bool) {
	if c.pos.idx >= len(c.t.events) {
		return Packed{}, false
	}
	return c.t.events[c.pos.idx], true
}

// TakeALU consumes up to max instructions of the ALU run at the cursor and
// returns how many it consumed, so a 4-wide core can consume a long run
// across several cycles. The entry at the cursor must be an ALU run.
func (c *Cursor) TakeALU(max uint32) uint32 {
	run := c.t.events[c.pos.idx].arg
	n := min(run-c.pos.off, max)
	c.pos.off += n
	c.pos.done += uint64(n)
	if c.pos.off == run {
		c.pos.idx++
		c.pos.off = 0
	}
	return n
}

// Step consumes the entry at the cursor, which must be a one-instruction
// (non-ALU) entry.
func (c *Cursor) Step() {
	c.pos.idx++
	c.pos.done++
}

// Next consumes and returns the next event. For ALU runs it consumes at most
// maxALU instructions and returns an event with the clipped run length, so a
// 4-wide core can consume a long run across several cycles. ok is false at
// end of trace.
func (c *Cursor) Next(maxALU uint32) (ev Event, ok bool) {
	if c.AtEnd() {
		return Event{}, false
	}
	p := &c.t.events[c.pos.idx]
	if p.kind != isa.ALU {
		c.pos.idx++
		c.pos.done++
		return Event{Kind: p.kind, PC: p.pc, Addr: mem.Addr(p.arg), N: 1, Taken: p.taken}, true
	}
	n := p.arg - c.pos.off
	if maxALU < n {
		n = maxALU
	}
	if n == 0 {
		// Caller has no issue slots; treat as a 0-instruction peek miss.
		return Event{}, false
	}
	c.pos.off += n
	c.pos.done += uint64(n)
	if c.pos.off == p.arg {
		c.pos.idx++
		c.pos.off = 0
	}
	return Event{Kind: isa.ALU, N: n}, true
}
