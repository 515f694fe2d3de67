package trace

import (
	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// Pos is a saved cursor position — the state a sub-thread checkpoint needs to
// restart execution from (the register-file backup of §2.2 is modeled as
// zero-cost, so a position is all there is to save). A position lies inside
// an entry: within the ALU run it carries (off below the entry's Run), or at
// its event once that run is consumed (off equal to a fused prefix's length,
// 0 for an entry without one).
type Pos struct {
	idx  int    // entry index
	off  uint32 // instructions already consumed of the run events[idx] carries
	done uint64 // total instructions consumed before this position
}

// Done reports how many dynamic instructions precede the position.
func (p Pos) Done() uint64 { return p.done }

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

// Done reports the number of dynamic instructions consumed so far.
func (c *Cursor) Done() uint64 { return c.pos.done }

// Pos returns the current position for later Seek.
func (c *Cursor) Pos() Pos { return c.pos }

// Seek rewinds (or forwards) the cursor to a previously captured position.
func (c *Cursor) Seek(p Pos) { c.pos = p }

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
