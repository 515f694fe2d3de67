package trace

import (
	"math"
	"testing"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// longOps are the kinds Recorder.Op takes.
var longOps = []isa.Kind{isa.IntMul, isa.IntDiv, isa.FPOp, isa.FPDiv, isa.FPSqrt}

// decodeCalls drives r with the Recorder calls data encodes. Each call is an
// opcode byte and its operands, read from the bytes after it (0 where data
// runs out): opcodes 0 and 1 mod 8 record an ALU run of 0–300 instructions,
// so runs too long to fuse and back-to-back runs both occur, and the rest
// record one instruction of each other kind, with PCs up to isa.MaxPC.
func decodeCalls(r Recorder, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	word := func() uint32 { return uint32(next())<<24 | uint32(next())<<16 | uint32(next())<<8 | uint32(next()) }
	pc := func() isa.PC { return isa.PC(word() % (uint32(isa.MaxPC) + 1)) }
	for len(data) > 0 {
		switch op := next(); op % 8 {
		case 0, 1:
			r.ALU((uint32(next())<<8 | uint32(next())) % 301)
		case 2:
			r.Load(pc(), mem.Addr(word()))
		case 3:
			r.Store(pc(), mem.Addr(word()))
		case 4:
			r.Branch(pc(), op&0x80 != 0)
		case 5:
			r.LatchAcquire(pc(), mem.Addr(word()))
		case 6:
			r.LatchRelease(pc(), mem.Addr(word()))
		default:
			r.Op(longOps[int(op>>3)%len(longOps)])
		}
	}
}

// FuzzTraceBuilder records the calls an input encodes into a Builder and a
// plain reference recorder, then checks the packed trace against the
// reference: its entries and counters, the event stream Next yields, the
// instructions an issue loop consumes through Head, Pending, TakeALU and
// Step at every budget from 1 to 4, and every position a cursor can stand
// at, which must seek and round-trip through EventIndex and PosAt, while
// PosAt rejects the malformed ones next to them.
func FuzzTraceBuilder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// Check 3 costs the square of the trace's length; 256 bytes
		// record up to 85 runs of 300.
		data = data[:min(len(data), 256)]
		b, ref := NewBuilder(), &refRecorder{}
		decodeCalls(both{b, ref}, data)
		tr := b.Finish()
		want := ref.evs
		checkEntries(t, tr, want)

		// Check 1: the event stream.
		c := NewCursor(tr)
		for i := 0; ; i++ {
			ev, ok := c.Next(math.MaxUint32)
			if !ok {
				if i != len(want) {
					t.Fatalf("Next ended after %d events, want %d", i, len(want))
				}
				break
			}
			if i >= len(want) || ev != want[i] {
				t.Fatalf("Next event %d = %v, want %v", i, ev, want[min(i, len(want)-1)])
			}
		}

		// Check 2: an issue loop at each budget consumes the same
		// instructions in the same order. Runs are never adjacent in the
		// stream, so merging consecutive ALU takes rebuilds it.
		for budget := uint32(1); budget <= 4; budget++ {
			c.Reset(tr)
			var got []Event
			for !c.AtEnd() {
				for left := budget; left > 0; {
					p, ok := c.Head()
					if !ok {
						break
					}
					n := take(c, p, left)
					switch l := len(got); {
					case n != 0 && l > 0 && got[l-1].Kind == isa.ALU:
						got[l-1].N += n
					case n != 0:
						got = append(got, Event{Kind: isa.ALU, N: n})
					default:
						got = append(got, p.Event())
						c.Step()
						n = 1
					}
					left -= n
				}
			}
			if len(got) != len(want) {
				t.Fatalf("budget %d: issued %d events, want %d", budget, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("budget %d: issued event %d = %v, want %v", budget, i, got[i], want[i])
				}
			}
		}

		// Check 3: every position, one instruction apart, seeks and
		// round-trips through the snapshot coordinates.
		type at struct {
			pos  Pos
			idx  int
			off  uint32
			done uint64
		}
		var all []at
		c.Reset(tr)
		var done uint64
		for idx, w := range want {
			for off := uint32(0); off < w.N || off == 0; off++ {
				if w.Kind != isa.ALU && off != 0 {
					break
				}
				all = append(all, at{c.Pos(), idx, off, done})
				if p, _ := c.Head(); w.Kind == isa.ALU {
					take(c, p, 1)
				} else {
					c.Step()
				}
				done++
			}
			bad := uint32(1) // one-instruction events take no offset
			if w.Kind == isa.ALU {
				bad = w.N // past the run
			}
			if p, ok := tr.PosAt(idx, bad, done); ok {
				t.Fatalf("PosAt(%d, %d) = %+v, ok for %v", idx, bad, p, w)
			}
		}
		all = append(all, at{c.Pos(), len(want), 0, done})
		if !c.AtEnd() || done != tr.Instrs() {
			t.Fatalf("stepping every instruction ended at %+v, done %d of %d", c.Pos(), done, tr.Instrs())
		}
		for _, a := range all {
			if idx, off := tr.EventIndex(a.pos); idx != a.idx || off != a.off || a.pos.Done() != a.done {
				t.Fatalf("position %+v: EventIndex = %d, %d, want %d, %d (done %d)", a.pos, idx, off, a.idx, a.off, a.done)
			}
			if p, ok := tr.PosAt(a.idx, a.off, a.done); !ok || p != a.pos {
				t.Fatalf("PosAt(%d, %d, %d) = %+v, %v, want %+v", a.idx, a.off, a.done, p, ok, a.pos)
			}
			c.Seek(a.pos)
			ev, ok := c.Next(math.MaxUint32)
			switch {
			case a.idx == len(want):
				if ok {
					t.Fatalf("Seek to the end, then Next = %v", ev)
				}
			case want[a.idx].Kind == isa.ALU:
				if rest := (Event{Kind: isa.ALU, N: want[a.idx].N - a.off}); !ok || ev != rest {
					t.Fatalf("Seek to %+v, then Next = %v, %v, want %v", a.pos, ev, ok, rest)
				}
			case !ok || ev != want[a.idx]:
				t.Fatalf("Seek to %+v, then Next = %v, %v, want %v", a.pos, ev, ok, want[a.idx])
			}
		}
		for _, p := range [][3]int64{{int64(len(want)) + 1, 0, 0}, {int64(len(want)), 1, 0}, {-1, 0, 0}, {0, 0, int64(tr.Instrs()) + 1}} {
			if pos, ok := tr.PosAt(int(p[0]), uint32(p[1]), uint64(p[2])); ok {
				t.Fatalf("PosAt%v = %+v, ok", p, pos)
			}
		}
	})
}
