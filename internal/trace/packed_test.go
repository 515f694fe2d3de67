package trace

import (
	"math/rand"
	"testing"
	"unsafe"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

func TestPackedIs8Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Packed(0)); n != 8 {
		t.Fatalf("Packed is %d bytes, want 8", n)
	}
}

func TestFinishIsExactSize(t *testing.T) {
	for _, n := range []int{0, 1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 3*chunkEvents + 7} {
		b := NewBuilder()
		for i := 0; i < n; i++ {
			b.Load(isa.PC(i), mem.Addr(4*i))
		}
		evs := b.Finish().Events()
		if len(evs) != n || cap(evs) != n {
			t.Errorf("%d events: Finish gave len %d cap %d", n, len(evs), cap(evs))
		}
	}
}

// refRecorder is the reference the Builder is checked against: it appends
// plain Events, merging ALU runs by the same rule.
type refRecorder struct{ evs []Event }

func (r *refRecorder) add(e Event) { r.evs = append(r.evs, e) }

func (r *refRecorder) Load(pc isa.PC, a mem.Addr) {
	r.add(Event{Kind: isa.Load, PC: pc, Addr: a, N: 1})
}
func (r *refRecorder) Store(pc isa.PC, a mem.Addr) {
	r.add(Event{Kind: isa.Store, PC: pc, Addr: a, N: 1})
}
func (r *refRecorder) Op(k isa.Kind) { r.add(Event{Kind: k, N: 1}) }
func (r *refRecorder) Branch(pc isa.PC, taken bool) {
	r.add(Event{Kind: isa.Branch, PC: pc, N: 1, Taken: taken})
}
func (r *refRecorder) LatchAcquire(pc isa.PC, a mem.Addr) {
	r.add(Event{Kind: isa.LatchAcquire, PC: pc, Addr: a, N: 1})
}
func (r *refRecorder) LatchRelease(pc isa.PC, a mem.Addr) {
	r.add(Event{Kind: isa.LatchRelease, PC: pc, Addr: a, N: 1})
}
func (r *refRecorder) ALU(n uint32) {
	if n == 0 {
		return
	}
	if l := len(r.evs); l > 0 && r.evs[l-1].Kind == isa.ALU {
		r.evs[l-1].N += n
		return
	}
	r.add(Event{Kind: isa.ALU, N: n})
}

// both fans one call sequence out to the Builder and the reference.
type both [2]Recorder

func (b both) Load(pc isa.PC, a mem.Addr)         { b[0].Load(pc, a); b[1].Load(pc, a) }
func (b both) Store(pc isa.PC, a mem.Addr)        { b[0].Store(pc, a); b[1].Store(pc, a) }
func (b both) ALU(n uint32)                       { b[0].ALU(n); b[1].ALU(n) }
func (b both) Op(k isa.Kind)                      { b[0].Op(k); b[1].Op(k) }
func (b both) Branch(pc isa.PC, taken bool)       { b[0].Branch(pc, taken); b[1].Branch(pc, taken) }
func (b both) LatchAcquire(pc isa.PC, a mem.Addr) { b[0].LatchAcquire(pc, a); b[1].LatchAcquire(pc, a) }
func (b both) LatchRelease(pc isa.PC, a mem.Addr) { b[0].LatchRelease(pc, a); b[1].LatchRelease(pc, a) }

// recordRandom drives r with a seeded sequence over every kind, PCs up to
// isa.MaxPC, full-range addresses, and back-to-back ALU calls (merges, and
// ALU(0), which records nothing), some adding up to a run too long to fuse.
// The sequence fills several chunks; every chunk ends with such a long run,
// which the next call extends from across the boundary, and the trace ends
// with a run of its own.
func recordRandom(r Recorder, b *Builder, rng *rand.Rand) {
	word := func() uint32 { return rng.Uint32() }
	pc := func() isa.PC { return isa.PC(rng.Int63n(int64(isa.MaxPC) + 1)) }
	for b.n < 4*chunkEvents+100 {
		if b.n%chunkEvents == chunkEvents-2 {
			r.Op(isa.IntMul)
			r.ALU(120 + uint32(rng.Intn(8))) // pending
			r.ALU(10 + uint32(rng.Intn(9)))  // outgrows the prefix: the chunk's last entry
			r.ALU(1 + uint32(rng.Intn(9)))   // extends it
		}
		switch k := isa.Kind(rng.Intn(isa.NumKinds)); k {
		case isa.ALU:
			for n := rng.Intn(3); n >= 0; n-- {
				if rng.Intn(20) == 0 {
					r.ALU(uint32(100 + rng.Intn(200)))
				} else {
					r.ALU(uint32(rng.Intn(12)))
				}
			}
		case isa.Load:
			r.Load(pc(), mem.Addr(word()))
		case isa.Store:
			r.Store(pc(), mem.Addr(word()))
		case isa.Branch:
			r.Branch(pc(), rng.Intn(2) == 0)
		case isa.LatchAcquire:
			r.LatchAcquire(pc(), mem.Addr(word()))
		case isa.LatchRelease:
			r.LatchRelease(pc(), mem.Addr(word()))
		default:
			r.Op(k)
		}
	}
	r.ALU(1 + uint32(rng.Intn(9)))
}

// take consumes what the simulator's issue loop would at an issue budget of
// max: up to max of the ALU instructions pending in p, the entry at the
// cursor, through Pending and TakeALU. It returns how many, 0 at p's event.
func take(c *Cursor, p Packed, max uint32) uint32 {
	n := min(c.Pending(p), max)
	if n != 0 {
		c.TakeALU(p, n)
	}
	return n
}

// refEntry is the reference view of one packed entry: the ALU run it
// carries (Run) and its event (Event).
type refEntry struct {
	run uint32
	ev  Event
}

// fuseRef lays a reference event list out as the Builder should pack it: an
// ALU run of at most maxPrefix instructions fused into the event after it,
// any other run in an entry of its own.
func fuseRef(evs []Event) []refEntry {
	var out []refEntry
	for i := 0; i < len(evs); i++ {
		switch e := evs[i]; {
		case e.Kind == isa.ALU && e.N <= maxPrefix && i+1 < len(evs):
			out = append(out, refEntry{e.N, evs[i+1]})
			i++
		case e.Kind == isa.ALU:
			out = append(out, refEntry{e.N, e})
		default:
			out = append(out, refEntry{0, e})
		}
	}
	return out
}

// TestPackedMatchesReference: a seeded random recording packs into exactly
// the entries fuseRef lays a plain recorder's Events out as, and decodes to
// those Events through every Cursor and Packed accessor.
func TestPackedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, ref := NewBuilder(), &refRecorder{}
		recordRandom(both{b, ref}, b, rng)
		tr := b.Finish()
		want := ref.evs
		evs := tr.Events()
		for i := chunkEvents - 1; i < len(evs); i += chunkEvents {
			if p := evs[i]; p.Kind() != isa.ALU || p.Run() <= maxPrefix+1 {
				t.Fatalf("seed %d: entry %d, the last of its chunk, is %v: not an extended ALU run", seed, i, p)
			}
		}
		if last := evs[len(evs)-1]; last.Kind() != isa.ALU || last.Run() > maxPrefix {
			t.Fatalf("seed %d: the trace ends with %v, not its short run", seed, last)
		}

		checkEntries(t, tr, want)
		walkCursor(t, tr, want, rng)
	}
}

// checkEntries compares tr's packed entries with fuseRef's layout of want,
// and its counters with want's.
func checkEntries(t *testing.T, tr *Trace, want []Event) {
	t.Helper()
	evs, fused := tr.Events(), fuseRef(want)
	if len(evs) != len(fused) {
		t.Fatalf("%d entries, want %d", len(evs), len(fused))
	}
	for i, p := range evs {
		w := fused[i]
		if p.Run() != w.run || p.Event() != w.ev || p.Kind() != w.ev.Kind || p.PC() != w.ev.PC || p.Taken() != w.ev.Taken {
			t.Fatalf("entry %d = %v (run %d), want run %d then %v", i, p, p.Run(), w.run, w.ev)
		}
	}
	var instrs uint64
	var counts [isa.NumKinds]uint64
	for _, e := range want {
		instrs += uint64(e.N)
		counts[e.Kind] += uint64(e.N)
	}
	if tr.Instrs() != instrs {
		t.Errorf("Instrs = %d, want %d", tr.Instrs(), instrs)
	}
	for k := range counts {
		if got := tr.Count(isa.Kind(k)); got != counts[k] {
			t.Errorf("Count(%v) = %d, want %d", isa.Kind(k), got, counts[k])
		}
	}
}

// walkCursor steps a Cursor over tr with random ALU clipping, checking Head
// and the Packed accessors, Next, Pending, TakeALU, Step, Done, and Pos through
// EventIndex and PosAt against a model position in want, the event stream,
// and now and then seeks back to a saved position and replays from it.
func walkCursor(t *testing.T, tr *Trace, want []Event, rng *rand.Rand) {
	t.Helper()
	type model struct {
		idx  int
		off  uint32
		done uint64
	}
	type mark struct {
		pos Pos
		at  model
	}
	c := NewCursor(tr)
	var m model
	var marks []mark
	seeks := 0
	for m.idx < len(want) {
		w := want[m.idx]
		p, ok := c.Head()
		// The head entry holds w, as its run or as its event.
		switch {
		case !ok:
			t.Fatalf("at %+v: Head at the end, want %v", m, w)
		case w.Kind != isa.ALU:
			if p.Event() != w || p.Kind() != w.Kind || p.PC() != w.PC || p.Taken() != w.Taken || c.Pos().Offset() != p.Run() {
				t.Fatalf("at %+v: Head = %v at offset %d, want %v", m, p, c.Pos().Offset(), w)
			}
		case p.Run() != w.N || p.Kind() == isa.ALU && p.Event() != w ||
			p.Kind() != isa.ALU && (m.idx+1 >= len(want) || p.Event() != want[m.idx+1]):
			t.Fatalf("at %+v: Head = %v (run %d), want %v", m, p, p.Run(), w)
		}
		if idx, off := tr.EventIndex(c.Pos()); idx != m.idx || off != m.off {
			t.Fatalf("at %+v: EventIndex(%+v) = %d, %d", m, c.Pos(), idx, off)
		}
		if pos, ok := tr.PosAt(m.idx, m.off, m.done); !ok || pos != c.Pos() {
			t.Fatalf("at %+v: PosAt = %+v, %v; the cursor is at %+v", m, pos, ok, c.Pos())
		}
		if w.Kind == isa.ALU {
			if ev, ok := c.Next(0); ok {
				t.Fatalf("at %+v: Next(0) consumed %v", m, ev)
			}
		}
		maxALU := 1 + uint32(rng.Intn(8))
		w.N -= m.off
		if w.Kind == isa.ALU {
			w.N = min(w.N, maxALU)
			m.off += w.N
			if m.off == want[m.idx].N {
				m.idx, m.off = m.idx+1, 0
			}
		} else {
			m.idx++
		}
		m.done += uint64(w.N)
		// The simulator consumes through Pending, TakeALU and Step; Next is
		// their composition, and both must agree.
		switch {
		case rng.Intn(2) == 0:
			if ev, ok := c.Next(maxALU); !ok || ev != w {
				t.Fatalf("Next(%d) = %v,%v, want %v", maxALU, ev, ok, w)
			}
		case w.Kind == isa.ALU:
			if n := take(c, p, maxALU); n != w.N {
				t.Fatalf("take(%d) = %d, want %d", maxALU, n, w.N)
			}
		default:
			if n := c.Pending(p); n != 0 {
				t.Fatalf("Pending at %v = %d, want 0", w, n)
			}
			c.Step()
		}
		if c.Done() != m.done || c.Pos().Done() != m.done {
			t.Fatalf("after consuming: pos %+v done %d, want %+v", c.Pos(), c.Done(), m)
		}
		switch r := rng.Intn(100); {
		case r < 2:
			marks = append(marks, mark{c.Pos(), m})
		case r < 3 && len(marks) > 0 && seeks < 30:
			mk := marks[rng.Intn(len(marks))]
			c.Seek(mk.pos)
			m = mk.at
			seeks++
		}
	}
	if idx, off := tr.EventIndex(c.Pos()); !c.AtEnd() || c.Done() != tr.Instrs() || idx != len(want) || off != 0 {
		t.Fatalf("walk ended at done %d (at end %v, event %d), trace has %d", c.Done(), c.AtEnd(), idx, tr.Instrs())
	}
	if p, ok := c.Head(); ok {
		t.Fatalf("Head past the end returned %v", p)
	}
	if _, ok := c.Next(8); ok {
		t.Fatal("Next past the end returned ok")
	}
	if seeks == 0 {
		t.Fatal("walk never sought back")
	}
}
