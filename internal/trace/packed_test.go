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
// ALU(0), which records nothing). The sequence fills several chunks, and
// every chunk ends with an ALU run that the next call merges into from
// across the boundary.
func recordRandom(r Recorder, b *Builder, rng *rand.Rand) {
	word := func() uint32 { return rng.Uint32() }
	pc := func() isa.PC { return isa.PC(rng.Int63n(int64(isa.MaxPC) + 1)) }
	for b.n < 4*chunkEvents+100 {
		if b.n%chunkEvents == chunkEvents-2 {
			r.Op(isa.IntMul)
			r.ALU(1 + uint32(rng.Intn(9))) // the chunk's last entry
			r.ALU(1 + uint32(rng.Intn(9))) // merges into it
		}
		switch k := isa.Kind(rng.Intn(isa.NumKinds)); k {
		case isa.ALU:
			for n := rng.Intn(3); n >= 0; n-- {
				r.ALU(uint32(rng.Intn(12)))
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
}

// TestPackedMatchesReference: a seeded random recording decodes to exactly
// the Events a plain recorder appends, through Events and every Cursor and
// Packed accessor.
func TestPackedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, ref := NewBuilder(), &refRecorder{}
		recordRandom(both{b, ref}, b, rng)
		tr := b.Finish()
		want := ref.evs
		for i := chunkEvents - 1; i < len(want); i += chunkEvents {
			if want[i].Kind != isa.ALU || want[i].N < 2 {
				t.Fatalf("seed %d: event %d, the last of its chunk, is %v: not a merged ALU run", seed, i, want[i])
			}
		}

		checkEvents(t, "Events", tr, want)
		walkCursor(t, tr, want, rng)
	}
}

// checkEvents compares tr's decoded entries and counters with want.
func checkEvents(t *testing.T, what string, tr *Trace, want []Event) {
	t.Helper()
	evs := tr.Events()
	if len(evs) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(evs), len(want))
	}
	var instrs uint64
	var counts [isa.NumKinds]uint64
	for i, p := range evs {
		if got := p.Event(); got != want[i] {
			t.Fatalf("%s: event %d = %v, want %v", what, i, got, want[i])
		}
		instrs += uint64(want[i].N)
		counts[want[i].Kind] += uint64(want[i].N)
	}
	if tr.Instrs() != instrs {
		t.Errorf("%s: Instrs = %d, want %d", what, tr.Instrs(), instrs)
	}
	for k := range counts {
		if got := tr.Count(isa.Kind(k)); got != counts[k] {
			t.Errorf("%s: Count(%v) = %d, want %d", what, isa.Kind(k), got, counts[k])
		}
	}
}

// walkCursor steps a Cursor over tr with random ALU clipping, checking Head
// and the Packed accessors, Next, TakeALU, Step, Done, Pos and ValidPos
// against a model position in want, and now and then seeks back to a saved
// position and replays from it.
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
		if !ok || p.Event() != w || p.Kind() != w.Kind || p.PC() != w.PC || p.Taken() != w.Taken {
			t.Fatalf("at %+v: Head = %v,%v, want %v", m, p, ok, w)
		}
		if !tr.ValidPos(c.Pos()) {
			t.Fatalf("at %+v: ValidPos(%+v) = false", m, c.Pos())
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
		// The simulator consumes through TakeALU and Step; Next is
		// their composition, and both must agree.
		switch {
		case rng.Intn(2) == 0:
			if ev, ok := c.Next(maxALU); !ok || ev != w {
				t.Fatalf("Next(%d) = %v,%v, want %v", maxALU, ev, ok, w)
			}
		case w.Kind == isa.ALU:
			if n := c.TakeALU(maxALU); n != w.N {
				t.Fatalf("TakeALU(%d) = %d, want %d", maxALU, n, w.N)
			}
		default:
			c.Step()
		}
		if p := c.Pos(); c.Done() != m.done || p.Done() != m.done || p.Index() != m.idx || p.Offset() != m.off {
			t.Fatalf("after consuming: pos %+v done %d, want %+v", p, c.Done(), m)
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
	if !c.AtEnd() || c.Done() != tr.Instrs() || !tr.ValidPos(c.Pos()) {
		t.Fatalf("walk ended at done %d (at end %v), trace has %d", c.Done(), c.AtEnd(), tr.Instrs())
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
