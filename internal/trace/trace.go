// Package trace holds the instruction traces that the workload substrate
// records and the simulator replays. A speculative thread (epoch) is one
// trace; rewinding to a sub-thread checkpoint is implemented by seeking the
// trace cursor back to a saved position and replaying — deterministic replay
// is exactly what the paper's trace-driven simulator does when a violated
// thread restarts.
package trace

import (
	"fmt"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

// Event is the decoded view of one trace entry. ALU events are run-length
// compressed: N consecutive simple integer instructions become a single
// event with N > 1. All other kinds have N == 1.
type Event struct {
	Kind  isa.Kind
	PC    isa.PC
	Addr  mem.Addr // Load, Store, LatchAcquire, LatchRelease
	N     uint32   // run length; >= 1
	Taken bool     // Branch outcome
}

func (e Event) String() string {
	switch e.Kind {
	case isa.ALU:
		return fmt.Sprintf("alu x%d", e.N)
	case isa.Branch:
		return fmt.Sprintf("branch pc=%d taken=%v", e.PC, e.Taken)
	case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
		return fmt.Sprintf("%v pc=%d addr=%v", e.Kind, e.PC, e.Addr)
	default:
		return e.Kind.String()
	}
}

// Packed is the in-memory form of one trace entry, 12 bytes where Event
// takes 20. Its one 32-bit argument is the address for memory and latch
// kinds, the run length for ALU runs and zero otherwise, so a non-ALU entry
// decodes to an Event field by field, whatever its kind.
type Packed struct {
	pc    isa.PC
	arg   uint32
	kind  isa.Kind
	taken bool
}

// Kind reports the entry's kind.
func (p Packed) Kind() isa.Kind { return p.kind }

// PC reports the entry's instrumentation site; it is 0 for ALU runs and
// long-latency ops.
func (p Packed) PC() isa.PC { return p.pc }

// Taken reports a branch entry's outcome.
func (p Packed) Taken() bool { return p.taken }

// Event decodes p.
func (p Packed) Event() Event {
	if p.kind == isa.ALU {
		return Event{Kind: isa.ALU, N: p.arg}
	}
	return Event{Kind: p.kind, PC: p.pc, Addr: mem.Addr(p.arg), N: 1, Taken: p.taken}
}

func (p Packed) String() string { return p.Event().String() }

// Trace is an immutable recorded instruction stream.
type Trace struct {
	events []Packed
	instrs uint64
	counts [isa.NumKinds]uint64
}

// Events returns the underlying packed entries (read-only by convention);
// an entry's index is its cursor position.
func (t *Trace) Events() []Packed { return t.events }

// Instrs is the total dynamic instruction count of the trace.
func (t *Trace) Instrs() uint64 { return t.instrs }

// Count reports how many dynamic instructions of kind k the trace holds.
func (t *Trace) Count(k isa.Kind) uint64 { return t.counts[k] }

// MemRefs is the number of loads plus stores.
func (t *Trace) MemRefs() uint64 { return t.counts[isa.Load] + t.counts[isa.Store] }

// count adds n instructions of kind k to the trace's counters.
func (t *Trace) count(k isa.Kind, n uint32) {
	t.instrs += uint64(n)
	t.counts[k] += uint64(n)
}

// Recorder receives the instruction stream emitted by the workload substrate
// while it executes. Builder records it; Null discards it (used when loading
// the database, which is not timed).
type Recorder interface {
	Load(pc isa.PC, addr mem.Addr)
	Store(pc isa.PC, addr mem.Addr)
	ALU(n uint32)
	Op(k isa.Kind) // single long-latency op: IntMul, IntDiv, FPOp, FPDiv, FPSqrt
	Branch(pc isa.PC, taken bool)
	LatchAcquire(pc isa.PC, addr mem.Addr)
	LatchRelease(pc isa.PC, addr mem.Addr)
}

// chunkEvents is the size of one Builder chunk: 1,024 entries, 12 KiB.
const chunkEvents = 1 << 10

// Builder accumulates events into a Trace, merging consecutive ALU runs. It
// appends into fixed-size chunks, so recording never copies what it already
// holds; Finish copies the chunks once into an exact-size trace.
type Builder struct {
	chunks []*[chunkEvents]Packed // allocated chunks; the first n entries are recorded
	n      int
	t      Trace // instruction counters only; its events stay nil
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Reset discards everything recorded so far, keeping the chunks for reuse.
func (b *Builder) Reset() {
	b.n = 0
	b.t = Trace{}
}

// Finish returns the recorded trace as an exact-size copy: the Builder keeps
// its contents, and later recording or a Reset does not touch the trace.
func (b *Builder) Finish() *Trace {
	t := b.t
	t.events = make([]Packed, b.n)
	for i, rest := 0, t.events; len(rest) > 0; i++ {
		rest = rest[copy(rest, b.chunks[i][:]):]
	}
	return &t
}

// Instrs reports the instructions recorded so far.
func (b *Builder) Instrs() uint64 { return b.t.instrs }

// push appends p, which stands for n instructions.
func (b *Builder) push(p Packed, n uint32) {
	c, i := b.n/chunkEvents, b.n%chunkEvents
	if c == len(b.chunks) {
		b.chunks = append(b.chunks, new([chunkEvents]Packed))
	}
	b.chunks[c][i] = p
	b.n++
	b.t.count(p.kind, n)
}

// Load implements Recorder.
func (b *Builder) Load(pc isa.PC, addr mem.Addr) {
	b.push(Packed{kind: isa.Load, pc: pc, arg: uint32(addr)}, 1)
}

// Store implements Recorder.
func (b *Builder) Store(pc isa.PC, addr mem.Addr) {
	b.push(Packed{kind: isa.Store, pc: pc, arg: uint32(addr)}, 1)
}

// ALU implements Recorder, merging into a preceding ALU run when possible.
func (b *Builder) ALU(n uint32) {
	if n == 0 {
		return
	}
	if b.n > 0 {
		if last := &b.chunks[(b.n-1)/chunkEvents][(b.n-1)%chunkEvents]; last.kind == isa.ALU {
			last.arg += n
			b.t.count(isa.ALU, n)
			return
		}
	}
	b.push(Packed{kind: isa.ALU, arg: n}, n)
}

// Op implements Recorder.
func (b *Builder) Op(k isa.Kind) {
	b.push(Packed{kind: k}, 1)
}

// Branch implements Recorder.
func (b *Builder) Branch(pc isa.PC, taken bool) {
	b.push(Packed{kind: isa.Branch, pc: pc, taken: taken}, 1)
}

// LatchAcquire implements Recorder.
func (b *Builder) LatchAcquire(pc isa.PC, addr mem.Addr) {
	b.push(Packed{kind: isa.LatchAcquire, pc: pc, arg: uint32(addr)}, 1)
}

// LatchRelease implements Recorder.
func (b *Builder) LatchRelease(pc isa.PC, addr mem.Addr) {
	b.push(Packed{kind: isa.LatchRelease, pc: pc, arg: uint32(addr)}, 1)
}

// Null is a Recorder that discards everything.
type Null struct{}

func (Null) Load(isa.PC, mem.Addr)         {}
func (Null) Store(isa.PC, mem.Addr)        {}
func (Null) ALU(uint32)                    {}
func (Null) Op(isa.Kind)                   {}
func (Null) Branch(isa.PC, bool)           {}
func (Null) LatchAcquire(isa.PC, mem.Addr) {}
func (Null) LatchRelease(isa.PC, mem.Addr) {}

var _ Recorder = (*Builder)(nil)
var _ Recorder = Null{}
