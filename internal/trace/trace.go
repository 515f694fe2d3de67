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

// Event is the decoded view of one event of a trace, as Cursor.Next yields
// it. ALU events are run-length compressed: N consecutive simple integer
// instructions become a single event. All other kinds have N == 1. A packed
// entry holds one event, or two when an ALU run is fused into it.
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

// Packed is the in-memory form of one trace entry, one 64-bit word where
// Event takes 20 bytes. An entry holds one non-ALU instruction together with
// the ALU run recorded just before it, fused in as its prefix, so a program
// takes one word per non-ALU instruction. The low 32 bits hold the entry's
// argument: the address for memory and latch kinds, a standalone run's
// length for an ALU entry and zero otherwise. Above it sit a 20-bit PC
// (isa.MaxPC bounds every issued PC), the 7-bit ALU prefix (0 when no run
// precedes the instruction), the 4-bit kind and the branch outcome, so an
// entry decodes to its Event field by field, whatever its kind. Only a run
// longer than the prefix field holds, or one that ends the trace, keeps an
// ALU entry of its own.
type Packed uint64

const (
	pcShift     = 32
	prefixShift = pcShift + 20
	kindShift   = prefixShift + 7
	takenBit    = Packed(1) << 63

	// maxPrefix is the longest ALU run an entry takes in as its prefix.
	maxPrefix = 1<<7 - 1
)

// pack builds an entry with no prefix. It masks pc to its 20 bits, so an
// entry keeps its kind whatever PC a caller passes.
func pack(k isa.Kind, pc isa.PC, arg uint32) Packed {
	return Packed(arg) | Packed(pc&isa.MaxPC)<<pcShift | Packed(k)<<kindShift
}

// Kind reports the kind of the entry's instruction.
func (p Packed) Kind() isa.Kind { return isa.Kind(p >> kindShift & 0xf) }

// PC reports the entry's instrumentation site; it is 0 for ALU entries and
// long-latency ops.
func (p Packed) PC() isa.PC { return isa.PC(p>>pcShift) & isa.MaxPC }

// Taken reports a branch entry's outcome.
func (p Packed) Taken() bool { return p&takenBit != 0 }

// arg reports the entry's argument: an address, or an ALU entry's length.
func (p Packed) arg() uint32 { return uint32(p) }

// prefix reports the length of the ALU run fused ahead of the entry's
// instruction, 0 for none and for an ALU entry.
func (p Packed) prefix() uint32 { return uint32(p>>prefixShift) & maxPrefix }

// Run reports the ALU instructions the entry carries ahead of its event: a
// fused prefix (0 for none), or an ALU entry's whole run. It takes no
// branch: an ALU entry's kind and prefix bits are 0, and mask keeps its
// argument only then.
func (p Packed) Run() uint32 {
	mask := uint32(int32(uint32(p>>kindShift)&0xf-1) >> 31)
	return uint32(p>>prefixShift)&maxPrefix | uint32(p)&mask
}

// Event decodes p's event: the entry's instruction, without the ALU run
// fused ahead of it (see Run), or an ALU entry's whole run.
func (p Packed) Event() Event {
	if p.Kind() == isa.ALU {
		return Event{Kind: isa.ALU, N: p.arg()}
	}
	return Event{Kind: p.Kind(), PC: p.PC(), Addr: mem.Addr(p.arg()), N: 1, Taken: p.Taken()}
}

func (p Packed) String() string {
	if n := p.prefix(); n != 0 {
		return fmt.Sprintf("alu x%d; %v", n, p.Event())
	}
	return p.Event().String()
}

// Trace is an immutable recorded instruction stream.
type Trace struct {
	events []Packed
	instrs uint64
	counts [isa.NumKinds]uint64
}

// Events returns the underlying packed entries (read-only by convention);
// an entry's index is the Index of the cursor positions inside it.
func (t *Trace) Events() []Packed { return t.events }

// Instrs is the total dynamic instruction count of the trace.
func (t *Trace) Instrs() uint64 { return t.instrs }

// Count reports how many dynamic instructions of kind k the trace holds.
func (t *Trace) Count(k isa.Kind) uint64 { return t.counts[k] }

// MemRefs is the number of loads plus stores.
func (t *Trace) MemRefs() uint64 { return t.counts[isa.Load] + t.counts[isa.Store] }

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

// chunkEvents is the size of one Builder chunk: 1,024 entries, 8 KiB.
const chunkEvents = 1 << 10

// Builder accumulates events into a Trace. It merges consecutive ALU runs
// into one pending run and fuses that into the entry of the next non-ALU
// instruction as its prefix. A run that grows past maxPrefix instructions
// takes an ALU entry of its own instead, and so does one still pending when
// the trace ends. It appends into fixed-size chunks, so recording never
// copies what it already holds; Finish copies the chunks once into an
// exact-size trace. PCs are those an isa.PCRegistry issues: a PC past
// isa.MaxPC is recorded modulo 2^20.
type Builder struct {
	chunks []*[chunkEvents]Packed // allocated chunks; the first n entries are recorded
	n      int
	run    uint32 // pending ALU run, at most maxPrefix, not yet in an entry
	t      Trace  // instruction counters only; its events stay nil
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Reset discards everything recorded so far, keeping the chunks for reuse.
func (b *Builder) Reset() {
	b.n = 0
	b.run = 0
	b.t = Trace{}
}

// Finish returns the recorded trace as an exact-size copy, a pending ALU run
// as its last entry: the Builder keeps its contents, and later recording or
// a Reset does not touch the trace.
func (b *Builder) Finish() *Trace {
	t := b.t
	n := b.n
	if b.run != 0 {
		n++
	}
	t.events = make([]Packed, n)
	for i, rest := 0, t.events[:b.n]; len(rest) > 0; i++ {
		rest = rest[copy(rest, b.chunks[i][:]):]
	}
	if b.run != 0 {
		t.events[b.n] = pack(isa.ALU, 0, b.run)
	}
	return &t
}

// Instrs reports the instructions recorded so far.
func (b *Builder) Instrs() uint64 { return b.t.instrs }

// push appends p, a one-instruction entry, with the pending ALU run fused in
// as its prefix.
func (b *Builder) push(p Packed) {
	b.put(p | Packed(b.run)<<prefixShift)
	b.run = 0
	b.t.instrs++
	b.t.counts[p.Kind()]++
}

// put appends the entry p.
func (b *Builder) put(p Packed) {
	c, i := b.n/chunkEvents, b.n%chunkEvents
	if c == len(b.chunks) {
		b.chunks = append(b.chunks, new([chunkEvents]Packed))
	}
	b.chunks[c][i] = p
	b.n++
}

// Load implements Recorder.
func (b *Builder) Load(pc isa.PC, addr mem.Addr) {
	b.push(pack(isa.Load, pc, uint32(addr)))
}

// Store implements Recorder.
func (b *Builder) Store(pc isa.PC, addr mem.Addr) {
	b.push(pack(isa.Store, pc, uint32(addr)))
}

// ALU implements Recorder, adding n instructions to the pending run. A run
// that outgrows the prefix field becomes an ALU entry, which later calls
// extend until the next non-ALU instruction.
func (b *Builder) ALU(n uint32) {
	b.t.instrs += uint64(n)
	b.t.counts[isa.ALU] += uint64(n)
	if b.run == 0 && b.n > 0 {
		if last := &b.chunks[(b.n-1)/chunkEvents][(b.n-1)%chunkEvents]; last.Kind() == isa.ALU {
			*last = pack(isa.ALU, 0, last.arg()+n)
			return
		}
	}
	if n > maxPrefix-b.run {
		b.put(pack(isa.ALU, 0, b.run+n))
		b.run = 0
		return
	}
	b.run += n
}

// Op implements Recorder.
func (b *Builder) Op(k isa.Kind) {
	b.push(pack(k, 0, 0))
}

// Branch implements Recorder.
func (b *Builder) Branch(pc isa.PC, taken bool) {
	p := pack(isa.Branch, pc, 0)
	if taken {
		p |= takenBit
	}
	b.push(p)
}

// LatchAcquire implements Recorder.
func (b *Builder) LatchAcquire(pc isa.PC, addr mem.Addr) {
	b.push(pack(isa.LatchAcquire, pc, uint32(addr)))
}

// LatchRelease implements Recorder.
func (b *Builder) LatchRelease(pc isa.PC, addr mem.Addr) {
	b.push(pack(isa.LatchRelease, pc, uint32(addr)))
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
