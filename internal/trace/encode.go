package trace

import (
	"math"

	"subthreads/internal/isa"
	"subthreads/internal/snapbin"
)

// Compact binary encoding of a Trace, written and read through snapbin
// inside workload's Built frame, which the persistent build-artifact cache
// (internal/cas) stores. The encoding is hand-rolled rather than
// gob/reflection so it is small, fast, versioned at the container level, and
// byte-stable: one event costs 1 byte of kind plus only the varint fields
// that kind actually carries.
//
// Decoding reconstructs the exact event sequence — ALU run lengths included
// — so a decoded trace replays cycle-identically to the recorded one; the
// derived instruction and per-kind counters are recomputed from the events,
// keeping a decoded trace self-consistent by construction.

// maxEvents bounds a single trace's decoded event count (a sanity cap so a
// corrupted-but-well-framed length cannot force a giant allocation; real
// traces run to a few million events: at -txns 3 one NEW ORDER 150
// sequential unit holds about 1.3M).
const maxEvents = 1 << 28

// Encode appends the compact encoding of t to w.
func (t *Trace) Encode(w *snapbin.Writer) {
	w.Uvarint(uint64(len(t.events)))
	for _, p := range t.events {
		w.U8(byte(p.Kind()))
		switch p.Kind() {
		case isa.ALU:
			w.Uvarint(uint64(p.arg()))
		case isa.Branch:
			w.Uvarint(uint64(p.PC()))
			w.Bool(p.Taken())
		case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
			w.Uvarint(uint64(p.PC()))
			w.Uvarint(uint64(p.arg()))
		default:
			// Long-latency ops (IntMul, IntDiv, FP*) carry only their kind.
		}
	}
}

// Decode decodes one trace from r. Every field is bounds-checked: a
// truncated or inconsistent stream, or a PC past isa.MaxPC, latches an
// error in r and returns nil, never panics.
func Decode(r *snapbin.Reader) *Trace {
	// Count caps the events at the bytes left: each costs at least its
	// kind byte.
	n := r.Count("trace events", maxEvents)
	if r.Err() != nil {
		return nil
	}
	t := &Trace{events: make([]Packed, n)}
	for i := range t.events {
		kind := isa.Kind(r.U8("event kind"))
		if int(kind) >= isa.NumKinds {
			r.Failf("trace: unknown event kind %d", kind)
			return nil
		}
		var pc, arg uint64
		taken, run := false, uint32(1)
		switch kind {
		case isa.ALU:
			arg = r.Uvarint("alu run")
			if arg == 0 || arg > math.MaxUint32 {
				r.Failf("trace: bad alu run length %d", arg)
				return nil
			}
			run = uint32(arg)
		case isa.Branch:
			pc = r.Uvarint("branch pc")
			taken = r.U8("branch outcome") != 0
		case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
			pc, arg = r.Uvarint("mem pc"), r.Uvarint("mem addr")
			if arg > math.MaxUint32 {
				r.Failf("trace: addr %d out of range", arg)
				return nil
			}
		}
		if r.Err() != nil {
			return nil
		}
		if pc > uint64(isa.MaxPC) {
			r.Failf("trace: pc %d past the largest issued pc %d", pc, isa.MaxPC)
			return nil
		}
		// The recorded sequence is kept exactly (no ALU merging), while
		// instrs and per-kind counts are recomputed from it.
		p := pack(kind, isa.PC(pc), uint32(arg))
		if taken {
			p |= takenBit
		}
		t.events[i] = p
		t.count(kind, run)
	}
	return t
}
