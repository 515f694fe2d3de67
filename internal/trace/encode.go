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
	for i := range t.events {
		p := &t.events[i]
		w.U8(byte(p.kind))
		switch p.kind {
		case isa.ALU:
			w.Uvarint(uint64(p.arg))
		case isa.Branch:
			w.Uvarint(uint64(p.pc))
			w.Bool(p.taken)
		case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
			w.Uvarint(uint64(p.pc))
			w.Uvarint(uint64(p.arg))
		default:
			// Long-latency ops (IntMul, IntDiv, FP*) carry only their kind.
		}
	}
}

// Decode decodes one trace from r. Every field is bounds-checked: a
// truncated or inconsistent stream latches an error in r and returns nil,
// never panics.
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
		p, run := Packed{kind: kind}, uint32(1)
		switch kind {
		case isa.ALU:
			v := r.Uvarint("alu run")
			if v == 0 || v > math.MaxUint32 {
				r.Failf("trace: bad alu run length %d", v)
				return nil
			}
			p.arg, run = uint32(v), uint32(v)
		case isa.Branch:
			pc := r.Uvarint("branch pc")
			p.taken = r.U8("branch outcome") != 0
			if pc > math.MaxUint32 {
				r.Failf("trace: branch pc %d out of range", pc)
				return nil
			}
			p.pc = isa.PC(pc)
		case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
			pc, addr := r.Uvarint("mem pc"), r.Uvarint("mem addr")
			if pc > math.MaxUint32 || addr > math.MaxUint32 {
				r.Failf("trace: pc %d / addr %d out of range", pc, addr)
				return nil
			}
			p.pc, p.arg = isa.PC(pc), uint32(addr)
		}
		if r.Err() != nil {
			return nil
		}
		// The recorded sequence is kept exactly (no ALU merging), while
		// instrs and per-kind counts are recomputed from it.
		t.events[i] = p
		t.count(kind, run)
	}
	return t
}
