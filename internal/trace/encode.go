package trace

import (
	"encoding/binary"
	"fmt"

	"subthreads/internal/isa"
)

// Compact binary encoding of a Trace, used by the persistent build-artifact
// cache (internal/cas via internal/workload). The encoding is hand-rolled
// rather than gob/reflection so it is small, fast, versioned at the
// container level (workload's Built frame), and byte-stable: one event costs
// 1 byte of kind plus only the varint fields that kind actually carries.
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

// AppendBinary appends the compact encoding of t to buf and returns the
// extended slice.
func (t *Trace) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t.events)))
	for i := range t.events {
		p := &t.events[i]
		buf = append(buf, byte(p.kind))
		switch p.kind {
		case isa.ALU:
			buf = binary.AppendUvarint(buf, uint64(p.arg))
		case isa.Branch:
			buf = binary.AppendUvarint(buf, uint64(p.pc))
			taken := byte(0)
			if p.taken {
				taken = 1
			}
			buf = append(buf, taken)
		case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
			buf = binary.AppendUvarint(buf, uint64(p.pc))
			buf = binary.AppendUvarint(buf, uint64(p.arg))
		default:
			// Long-latency ops (IntMul, IntDiv, FP*) carry only their kind.
		}
	}
	return buf
}

// DecodeBinary decodes one trace from the front of data, returning the
// trace and the unconsumed remainder. Every field is bounds-checked: a
// truncated or inconsistent stream is an error, never a panic.
func DecodeBinary(data []byte) (*Trace, []byte, error) {
	n, data, err := uvarint(data, "event count")
	if err != nil {
		return nil, nil, err
	}
	if n > maxEvents {
		return nil, nil, fmt.Errorf("trace: implausible event count %d", n)
	}
	if n > uint64(len(data)) {
		// Every event costs at least its kind byte.
		return nil, nil, fmt.Errorf("trace: %d events truncated to %d bytes", n, len(data))
	}
	t := &Trace{events: make([]Packed, n)}
	for i := range t.events {
		if len(data) == 0 {
			return nil, nil, fmt.Errorf("trace: truncated at event %d/%d", i, n)
		}
		kind := isa.Kind(data[0])
		data = data[1:]
		if int(kind) >= isa.NumKinds {
			return nil, nil, fmt.Errorf("trace: unknown event kind %d", kind)
		}
		p, run := Packed{kind: kind}, uint32(1)
		switch kind {
		case isa.ALU:
			var v uint64
			v, data, err = uvarint(data, "alu run")
			if err != nil {
				return nil, nil, err
			}
			if v == 0 || v > 1<<32-1 {
				return nil, nil, fmt.Errorf("trace: bad alu run length %d", v)
			}
			p.arg, run = uint32(v), uint32(v)
		case isa.Branch:
			var pc uint64
			pc, data, err = uvarint(data, "branch pc")
			if err != nil {
				return nil, nil, err
			}
			if len(data) == 0 {
				return nil, nil, fmt.Errorf("trace: truncated branch outcome")
			}
			if pc > 1<<32-1 {
				return nil, nil, fmt.Errorf("trace: branch pc %d out of range", pc)
			}
			p.pc, p.taken = isa.PC(pc), data[0] != 0
			data = data[1:]
		case isa.Load, isa.Store, isa.LatchAcquire, isa.LatchRelease:
			var pc, addr uint64
			pc, data, err = uvarint(data, "mem pc")
			if err != nil {
				return nil, nil, err
			}
			addr, data, err = uvarint(data, "mem addr")
			if err != nil {
				return nil, nil, err
			}
			if pc > 1<<32-1 || addr > 1<<32-1 {
				return nil, nil, fmt.Errorf("trace: pc %d / addr %d out of range", pc, addr)
			}
			p.pc, p.arg = isa.PC(pc), uint32(addr)
		}
		// The recorded sequence is kept exactly (no ALU merging), while
		// instrs and per-kind counts are recomputed from it.
		t.events[i] = p
		t.count(kind, run)
	}
	return t, data, nil
}

// uvarint consumes one varint from data, naming the field in errors.
func uvarint(data []byte, field string) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("trace: bad varint for %s", field)
	}
	return v, data[n:], nil
}
