package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"subthreads/internal/isa"
	"subthreads/internal/sim"
	"subthreads/internal/snapbin"
	"subthreads/internal/trace"
)

// Versioned binary encoding of a Built program for the persistent
// content-addressed cache: everything the serving and reporting paths read
// from a Built — the unit/trace program, the derived statistics, the PC
// registry, the functional digest, and the per-transaction outputs — in a
// compact custom frame (no gob/reflection) written and read through snapbin.
//
// The frame:
//
//	"TLSB"            magic
//	1 byte            builtVersion
//	stats             Txns, Epochs, TotalInstrs, IterInstrs as uvarints;
//	                  Coverage, AvgThreadSize, ThreadsPerTxn as float64 bits
//	8 bytes           functional state digest, little endian
//	outputs           uvarint txn count, then per txn uvarint value count +
//	                  zig-zag varint values
//	pcs               uvarint name count, then length-prefixed names
//	program           uvarint unit count, then per unit 1 flag byte
//	                  (bit0 = barrier) + the trace (Trace.Encode)
//
// builtVersion participates in CacheKey, so an encoding change simply
// misses old entries instead of having to parse them; a same-version entry
// that still fails to decode is quarantined by the caller and rebuilt.
const (
	builtMagic   = "TLSB"
	builtVersion = 1
)

// Caps keeping a corrupted-but-well-framed length from forcing giant
// allocations; real programs are a few thousand units and a few hundred
// instrumentation sites.
const (
	maxUnits   = 1 << 24
	maxNames   = 1 << 20
	maxNameLen = 1 << 12
	maxOutputs = 1 << 24
)

// CacheKey is the canonical content address of the Built program for
// (spec, sequential): the SHA-256 of the canonical JSON of its build key
// (KeyOf) and the encoding version. Two processes (or two runs of one
// process) that would Build the same binary share a key.
func CacheKey(spec Spec, sequential bool) string {
	k := KeyOf(spec, sequential)
	c := struct {
		V          int  `json:"v"`
		Spec       Spec `json:"spec"`
		Sequential bool `json:"sequential"`
	}{builtVersion, k.Spec, k.Sequential}
	b, err := json.Marshal(c)
	if err != nil {
		// Spec is plain data; failure here is a programming error.
		panic(fmt.Sprintf("workload: canonical spec encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// EncodeBuilt renders b in the versioned binary cache format.
func EncodeBuilt(b *Built) []byte {
	// Programs run to a few MB of events; start with a roomy buffer.
	w := snapbin.NewWriter(1 << 16)
	w.Raw([]byte(builtMagic))
	w.U8(builtVersion)

	st := &b.Stats
	w.Uvarint(uint64(st.Txns))
	w.Uvarint(uint64(st.Epochs))
	w.Uvarint(st.TotalInstrs)
	w.Uvarint(st.IterInstrs)
	w.U64(math.Float64bits(st.Coverage))
	w.U64(math.Float64bits(st.AvgThreadSize))
	w.U64(math.Float64bits(st.ThreadsPerTxn))

	w.U64(b.Digest)

	w.Uvarint(uint64(len(b.Outputs)))
	for _, vals := range b.Outputs {
		w.Uvarint(uint64(len(vals)))
		for _, v := range vals {
			w.Varint(v)
		}
	}

	names := b.PCs.Names()
	w.Uvarint(uint64(len(names)))
	for _, n := range names {
		w.String(n)
	}

	w.Uvarint(uint64(len(b.Program.Units)))
	for _, u := range b.Program.Units {
		flags := byte(0)
		if u.Barrier {
			flags |= 1
		}
		w.U8(flags)
		u.Trace.Encode(w)
	}
	return w.Bytes()
}

// DecodeBuilt parses the binary cache format back into a Built. The result
// is read-only shareable exactly like a fresh Build. Truncated or
// inconsistent input returns an error, never a panic.
func DecodeBuilt(data []byte) (*Built, error) {
	r := snapbin.NewReader(data)
	if magic := r.Raw(len(builtMagic), "built magic"); r.Err() == nil && string(magic) != builtMagic {
		return nil, fmt.Errorf("workload: bad built magic")
	}
	if v := r.U8("built version"); r.Err() == nil && v != builtVersion {
		return nil, fmt.Errorf("workload: built encoding version %d, want %d", v, builtVersion)
	}

	b := &Built{Program: &sim.Program{}}
	st := &b.Stats
	st.Txns = int(r.Uvarint("txns"))
	st.Epochs = int(r.Uvarint("epochs"))
	st.TotalInstrs = r.Uvarint("total instrs")
	st.IterInstrs = r.Uvarint("iter instrs")
	st.Coverage = math.Float64frombits(r.U64("coverage"))
	st.AvgThreadSize = math.Float64frombits(r.U64("avg thread size"))
	st.ThreadsPerTxn = math.Float64frombits(r.U64("threads per txn"))
	b.Digest = r.U64("digest")

	b.Outputs = make([][]int64, r.Count("output txns", maxOutputs))
	for i := range b.Outputs {
		vals := make([]int64, r.Count("output values", maxOutputs))
		for j := range vals {
			vals[j] = r.Varint("output value")
		}
		b.Outputs[i] = vals
	}

	names := make([]string, r.Count("pc names", maxNames))
	for i := range names {
		names[i] = r.String("pc name", maxNameLen)
	}
	b.PCs = isa.PCRegistryFromNames(names)

	b.Program.Units = make([]sim.Unit, r.Count("units", maxUnits))
	for i := range b.Program.Units {
		flags := r.U8("unit flags")
		t := trace.Decode(r)
		if t == nil {
			break
		}
		b.Program.Units[i] = sim.Unit{Trace: t, Barrier: flags&1 != 0}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("workload: built frame: %w", err)
	}
	if b.PCs.Len() != len(names) {
		return nil, fmt.Errorf("workload: duplicate pc names in built frame")
	}
	return b, nil
}
