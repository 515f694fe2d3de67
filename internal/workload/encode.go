package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"subthreads/internal/isa"
	"subthreads/internal/sim"
	"subthreads/internal/trace"
)

// Versioned binary encoding of a Built program for the persistent
// content-addressed cache: everything the serving and reporting paths read
// from a Built — the unit/trace program, the derived statistics, the PC
// registry, the functional digest, and the per-transaction outputs — in a
// compact custom frame (no gob/reflection).
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
//	                  (bit0 = barrier) + the trace (trace.AppendBinary)
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
// (keyOf) and the encoding version. Two processes (or two runs of one
// process) that would Build the same binary share a key.
func CacheKey(spec Spec, sequential bool) string {
	k := keyOf(spec, sequential)
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
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, builtMagic...)
	buf = append(buf, builtVersion)

	st := &b.Stats
	buf = binary.AppendUvarint(buf, uint64(st.Txns))
	buf = binary.AppendUvarint(buf, uint64(st.Epochs))
	buf = binary.AppendUvarint(buf, st.TotalInstrs)
	buf = binary.AppendUvarint(buf, st.IterInstrs)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Coverage))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.AvgThreadSize))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.ThreadsPerTxn))

	buf = binary.LittleEndian.AppendUint64(buf, b.Digest)

	buf = binary.AppendUvarint(buf, uint64(len(b.Outputs)))
	for _, vals := range b.Outputs {
		buf = binary.AppendUvarint(buf, uint64(len(vals)))
		for _, v := range vals {
			buf = binary.AppendVarint(buf, v)
		}
	}

	names := b.PCs.Names()
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = binary.AppendUvarint(buf, uint64(len(n)))
		buf = append(buf, n...)
	}

	buf = binary.AppendUvarint(buf, uint64(len(b.Program.Units)))
	for _, u := range b.Program.Units {
		flags := byte(0)
		if u.Barrier {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = u.Trace.AppendBinary(buf)
	}
	return buf
}

// DecodeBuilt parses the binary cache format back into a Built. The result
// is read-only shareable exactly like a fresh Build. Truncated or
// inconsistent input returns an error, never a panic.
func DecodeBuilt(data []byte) (*Built, error) {
	if len(data) < len(builtMagic)+1 {
		return nil, fmt.Errorf("workload: built frame truncated (%d bytes)", len(data))
	}
	if string(data[:len(builtMagic)]) != builtMagic {
		return nil, fmt.Errorf("workload: bad built magic")
	}
	if v := data[len(builtMagic)]; v != builtVersion {
		return nil, fmt.Errorf("workload: built encoding version %d, want %d", v, builtVersion)
	}
	data = data[len(builtMagic)+1:]

	d := &builtDecoder{data: data}
	b := &Built{Program: &sim.Program{}}
	st := &b.Stats
	st.Txns = int(d.uvarint("txns"))
	st.Epochs = int(d.uvarint("epochs"))
	st.TotalInstrs = d.uvarint("total instrs")
	st.IterInstrs = d.uvarint("iter instrs")
	st.Coverage = d.float64("coverage")
	st.AvgThreadSize = d.float64("avg thread size")
	st.ThreadsPerTxn = d.float64("threads per txn")
	b.Digest = d.uint64("digest")

	ntxn := d.uvarint("output txns")
	if d.err == nil && ntxn > maxOutputs {
		d.fail(fmt.Errorf("implausible output count %d", ntxn))
	}
	if d.err == nil {
		b.Outputs = make([][]int64, 0, ntxn)
	}
	for i := uint64(0); i < ntxn && d.err == nil; i++ {
		nvals := d.uvarint("output values")
		if nvals > maxOutputs {
			d.fail(fmt.Errorf("implausible output width %d", nvals))
			break
		}
		vals := make([]int64, 0, nvals)
		for j := uint64(0); j < nvals && d.err == nil; j++ {
			vals = append(vals, d.varint("output value"))
		}
		b.Outputs = append(b.Outputs, vals)
	}

	nnames := d.uvarint("pc names")
	if d.err == nil && nnames > maxNames {
		d.fail(fmt.Errorf("implausible name count %d", nnames))
	}
	names := make([]string, 0, min(nnames, maxNames))
	for i := uint64(0); i < nnames && d.err == nil; i++ {
		names = append(names, d.str("pc name"))
	}
	b.PCs = isa.PCRegistryFromNames(names)

	nunits := d.uvarint("units")
	if d.err == nil && nunits > maxUnits {
		d.fail(fmt.Errorf("implausible unit count %d", nunits))
	}
	if d.err == nil {
		b.Program.Units = make([]sim.Unit, 0, nunits)
	}
	for i := uint64(0); i < nunits && d.err == nil; i++ {
		flags := d.byte("unit flags")
		if d.err != nil {
			break
		}
		t, rest, err := trace.DecodeBinary(d.data)
		if err != nil {
			d.fail(err)
			break
		}
		d.data = rest
		b.Program.Units = append(b.Program.Units, sim.Unit{Trace: t, Barrier: flags&1 != 0})
	}
	if d.err != nil {
		return nil, fmt.Errorf("workload: %w", d.err)
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("workload: %d trailing bytes after built frame", len(d.data))
	}
	if b.PCs.Len() != len(names) {
		return nil, fmt.Errorf("workload: duplicate pc names in built frame")
	}
	return b, nil
}

// builtDecoder is a cursor with sticky error handling over the frame body.
type builtDecoder struct {
	data []byte
	err  error
}

func (d *builtDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *builtDecoder) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail(fmt.Errorf("bad varint for %s", field))
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *builtDecoder) varint(field string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail(fmt.Errorf("bad varint for %s", field))
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *builtDecoder) uint64(field string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.fail(fmt.Errorf("truncated %s", field))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}

func (d *builtDecoder) float64(field string) float64 {
	return math.Float64frombits(d.uint64(field))
}

func (d *builtDecoder) byte(field string) byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.fail(fmt.Errorf("truncated %s", field))
		return 0
	}
	v := d.data[0]
	d.data = d.data[1:]
	return v
}

func (d *builtDecoder) str(field string) string {
	n := d.uvarint(field + " length")
	if d.err != nil {
		return ""
	}
	if n > maxNameLen || uint64(len(d.data)) < n {
		d.fail(fmt.Errorf("bad length %d for %s", n, field))
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}
