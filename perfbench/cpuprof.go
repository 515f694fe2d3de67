package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Folding a CPU profile by layer. A pprof profile is a gzipped protocol
// buffer; only the fields needed to attribute each sample's CPU time to a
// layer are decoded here, so the fold needs nothing beyond the standard
// library.
//
// A sample belongs to the layer of the function it was executing in (flat
// time), with one exception: time in a standard-library leaf (JSON, hashing,
// sockets) is charged to the innermost repository frame that called it, so a
// serving layer's own encoding and I/O count as that layer's. Time in the Go
// runtime (malloc, GC, maps, scheduler) stays the runtime's.

// foldLayers returns each layer's share of the profile's CPU time, keyed by
// layer name (see layerOf), and the total CPU seconds sampled.
func foldLayers(profile []byte) (shares map[string]float64, cpuSeconds float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	// The CPU-time value is the sample type whose unit is nanoseconds.
	vi := len(p.sampleTypes) - 1
	for i, st := range p.sampleTypes {
		if p.str(st.unit) == "nanoseconds" {
			vi = i
		}
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || vi < 0 || vi >= len(s.values) {
			continue
		}
		byLayer[p.sampleLayer(s)] += s.values[vi]
		total += s.values[vi]
	}
	shares = map[string]float64{}
	for _, l := range allLayers {
		shares[l] = 0
	}
	if total == 0 {
		return shares, 0, nil
	}
	for l, v := range byLayer {
		shares[l] = float64(v) / float64(total)
	}
	return shares, float64(total) / 1e9, nil
}

// allLayers are the layers a fold reports, every one present even at zero.
var allLayers = []string{"sim", "trace", "cache", "tls", "cpu", "workload", "report",
	"service", "cas", "telemetry", "cluster", "runtime", "other"}

// layerOf names the repository layer a function belongs to, from its package
// path: the repo's modules by name (helpers folded into the module that owns
// them), the Go runtime (malloc, GC, maps, scheduler), and everything else.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "subthreads/internal/"); ok {
		switch rest {
		case "sim", "mem", "predict", "profile", "isa", "snapbin":
			return "sim"
		case "trace", "cache", "tls", "cpu", "report", "cas", "telemetry", "cluster":
			return rest
		case "workload", "tpcc", "db", "synth":
			return "workload"
		case "service", "chaos", "inject", "cliflags", "version":
			return "service"
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// sampleLayer attributes one sample: its leaf's layer, or for a
// standard-library leaf the innermost repository layer on its stack.
func (p *pbProfile) sampleLayer(s pbSample) string {
	leaf := true
	for _, id := range s.locs {
		for _, fn := range p.locations[id] {
			l := layerOf(p.str(p.functions[fn]))
			if leaf && l != "other" {
				return l
			}
			leaf = false
			if l != "other" && l != "runtime" {
				return l
			}
		}
	}
	return "other"
}

// Minimal protobuf decoding of profile.proto.

type valueType struct{ unit int64 }

type pbSample struct {
	locs   []uint64
	values []int64
}

type pbProfile struct {
	sampleTypes []valueType
	samples     []pbSample
	locations   map[uint64][]uint64 // location id -> function ids, innermost first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

func (p *pbProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

var errProto = errors.New("cpu profile: malformed protobuf")

// pbField iterates the fields of one message.
func pbFields(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func decodeProfile(b []byte) (*pbProfile, error) {
	p := &pbProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := pbFields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt valueType
			err := pbFields(data, func(num, _ int, v uint64, _ []byte) error {
				if num == 2 {
					vt.unit = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, vt)
			return err
		case 2: // sample
			var s pbSample
			var vals []uint64
			err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = pbUints(s.locs, wire, v, data)
				case 2:
					vals, err = pbUints(vals, wire, v, data)
				}
				return err
			})
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}
