package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"

	"subthreads/internal/report"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
)

func smallSpec() Spec {
	s := DefaultSpec(tpcc.NewOrder)
	s.Txns = 3
	s.Warmup = 1
	return s
}

// renderRun produces the exact document tlssim -json and tlsd serve for a
// built program: simulate the experiment machine and the sequential
// reference over the given binaries, then render through internal/report.
func renderRun(t *testing.T, spec Spec, tls, seq *Built) []byte {
	t.Helper()
	cfg := Machine(Baseline)
	res := sim.Run(cfg, tls.Program)
	seqRes := sim.Run(Machine(Sequential), seq.Program)
	run := report.BuildRun(report.RunParams{
		Benchmark:  spec.Bench.String(),
		Experiment: Baseline.String(),
		CPUs:       cfg.CPUs,
		Subthreads: cfg.TLS.SubthreadsPerEpoch,
		Spacing:    cfg.SubthreadSpacing,
		Epochs:     tls.Stats.Epochs,
		Coverage:   tls.Stats.Coverage,
	}, res, seqRes)
	var buf bytes.Buffer
	if err := report.WriteRun(&buf, run); err != nil {
		t.Fatalf("WriteRun: %v", err)
	}
	return buf.Bytes()
}

// The cache-correctness pin: a Built that goes through the binary codec must
// be indistinguishable from a fresh build all the way through rendering —
// the served JSON bytes are identical.
func TestBuiltRoundTripByteIdentical(t *testing.T) {
	spec := smallSpec()
	freshTLS := Build(spec, false)
	freshSeq := Build(spec, true)

	decode := func(b *Built) *Built {
		t.Helper()
		enc := EncodeBuilt(b)
		dec, err := DecodeBuilt(enc)
		if err != nil {
			t.Fatalf("DecodeBuilt: %v", err)
		}
		return dec
	}
	decTLS, decSeq := decode(freshTLS), decode(freshSeq)

	// Field-level identity first, so a mismatch names the broken field
	// instead of diffing two JSON documents.
	for _, c := range []struct {
		name       string
		fresh, dec *Built
	}{{"tls", freshTLS, decTLS}, {"seq", freshSeq, decSeq}} {
		if c.dec.Stats != c.fresh.Stats {
			t.Errorf("%s stats = %+v, want %+v", c.name, c.dec.Stats, c.fresh.Stats)
		}
		if c.dec.Digest != c.fresh.Digest {
			t.Errorf("%s digest = %x, want %x", c.name, c.dec.Digest, c.fresh.Digest)
		}
		if !reflect.DeepEqual(c.dec.Outputs, c.fresh.Outputs) {
			t.Errorf("%s outputs mismatch", c.name)
		}
		if !reflect.DeepEqual(c.dec.PCs.Names(), c.fresh.PCs.Names()) {
			t.Errorf("%s pc names mismatch", c.name)
		}
		if len(c.dec.Program.Units) != len(c.fresh.Program.Units) {
			t.Errorf("%s units = %d, want %d",
				c.name, len(c.dec.Program.Units), len(c.fresh.Program.Units))
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	want := renderRun(t, spec, freshTLS, freshSeq)
	got := renderRun(t, spec, decTLS, decSeq)
	if !bytes.Equal(got, want) {
		t.Fatalf("rendered run from decoded Built differs from fresh build\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
}

// Re-encoding a decoded Built must reproduce the same bytes: the format has
// one canonical rendering per program, which is what makes disk entries
// stable across processes.
func TestEncodeBuiltDeterministic(t *testing.T) {
	b := Build(smallSpec(), false)
	enc1 := EncodeBuilt(b)
	dec, err := DecodeBuilt(enc1)
	if err != nil {
		t.Fatalf("DecodeBuilt: %v", err)
	}
	enc2 := EncodeBuilt(dec)
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("encode(decode(encode(b))) != encode(b)")
	}
}

// TestBuiltFramesPinned pins the bytes of the Built frame for NEW ORDER and
// DELIVERY, TLS and SEQUENTIAL, at -txns 3 -warmup 1. The CAS keeps these
// frames across restarts under a key that folds in builtVersion, so a change
// that moves one byte must bump builtVersion and re-pin.
func TestBuiltFramesPinned(t *testing.T) {
	for _, c := range []struct {
		bench      tpcc.Benchmark
		sequential bool
		size       int
		sum        string
	}{
		{tpcc.NewOrder, false, 1871049, "10215ad74e7136c8"},
		{tpcc.NewOrder, true, 1906050, "0b0b9ff9b37a1e27"},
		{tpcc.Delivery, false, 8696021, "79696bb2dc7bcf7b"},
		{tpcc.Delivery, true, 8706617, "72e4500a1bcadc8a"},
	} {
		spec := DefaultSpec(c.bench)
		spec.Txns = 3
		spec.Warmup = 1
		enc := EncodeBuilt(Build(spec, c.sequential))
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:8]); got != c.sum || len(enc) != c.size {
			t.Errorf("%v sequential=%v: %d bytes, digest %s; want %d bytes, digest %s",
				c.bench, c.sequential, len(enc), got, c.size, c.sum)
		}
	}
}

func TestDecodeBuiltRejectsMalformed(t *testing.T) {
	valid := EncodeBuilt(Build(smallSpec(), true))
	wrongVersion := append([]byte(nil), valid...)
	wrongVersion[len(builtMagic)] = builtVersion + 1
	trailing := append(append([]byte(nil), valid...), 0xaa)
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     []byte("NOPE\x01rest"),
		"wrong version": wrongVersion,
		"truncated":     valid[:len(valid)/3],
		"trailing":      trailing,
	}
	for name, data := range cases {
		if _, err := DecodeBuilt(data); err == nil {
			t.Errorf("%s: DecodeBuilt accepted malformed input", name)
		}
	}
}

func TestCacheKeyStableAndDistinct(t *testing.T) {
	spec := smallSpec()
	k1 := CacheKey(spec, false)
	k2 := CacheKey(spec, false)
	if k1 != k2 {
		t.Fatal("CacheKey not deterministic")
	}
	if len(k1) != 64 {
		t.Fatalf("CacheKey length = %d, want 64 hex chars", len(k1))
	}
	if CacheKey(spec, true) == k1 {
		t.Fatal("sequential flag not part of the cache key")
	}
	other := spec
	other.Txns++
	if CacheKey(other, false) == k1 {
		t.Fatal("spec change not reflected in the cache key")
	}
}
