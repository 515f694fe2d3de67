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
// DELIVERY in both software modes at -txns 3 -warmup 1, and at -txns 1
// -warmup 1 for every benchmark in both modes, for NEW ORDER and DELIVERY
// TLS at each tuning level below the default, and for a NEW ORDER seed
// whose measured transaction rolls back. The opt levels reach every
// emission path the tuning flags switch (latches, pins, log, locks,
// allocator); the rollback reaches Abort's undo walk. A trace entry carries
// its site's PC, so the pins also hold the order in which sites first
// register. The CAS keeps these frames across restarts under a key that
// folds in builtVersion, so a change that moves one byte must bump
// builtVersion and re-pin.
func TestBuiltFramesPinned(t *testing.T) {
	// At this seed the one measured NEW ORDER carries the invalid item
	// and rolls back after eight order lines.
	const rollbackSeed = 45
	for _, c := range []struct {
		bench      tpcc.Benchmark
		sequential bool
		txns, opt  int
		seed       int64
		size       int
		sum        string
	}{
		{tpcc.NewOrder, false, 3, 5, 42, 1871049, "10215ad74e7136c8"},
		{tpcc.NewOrder, true, 3, 5, 42, 1906050, "0b0b9ff9b37a1e27"},
		{tpcc.Delivery, false, 3, 5, 42, 8696021, "79696bb2dc7bcf7b"},
		{tpcc.Delivery, true, 3, 5, 42, 8706617, "72e4500a1bcadc8a"},
		{tpcc.NewOrder, false, 1, 5, 42, 659674, "82052bbf36daf5d7"},
		{tpcc.NewOrder, true, 1, 5, 42, 671995, "f028a395973eeb2e"},
		{tpcc.NewOrder150, false, 1, 5, 42, 4936589, "7e41584f58e9b27b"},
		{tpcc.NewOrder150, true, 1, 5, 42, 5036344, "4aeae48479da64bf"},
		{tpcc.Delivery, false, 1, 5, 42, 2922111, "243e80e9e0187695"},
		{tpcc.Delivery, true, 1, 5, 42, 2925611, "dfdea96adfe92f33"},
		{tpcc.DeliveryOuter, false, 1, 5, 42, 2909593, "84b1fc13b5f6b2d2"},
		{tpcc.DeliveryOuter, true, 1, 5, 42, 2925611, "dfdea96adfe92f33"},
		{tpcc.StockLevel, false, 1, 5, 42, 1133829, "951fe1584e150097"},
		{tpcc.StockLevel, true, 1, 5, 42, 1183461, "6dde364167f4b511"},
		{tpcc.Payment, false, 1, 5, 42, 178511, "d020379b3e6bff17"},
		{tpcc.Payment, true, 1, 5, 42, 178727, "1e14218dc677f49d"},
		{tpcc.OrderStatus, false, 1, 5, 42, 41721, "59395c96d7404f1c"},
		{tpcc.OrderStatus, true, 1, 5, 42, 41652, "7cdbb91218d4a60d"},
		{tpcc.NewOrder, false, 1, 0, 42, 674458, "5b16d45f934bbcbf"},
		{tpcc.NewOrder, false, 1, 1, 42, 673275, "3bd72cba0fda5e5f"},
		{tpcc.NewOrder, false, 1, 2, 42, 668736, "29fdd143cb49cffa"},
		{tpcc.NewOrder, false, 1, 3, 42, 667897, "2ae8a867db261322"},
		{tpcc.NewOrder, false, 1, 4, 42, 659644, "5995575b9034f291"},
		{tpcc.Delivery, false, 1, 0, 42, 2943243, "ed21f3d7757b656f"},
		{tpcc.Delivery, false, 1, 1, 42, 2939796, "465eaabd084052e9"},
		{tpcc.Delivery, false, 1, 2, 42, 2925815, "392779fa578665fd"},
		{tpcc.Delivery, false, 1, 3, 42, 2923974, "8aac87e3cf9c7584"},
		{tpcc.Delivery, false, 1, 4, 42, 2922111, "243e80e9e0187695"},
		{tpcc.NewOrder, false, 1, 5, rollbackSeed, 483606, "aafa282942b8aa6c"},
		{tpcc.NewOrder, true, 1, 5, rollbackSeed, 492619, "48080f073bb9fff2"},
	} {
		spec := DefaultSpec(c.bench)
		spec.Txns, spec.Warmup, spec.OptLevel, spec.Seed = c.txns, 1, c.opt, c.seed
		b := Build(spec, c.sequential)
		if out := b.Outputs[0]; c.seed == rollbackSeed && out[len(out)-1] != -1 {
			t.Errorf("seed %d: the measured NEW ORDER did not roll back (outputs %v)", c.seed, out)
		}
		enc := EncodeBuilt(b)
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:8]); got != c.sum || len(enc) != c.size {
			t.Errorf("%v sequential=%v txns=%d opt=%d seed=%d: %d bytes, digest %s; want %d bytes, digest %s",
				c.bench, c.sequential, c.txns, c.opt, c.seed, len(enc), got, c.size, c.sum)
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
