package sim_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"subthreads/internal/inject"
	"subthreads/internal/mem"
	"subthreads/internal/sim"
	"subthreads/internal/tls"
	"subthreads/internal/tpcc"
	"subthreads/internal/trace"
	"subthreads/internal/workload"
)

// The prefix snapshot is a header, and ResumeE replays the whole run under
// the resuming configuration. These tests pin its contract: the header
// round-trips through Encode and DecodeSnapshot, a resumed Result equals
// RunE's under the resuming configuration, a resumed run captures nothing,
// and a snapshot that does not apply is refused before anything runs.

// newOrderProgram is one untuned NEW ORDER transaction at a small scale:
// its leading barrier, first three epochs and trailing barrier.
var newOrderProgram = sync.OnceValue(func() *sim.Program {
	spec := workload.DefaultSpec(tpcc.NewOrder)
	spec.Scale = tpcc.Scale{Districts: 4, CustomersPerDistrict: 60, Items: 400, OrdersPerDistrict: 30}
	spec.Txns = 1
	spec.Warmup = 1
	spec.OptLevel = 0
	p := workload.Build(spec, false).Program
	return &sim.Program{Units: append(p.Units[:4:4], p.Units[len(p.Units)-1])}
})

// withBarrier puts a short leading barrier in front of p's units, so a
// prefix capture has a boundary to fire at.
func withBarrier(p *sim.Program) *sim.Program {
	b := trace.NewBuilder()
	for i := 0; i < 50; i++ {
		b.Store(7, mem.Addr(0x70000+i*mem.LineSize))
		b.ALU(40)
	}
	return &sim.Program{Units: append([]sim.Unit{{Trace: b.Finish(), Barrier: true}}, p.Units...)}
}

// capture runs prog under cfg with a prefix capture, requires the capture
// run's Result to equal a plain run's, and returns the snapshot after an
// Encode and DecodeSnapshot round trip.
func capture(t *testing.T, cfg sim.Config, prog *sim.Program) *sim.Snapshot {
	t.Helper()
	var snap *sim.Snapshot
	cfg.SnapshotAtPrefix = true
	cfg.SnapshotSink = func(s *sim.Snapshot) { snap = s }
	res, err := sim.RunE(cfg, prog)
	if err != nil {
		t.Fatalf("capture run: %v", err)
	}
	if snap == nil || snap.Cycle == 0 || snap.Cycle >= res.Cycles {
		t.Fatalf("capture run of %d cycles: snapshot %+v, want one inside the run", res.Cycles, snap)
	}
	if cfg.Inject == nil {
		if got, want := resultDigest(t, res), digestOf(t, cfg, prog); got != want {
			t.Fatalf("capture run's result digest %s, a plain run's %s", got, want)
		}
	}
	frame := snap.Encode()
	if len(frame) >= 200 {
		t.Errorf("snapshot frame is %d bytes, want a header under 200", len(frame))
	}
	decoded, err := sim.DecodeSnapshot(frame)
	if err != nil {
		t.Fatalf("snapshot round trip: %v", err)
	}
	if *decoded != *snap {
		t.Fatalf("snapshot round trip: %+v, want %+v", *decoded, *snap)
	}
	return decoded
}

// digestOf is the result digest of a plain run of prog under cfg.
func digestOf(t *testing.T, cfg sim.Config, prog *sim.Program) string {
	t.Helper()
	cfg.SnapshotAtPrefix, cfg.SnapshotSink = false, nil
	res, err := sim.RunE(cfg, prog)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	return resultDigest(t, res)
}

// resumeDigest is the result digest of ResumeE(cfg, prog, snap).
func resumeDigest(t *testing.T, cfg sim.Config, prog *sim.Program, snap *sim.Snapshot) string {
	t.Helper()
	res, err := sim.ResumeE(cfg, prog, snap)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	return resultDigest(t, res)
}

// baseline is the BASELINE machine with a cycle budget, so a regression
// that hangs fails instead.
func baseline() sim.Config {
	cfg := workload.Machine(workload.Baseline)
	cfg.MaxCycles = 5_000_000
	return cfg
}

// TestSnapshotRestoreByteIdentity resumes under the capturing configuration
// itself, across the protocol paths a run can take after the boundary.
func TestSnapshotRestoreByteIdentity(t *testing.T) {
	smallVictim := func(p tls.OverflowPolicy) func(*sim.Config) {
		return func(c *sim.Config) {
			c.TLS.L2Sets, c.TLS.L2Ways = 32, 2
			c.TLS.VictimEntries = 2
			c.TLS.OverflowPolicy = p
		}
	}
	cases := []struct {
		name string
		prog func() *sim.Program
		vary func(*sim.Config)
	}{
		{"violations", newOrderProgram, func(*sim.Config) {}},
		{"all-or-nothing", newOrderProgram, func(c *sim.Config) { c.SubthreadSpacing = 0; c.TLS.SubthreadsPerEpoch = 1 }},
		{"overflow-squash", newOrderProgram, smallVictim(tls.OverflowSquash)},
		{"overflow-stall", newOrderProgram, smallVictim(tls.OverflowStall)},
		{"latch-deadlock", func() *sim.Program { return withBarrier(deadlockProgram()) },
			func(c *sim.Config) { c.LatchDeadlockCycles = 500 }},
		{"predictor", newOrderProgram, func(c *sim.Config) { c.UsePredictor = true }},
		{"spawn-predictor", newOrderProgram, func(c *sim.Config) { c.Spawn = sim.SpawnPredictor; c.TLS.SubthreadsPerEpoch = 2 }},
		{"icache-mlp", newOrderProgram, func(c *sim.Config) { c.Mem.ModelICache = true; c.NonBlockingLoads = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseline()
			tc.vary(&cfg)
			prog := tc.prog()
			snap := capture(t, cfg, prog)
			if got, want := resumeDigest(t, cfg, prog, snap), digestOf(t, cfg, prog); got != want {
				t.Errorf("resumed result digest %s, want %s", got, want)
			}
		})
	}
}

// injected is BASELINE with a fresh injector on a fixed schedule.
func injected() sim.Config {
	cfg := baseline()
	cfg.Inject = inject.New(inject.Config{Seed: 3, Faults: 12, Window: 40_000, LatchEvery: 128, LatchDelay: 8})
	return cfg
}

// TestSnapshotRestoreWithInjection: a capture under fault injection is not
// Forkable, but resumes under its own configuration with a fresh injector
// on the same schedule.
func TestSnapshotRestoreWithInjection(t *testing.T) {
	prog := newOrderProgram()
	snap := capture(t, injected(), prog)
	if snap.Forkable {
		t.Error("a capture under fault injection claims to be forkable")
	}
	want, err := sim.RunE(injected(), prog)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if want.InjectedFaults == 0 {
		t.Fatal("scenario broken: no faults delivered")
	}
	if got := resumeDigest(t, injected(), prog, snap); got != resultDigest(t, want) {
		t.Errorf("resumed result digest %s, want %s", got, resultDigest(t, want))
	}
}

// TestSnapshotForkByteIdentity forks one BASELINE capture into every
// configuration that differs from it only in sub-thread parameters.
func TestSnapshotForkByteIdentity(t *testing.T) {
	prog := newOrderProgram()
	snap := capture(t, baseline(), prog)
	if !snap.Forkable {
		t.Fatal("prefix snapshot not forkable")
	}
	variants := map[string]func(*sim.Config){
		"same-config":     func(*sim.Config) {},
		"spacing-1000":    func(c *sim.Config) { c.SubthreadSpacing = 1000 },
		"subthreads-2":    func(c *sim.Config) { c.TLS.SubthreadsPerEpoch = 2 },
		"all-or-nothing":  func(c *sim.Config) { c.SubthreadSpacing = 0; c.TLS.SubthreadsPerEpoch = 1 },
		"adaptive":        func(c *sim.Config) { c.Spawn = sim.SpawnAdaptive; c.TLS.SubthreadsPerEpoch = 4 },
		"spawn-predictor": func(c *sim.Config) { c.Spawn = sim.SpawnPredictor; c.TLS.SubthreadsPerEpoch = 2 },
		"use-predictor":   func(c *sim.Config) { c.UsePredictor = true },
		"overflow-squash": func(c *sim.Config) {
			c.TLS.OverflowPolicy = tls.OverflowSquash
			c.TLS.VictimEntries = 2
		},
		"no-start-table":    func(c *sim.Config) { c.TLS.StartTable = false },
		"violation-penalty": func(c *sim.Config) { c.ViolationPenalty = 500 },
		"reg-backup":        func(c *sim.Config) { c.RegBackupPenalty = 200 },
		"l1-tracking":       func(c *sim.Config) { c.L1SubthreadTracking = true },
		"speculation-off":   func(c *sim.Config) { c.TLS.SpeculationOff = true },
	}
	for name, vary := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := baseline()
			vary(&cfg)
			if got, want := resumeDigest(t, cfg, prog, snap), digestOf(t, cfg, prog); got != want {
				t.Errorf("forked result digest %s, want %s", got, want)
			}
		})
	}
}

type nopOracle struct{}

func (nopOracle) OnStore(uint64, int, mem.Addr, uint64) {}
func (nopOracle) OnSquash(uint64, int)                  {}
func (nopOracle) OnCommit(uint64)                       {}

// TestSnapshotForkRefusals: a snapshot that does not apply is refused with
// an error that is not a *RunError, since nothing ran.
func TestSnapshotForkRefusals(t *testing.T) {
	prog := newOrderProgram()
	snap := capture(t, baseline(), prog)
	refused := func(t *testing.T, cfg sim.Config, prog *sim.Program, snap *sim.Snapshot, want string) {
		t.Helper()
		res, err := sim.ResumeE(cfg, prog, snap)
		var re *sim.RunError
		if err == nil || errors.As(err, &re) || res != nil {
			t.Fatalf("ResumeE = %v, %v; want a refusal", res, err)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not say %q", err, want)
		}
	}
	t.Run("prefix-divergent-config", func(t *testing.T) {
		cfg := baseline()
		cfg.CommitPenalty++ // a prefix-invariant parameter: both digests differ
		refused(t, cfg, prog, snap, "neither")
	})
	t.Run("injected-fork", func(t *testing.T) {
		cfg := injected()
		cfg.SubthreadSpacing = 1000 // the fork path, not a restore
		refused(t, cfg, prog, snap, "fault-injected")
	})
	t.Run("oracle", func(t *testing.T) {
		cfg := baseline()
		cfg.Oracle = nopOracle{}
		refused(t, cfg, prog, snap, "oracle")
	})
	t.Run("wrong-program", func(t *testing.T) {
		refused(t, baseline(), withBarrier(deadlockProgram()), snap, "fingerprint")
	})
	t.Run("unforkable-snapshot", func(t *testing.T) {
		cfg := baseline()
		cfg.SubthreadSpacing = 1000
		refused(t, cfg, prog, capture(t, injected(), prog), "neither")
	})
}

// TestSnapshotCorruptionIsAnErrorNeverAPanic: every truncation of the frame,
// an extension, a wrong magic and a wrong version fail to decode, and a
// header whose program fingerprint is corrupt is refused at resume.
func TestSnapshotCorruptionIsAnErrorNeverAPanic(t *testing.T) {
	prog := newOrderProgram()
	enc := capture(t, baseline(), prog).Encode()
	for n := 0; n < len(enc); n++ {
		if _, err := sim.DecodeSnapshot(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded", n, len(enc))
		}
	}
	if _, err := sim.DecodeSnapshot(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Error("a frame with a trailing byte decoded")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := sim.DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("corrupt magic: err = %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[4] = 99
	if _, err := sim.DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("corrupt version: err = %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[14] ^= 0x01 // the low byte of the unit count
	s, err := sim.DecodeSnapshot(bad)
	if err != nil {
		t.Fatalf("a corrupt unit count failed to decode: %v", err)
	}
	if _, err := sim.ResumeE(baseline(), prog, s); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("corrupt unit count: ResumeE err = %v", err)
	}
}

// TestResumedRunNeverRecaptures: ResumeE switches capture off, so a sink in
// the resuming configuration is never called.
func TestResumedRunNeverRecaptures(t *testing.T) {
	prog := newOrderProgram()
	snap := capture(t, baseline(), prog)
	cfg := baseline()
	captures := 0
	cfg.SnapshotAtPrefix = true
	cfg.SnapshotSink = func(*sim.Snapshot) { captures++ }
	if _, err := sim.ResumeE(cfg, prog, snap); err != nil {
		t.Fatal(err)
	}
	if captures != 0 {
		t.Errorf("resumed run captured %d snapshots", captures)
	}
}
