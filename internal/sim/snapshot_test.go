package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/snapbin"
	"subthreads/internal/tls"
	"subthreads/internal/trace"
)

// The snapshot contract is byte identity: a run resumed from a checkpoint
// must produce exactly the Result of the uninterrupted run — every cycle
// count, every protocol counter, every profiled pair. These tests pin that
// across the interesting protocol paths (violations, overflow policies,
// latch deadlocks, predictors, fault injection, the I-cache model) and pin
// the fork path against a native run of every divergent configuration.

// captureAt runs cfg with a snapshot captured at the given cycle and returns
// the snapshot after an encode/decode round trip, so every test also
// exercises the binary frame.
func captureAt(t *testing.T, cfg Config, prog *Program, cycle uint64) *Snapshot {
	t.Helper()
	var snap *Snapshot
	cfg.SnapshotAtCycle = cycle
	cfg.SnapshotSink = func(s *Snapshot) { snap = s }
	if _, err := RunE(cfg, prog); err != nil {
		t.Fatalf("capture run failed: %v", err)
	}
	if snap == nil {
		t.Fatalf("no snapshot captured at cycle %d", cycle)
	}
	decoded, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatalf("snapshot round trip: %v", err)
	}
	return decoded
}

// mustEqual fails unless two results are identical in every field.
func mustEqual(t *testing.T, name string, uninterrupted, resumed *Result) {
	t.Helper()
	if !reflect.DeepEqual(uninterrupted, resumed) {
		t.Errorf("%s: resumed result differs from uninterrupted run\nuninterrupted: %+v\nresumed:       %+v",
			name, uninterrupted, resumed)
	}
}

// violationProgram has real cross-epoch dependences, so post-snapshot
// execution exercises squashes, rewinds, and profiling.
func violationProgram() *Program {
	a, b := mem.Addr(0x11000), mem.Addr(0x12000)
	var units []Unit
	for i := 0; i < 6; i++ {
		tb := trace.NewBuilder()
		tb.ALU(3000)
		tb.Load(isa.PC(2), a)
		tb.ALU(2000)
		tb.Store(isa.PC(1), a)
		tb.ALU(1500)
		tb.Load(isa.PC(4), b)
		tb.Store(isa.PC(3), b)
		tb.ALU(1500)
		units = append(units, Unit{Trace: tb.Finish()})
	}
	return &Program{Units: units}
}

// restoreScenario is one protocol path a checkpoint must survive.
type restoreScenario struct {
	name string
	cfg  func() Config
	prog func() *Program
}

// restoreScenarios covers violations, both overflow policies, a latch
// deadlock, both predictors and the I-cache model with non-blocking loads.
func restoreScenarios() []restoreScenario {
	return []restoreScenario{
		{"violations", testConfig, violationProgram},
		{"all-or-nothing", func() Config {
			cfg := testConfig()
			cfg.SubthreadSpacing = 0
			cfg.TLS.SubthreadsPerEpoch = 1
			return cfg
		}, violationProgram},
		{"overflow-squash", func() Config {
			cfg := testConfig()
			cfg.TLS.OverflowPolicy = tls.OverflowSquash
			cfg.TLS.L2Sets = 1
			cfg.TLS.L2Ways = 2
			cfg.TLS.VictimEntries = 2
			return cfg
		}, func() *Program {
			b := trace.NewBuilder()
			for i := 0; i < 64; i++ {
				b.Store(1, mem.Addr(0x20000+i*mem.LineSize))
				b.ALU(50)
			}
			return &Program{Units: []Unit{{Trace: aluTrace(40000)}, {Trace: b.Finish()}}}
		}},
		{"overflow-stall", func() Config {
			cfg := testConfig()
			cfg.TLS.L2Sets = 1
			cfg.TLS.L2Ways = 2
			cfg.TLS.VictimEntries = 2
			return cfg
		}, func() *Program {
			b := trace.NewBuilder()
			for i := 0; i < 64; i++ {
				b.Store(1, mem.Addr(0x30000+i*mem.LineSize))
				b.ALU(50)
			}
			return &Program{Units: []Unit{{Trace: aluTrace(40000)}, {Trace: b.Finish()}}}
		}},
		{"latch-deadlock", func() Config {
			cfg := testConfig()
			cfg.LatchDeadlockCycles = 500
			return cfg
		}, func() *Program {
			la, lb := mem.Addr(0x9000), mem.Addr(0x9100)
			mk := func(first, second mem.Addr) *trace.Trace {
				b := trace.NewBuilder()
				b.ALU(100)
				b.LatchAcquire(1, first)
				b.ALU(400)
				b.LatchAcquire(2, second)
				b.ALU(400)
				b.LatchRelease(3, second)
				b.LatchRelease(4, first)
				b.ALU(100)
				return b.Finish()
			}
			return &Program{Units: []Unit{{Trace: mk(lb, la)}, {Trace: mk(la, lb)}}}
		}},
		{"predictor", func() Config {
			cfg := testConfig()
			cfg.UsePredictor = true
			cfg.SubthreadSpacing = 0
			cfg.TLS.SubthreadsPerEpoch = 1
			return cfg
		}, violationProgram},
		{"spawn-predictor", func() Config {
			cfg := testConfig()
			cfg.Spawn = SpawnPredictor
			cfg.TLS.SubthreadsPerEpoch = 2
			return cfg
		}, violationProgram},
		{"icache-mlp", func() Config {
			cfg := testConfig()
			cfg.Mem.ModelICache = true
			cfg.Mem.L1ISets = 8
			cfg.Mem.L1IWays = 4
			cfg.NonBlockingLoads = true
			return cfg
		}, func() *Program {
			b := trace.NewBuilder()
			for i := 0; i < 300; i++ {
				b.Branch(isa.PC(i%40+1), true)
				b.Load(1, mem.Addr(0x40000+i*mem.LineSize))
				b.ALU(60)
			}
			return &Program{Units: []Unit{{Trace: b.Finish()}, {Trace: aluTrace(9000)}}}
		}},
	}
}

// captureFractions are the points of a scenario's run, as divisors of its
// cycle count, that the restore and frame-pin tests capture at.
var captureFractions = []uint64{4, 2}

func TestSnapshotRestoreByteIdentity(t *testing.T) {
	for _, tc := range restoreScenarios() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := RunE(tc.cfg(), tc.prog())
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			for _, frac := range captureFractions {
				cycle := want.Cycles / frac
				if cycle == 0 {
					continue
				}
				snap := captureAt(t, tc.cfg(), tc.prog(), cycle)
				got, err := ResumeE(tc.cfg(), tc.prog(), snap)
				if err != nil {
					t.Fatalf("resume at cycle %d: %v", cycle, err)
				}
				mustEqual(t, tc.name, want, got)
			}
		})
	}
}

// injectionConfig is testConfig with a fresh injector on a fixed schedule.
func injectionConfig() Config {
	cfg := testConfig()
	cfg.Inject = &stubInjector{faults: []Fault{
		{Cycle: 500, Kind: FaultSquash, CPU: 1, Ctx: 3},
		{Cycle: 900, Kind: FaultOverflow, CPU: 2},
		{Cycle: 1300, Kind: FaultSquash, CPU: 0, Ctx: 1},
		{Cycle: 4200, Kind: FaultSquash, CPU: 2, Ctx: 0},
	}, latchEvery: 64, latchDelay: 4}
	return cfg
}

// TestSnapshotFramesPinned pins the bytes of the snapshot frame: the
// SHA-256 of Encode for every restore scenario at each capture fraction,
// for the injection scenario at cycle 1000 and for forkProgram's prefix
// checkpoint. The CAS and tlsd's snapshot tier keep these frames across
// restarts, so a change that moves one byte must bump snapVersion and
// re-pin.
func TestSnapshotFramesPinned(t *testing.T) {
	want := map[string]string{
		"violations/4":      "7e3368a3c6ddf19c",
		"violations/2":      "f268c2fa272fd335",
		"all-or-nothing/4":  "147c555387a2842c",
		"all-or-nothing/2":  "9c8749c71524d4e8",
		"overflow-squash/4": "550f62597698904a",
		"overflow-squash/2": "4b2baed6aa0b1d1b",
		"overflow-stall/4":  "95df18cd6bb67666",
		"overflow-stall/2":  "a1c40dd3d072e43b",
		"latch-deadlock/4":  "616438aea19127ba",
		"latch-deadlock/2":  "2e5d6e4be118e348",
		"predictor/4":       "5cb707daa410278b",
		"predictor/2":       "29bfc7138924e39a",
		"spawn-predictor/4": "c98374d5471b74c3",
		"spawn-predictor/2": "337558a8734edb09",
		"icache-mlp/4":      "0368ae0d7189387d",
		"icache-mlp/2":      "c716b0f5ac2de4c5",
		"injection/1000":    "40f91e13a6a0f6fb",
		"fork-prefix":       "deb5a3499f967bea",
	}
	got := map[string]string{}
	pin := func(name string, s *Snapshot) {
		sum := sha256.Sum256(s.Encode())
		got[name] = hex.EncodeToString(sum[:8])
	}
	for _, tc := range restoreScenarios() {
		full, err := RunE(tc.cfg(), tc.prog())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, frac := range captureFractions {
			pin(fmt.Sprintf("%s/%d", tc.name, frac), captureAt(t, tc.cfg(), tc.prog(), full.Cycles/frac))
		}
	}
	pin("injection/1000", captureAt(t, injectionConfig(), violationProgram(), 1000))
	pin("fork-prefix", capturePrefix(t, testConfig(), forkProgram()))
	for name, sum := range got {
		if sum != want[name] {
			t.Errorf("%s: frame digest %s, want %s", name, sum, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("pinned %d frames, want %d", len(got), len(want))
	}
}

func TestSnapshotRestoreWithInjection(t *testing.T) {
	mkCfg := injectionConfig
	prog := violationProgram()
	want, err := RunE(mkCfg(), prog)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if want.InjectedFaults == 0 {
		t.Fatal("scenario broken: no faults delivered")
	}
	// Capture mid-schedule so the resume must fast-forward a fresh injector
	// past the already-delivered faults.
	snap := captureAt(t, mkCfg(), prog, 1000)
	got, err := ResumeE(mkCfg(), prog, snap)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	mustEqual(t, "injection", want, got)
}

// forkProgram is a sweep-shaped program: a leading barrier prefix that warms
// the caches and produces values, then speculative iteration units with real
// dependences on the prefix's data and on each other.
func forkProgram() *Program {
	warm := trace.NewBuilder()
	for i := 0; i < 200; i++ {
		warm.Store(1, mem.Addr(0x50000+i*mem.LineSize))
		warm.ALU(40)
	}
	warm.ALU(5000)
	units := []Unit{{Trace: warm.Finish(), Barrier: true}}
	a := mem.Addr(0x50000)
	for i := 0; i < 5; i++ {
		b := trace.NewBuilder()
		b.Load(2, a) // reads the prefix's data
		b.ALU(4000)
		b.Load(4, mem.Addr(0x60000))
		b.ALU(2000)
		b.Store(3, mem.Addr(0x60000))
		b.ALU(2000)
		units = append(units, Unit{Trace: b.Finish()})
	}
	return &Program{Units: units}
}

// capturePrefix captures the prefix-boundary snapshot under cfg.
func capturePrefix(t *testing.T, cfg Config, prog *Program) *Snapshot {
	t.Helper()
	var snap *Snapshot
	cfg.SnapshotAtPrefix = true
	cfg.SnapshotSink = func(s *Snapshot) { snap = s }
	if _, err := RunE(cfg, prog); err != nil {
		t.Fatalf("prefix capture run failed: %v", err)
	}
	if snap == nil {
		t.Fatal("no prefix snapshot captured")
	}
	decoded, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatalf("snapshot round trip: %v", err)
	}
	return decoded
}

func TestSnapshotForkByteIdentity(t *testing.T) {
	prog := forkProgram()
	base := testConfig()
	snap := capturePrefix(t, base, prog)
	if !snap.Forkable {
		t.Fatal("prefix snapshot not forkable")
	}
	if snap.Cycle == 0 {
		t.Fatal("prefix snapshot captured at cycle 0")
	}

	variants := map[string]func(Config) Config{
		"same-config":     func(c Config) Config { return c },
		"spacing-1000":    func(c Config) Config { c.SubthreadSpacing = 1000; return c },
		"all-or-nothing":  func(c Config) Config { c.SubthreadSpacing = 0; c.TLS.SubthreadsPerEpoch = 1; return c },
		"adaptive":        func(c Config) Config { c.Spawn = SpawnAdaptive; c.TLS.SubthreadsPerEpoch = 4; return c },
		"spawn-predictor": func(c Config) Config { c.Spawn = SpawnPredictor; c.TLS.SubthreadsPerEpoch = 2; return c },
		"use-predictor":   func(c Config) Config { c.UsePredictor = true; return c },
		"overflow-squash": func(c Config) Config {
			c.TLS.OverflowPolicy = tls.OverflowSquash
			c.TLS.VictimEntries = 2
			return c
		},
		"no-start-table":    func(c Config) Config { c.TLS.StartTable = false; return c },
		"violation-penalty": func(c Config) Config { c.ViolationPenalty = 500; return c },
		"reg-backup":        func(c Config) Config { c.RegBackupPenalty = 200; return c },
		"l1-tracking":       func(c Config) Config { c.L1SubthreadTracking = true; return c },
		"speculation-off":   func(c Config) Config { c.TLS.SpeculationOff = true; return c },
	}
	for name, vary := range variants {
		t.Run(name, func(t *testing.T) {
			cfg := vary(testConfig())
			want, err := RunE(cfg, forkProgram())
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}
			got, err := ResumeE(cfg, forkProgram(), snap)
			if err != nil {
				t.Fatalf("fork: %v", err)
			}
			mustEqual(t, name, want, got)
		})
	}
}

func TestSnapshotForkRefusals(t *testing.T) {
	prog := forkProgram()
	base := testConfig()
	snap := capturePrefix(t, base, prog)

	t.Run("prefix-divergent-config", func(t *testing.T) {
		cfg := testConfig()
		cfg.CommitPenalty++ // prefix-invariant parameter: both digests differ
		if _, err := ResumeE(cfg, prog, snap); err == nil {
			t.Error("fork across a prefix-divergent config did not error")
		}
	})
	t.Run("injected-fork", func(t *testing.T) {
		cfg := testConfig()
		cfg.SubthreadSpacing = 1000 // force the fork path, not full restore
		cfg.Inject = &stubInjector{}
		if _, err := ResumeE(cfg, prog, snap); err == nil {
			t.Error("fork into a fault-injected run did not error")
		}
	})
	t.Run("oracle", func(t *testing.T) {
		cfg := testConfig()
		cfg.Oracle = nopOracle{}
		if _, err := ResumeE(cfg, prog, snap); err == nil {
			t.Error("resume with an oracle did not error")
		}
	})
	t.Run("wrong-program", func(t *testing.T) {
		other := violationProgram()
		if _, err := ResumeE(testConfig(), other, snap); err == nil {
			t.Error("resume under a different program did not error")
		}
	})
	t.Run("unforkable-snapshot", func(t *testing.T) {
		// A mid-run snapshot with live speculation must refuse to fork.
		vp := violationProgram()
		mid := captureAt(t, testConfig(), vp, 4000)
		if mid.Forkable {
			t.Fatal("mid-speculation snapshot claims to be forkable")
		}
		cfg := testConfig()
		cfg.SubthreadSpacing = 1000
		if _, err := ResumeE(cfg, vp, mid); err == nil {
			t.Error("fork from an unforkable snapshot did not error")
		}
	})
}

type nopOracle struct{}

func (nopOracle) OnStore(uint64, int, mem.Addr, uint64) {}
func (nopOracle) OnSquash(uint64, int)                  {}
func (nopOracle) OnCommit(uint64)                       {}

func TestSnapshotCorruptionIsAnErrorNeverAPanic(t *testing.T) {
	prog := forkProgram()
	snap := capturePrefix(t, testConfig(), prog)
	enc := snap.Encode()

	// Every truncation of the frame must decode to an error (or, for
	// truncations that only cut the payload, fail at resume) — never panic
	// and never silently succeed.
	step := len(enc)/97 + 1
	for n := 0; n < len(enc); n += step {
		s, err := DecodeSnapshot(enc[:n])
		if err != nil {
			continue
		}
		if _, err := ResumeE(testConfig(), prog, s); err == nil {
			t.Fatalf("truncation to %d/%d bytes resumed successfully", n, len(enc))
		}
	}

	// Header corruption: wrong magic, wrong version.
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xff
	if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("corrupt magic: err = %v", err)
	}
	bad = append([]byte(nil), enc...)
	bad[len(snapMagic)] = 99
	if _, err := DecodeSnapshot(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("corrupt version: err = %v", err)
	}
}

// recode restores snap's machine, lets mutate edit it and encodes it again:
// a payload that decodes field by field but describes an impossible machine.
func recode(t *testing.T, cfg Config, prog *Program, snap *Snapshot, mutate func(*machine)) *Snapshot {
	t.Helper()
	m := newMachine(cfg, prog)
	defer m.release()
	r := snapbin.NewReader(snap.payload)
	m.state(snapbin.Restore(r))
	if err := r.Done(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	mutate(m)
	w := snapbin.NewWriter(len(snap.payload))
	m.state(snapbin.Capture(w))
	out := *snap
	out.payload = w.Bytes()
	return &out
}

// TestSnapshotRejectsPositionPastRun: a cursor or checkpoint offset past the
// end of its ALU run would leave the core issuing a full width every cycle
// without ever finishing the run. ResumeE must refuse such a payload as
// corrupt, with an error that is not a RunError, and run nothing.
func TestSnapshotRejectsPositionPastRun(t *testing.T) {
	prog := violationProgram()
	cfg := testConfig()
	cfg.MaxCycles = 2_000_000 // ends the run a missed check would start
	snap := captureAt(t, cfg, prog, 1600)
	if same := recode(t, cfg, prog, snap, func(*machine) {}); string(same.payload) != string(snap.payload) {
		t.Fatal("restoring and re-encoding a snapshot changed its payload")
	}
	pastRun := func(t *testing.T, p trace.Pos, tr *trace.Trace) trace.Pos {
		if p.Offset() >= tr.Events()[p.Index()].Run() {
			t.Fatalf("scenario broken: position %+v is not inside an ALU run", p)
		}
		idx, off := tr.EventIndex(p)
		bad, ok := tr.PosAt(idx, off+4000, p.Done())
		if ok {
			t.Fatalf("PosAt accepted event %d offset %d, past its run", idx, off+4000)
		}
		return bad
	}
	cases := map[string]func(*testing.T, *machine){
		"cursor": func(t *testing.T, m *machine) {
			c := m.cores[0]
			c.cursor.Seek(pastRun(t, c.cursor.Pos(), c.cursor.Trace()))
		},
		"checkpoint": func(t *testing.T, m *machine) {
			c := m.cores[1]
			c.checkpoints[0] = pastRun(t, c.checkpoints[0], c.cursor.Trace())
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			bad := recode(t, cfg, prog, snap, func(m *machine) { mutate(t, m) })
			_, err := ResumeE(cfg, prog, bad)
			var re *RunError
			if err == nil || errors.As(err, &re) {
				t.Fatalf("ResumeE = %v, want a corrupt-payload error", err)
			}
			if !strings.Contains(err.Error(), "out of range") {
				t.Errorf("ResumeE error %q does not name the bad position", err)
			}
		})
	}
}

func TestSnapshotNotCapturedPastRunEnd(t *testing.T) {
	cfg := testConfig()
	prog := &Program{Units: []Unit{{Trace: aluTrace(4000)}}}
	called := false
	cfg.SnapshotAtCycle = 1 << 40
	cfg.SnapshotSink = func(*Snapshot) { called = true }
	if _, err := RunE(cfg, prog); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("sink called for a capture cycle beyond the run's end")
	}
}

func TestResumedRunNeverRecaptures(t *testing.T) {
	prog := violationProgram()
	cfg := testConfig()
	snap := captureAt(t, cfg, prog, 2000)
	resumeCfg := testConfig()
	captures := 0
	resumeCfg.SnapshotAtCycle = 4000 // would fire post-resume if not suppressed
	resumeCfg.SnapshotSink = func(*Snapshot) { captures++ }
	if _, err := ResumeE(resumeCfg, prog, snap); err != nil {
		t.Fatal(err)
	}
	if captures != 0 {
		t.Errorf("resumed run captured %d snapshots", captures)
	}
}
