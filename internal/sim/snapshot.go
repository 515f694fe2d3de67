package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"subthreads/internal/cpu"
)

// Prefix snapshots, as a header only.
//
// A Config.SnapshotAtPrefix run hands its sink one Snapshot at the end of
// the program's leading barrier prefix: the boundary cycle, the capturing
// configuration's digests and the program's fingerprint. ResumeE checks a
// configuration against that header and then replays the whole run, so the
// Result is RunE's under the resuming configuration, byte for byte; the
// prefix it re-simulates is 0.12–2.83% of a BASELINE run of the five
// TLS-profitable benchmarks at -txns 6 -warmup 2. No machine state is
// captured or restored.
//
// The shim stays only while perfbench's traced sweep replay captures
// through SnapshotAtPrefix and forks through ResumeE. Once the benchmark
// stops forking, it goes, together with prefixDigest and the service's
// JobsForked and JobsReplayed counters (ROADMAP, machine-checkpoint item).

const (
	snapMagic   = "TLSS"
	snapVersion = 2
)

// Snapshot is the header of one prefix capture.
type Snapshot struct {
	// Cycle is the prefix boundary: the top of the cycle at which the last
	// leading barrier has drained its trace and nothing speculative has
	// started.
	Cycle uint64
	// Forkable reports that ResumeE accepts a configuration that agrees
	// with the capturing one only on the prefix-invariant parameters. Every
	// prefix capture of a run without fault injection is Forkable.
	Forkable bool
	// FullDigest identifies the exact capturing configuration;
	// PrefixDigest identifies only its prefix-invariant parameters.
	FullDigest   string
	PrefixDigest string

	// Program fingerprint: resuming under a different program is a hard
	// error, not a wrong answer.
	progUnits   uint64
	progInstrs  uint64
	progLeading uint64
}

// snapFrame is the fixed layout Encode writes with encoding/binary.
type snapFrame struct {
	Magic                  [len(snapMagic)]byte
	Version                uint8
	Forkable               bool
	Cycle                  uint64
	Units, Instrs, Leading uint64
	Full, Prefix           [2 * sha256.Size]byte // hex digests
}

// Encode renders the snapshot header into its binary frame.
func (s *Snapshot) Encode() []byte {
	f := snapFrame{Version: snapVersion, Forkable: s.Forkable, Cycle: s.Cycle,
		Units: s.progUnits, Instrs: s.progInstrs, Leading: s.progLeading}
	copy(f.Magic[:], snapMagic)
	copy(f.Full[:], s.FullDigest)
	copy(f.Prefix[:], s.PrefixDigest)
	var b bytes.Buffer
	_ = binary.Write(&b, binary.LittleEndian, &f) // cannot fail: a fixed-size struct into memory
	return b.Bytes()
}

// DecodeSnapshot parses a frame produced by Encode.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var f snapFrame
	if n := binary.Size(f); len(data) != n {
		return nil, fmt.Errorf("sim: snapshot frame is %d bytes, want %d", len(data), n)
	}
	_ = binary.Read(bytes.NewReader(data), binary.LittleEndian, &f) // cannot fail: the length is checked above
	if string(f.Magic[:]) != snapMagic {
		return nil, fmt.Errorf("sim: not a snapshot frame (magic %q)", f.Magic[:])
	}
	if f.Version != snapVersion {
		return nil, fmt.Errorf("sim: unsupported snapshot version %d", f.Version)
	}
	return &Snapshot{Cycle: f.Cycle, Forkable: f.Forkable,
		FullDigest: string(f.Full[:]), PrefixDigest: string(f.Prefix[:]),
		progUnits: f.Units, progInstrs: f.Instrs, progLeading: f.Leading}, nil
}

// digestJSON is the canonical content digest: sha256 over the deterministic
// JSON encoding (struct fields marshal in declaration order).
func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("sim: digest marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// FullDigest identifies everything about cfg that influences simulated
// behavior. Runtime plumbing (telemetry, oracle, injector, cancellation,
// snapshot capture) and run-abandonment bounds (watchdog, cycle budget) are
// excluded: they never change what a successful run computes.
func FullDigest(cfg Config) string {
	cfg.Telemetry = nil
	cfg.Oracle = nil
	cfg.Inject = nil
	cfg.Cancel = nil
	cfg.SnapshotAtPrefix = false
	cfg.SnapshotSink = nil
	cfg.MaxCycles = 0
	cfg.WatchdogCycles = 0
	return digestJSON(cfg)
}

// prefixKey is the subset of Config that can influence execution while the
// machine is still non-speculative — i.e. during the leading barrier prefix,
// when exactly one epoch is live and holds the homefree token. Sub-thread
// parameters (spacing, contexts, spawn policy, start table, overflow policy,
// victim sizing, predictors, recovery penalties, L1 tracking) are inert
// there: predictors are never consulted, nothing spawns, nothing can be
// violated or overflow. Two configs with equal prefixKeys execute the prefix
// cycle-for-cycle identically.
type prefixKey struct {
	CPUs                int
	CPU                 cpu.Params
	Mem                 MemParams
	NonBlockingLoads    bool
	L2Sets              int
	L2Ways              int
	ExposedTableEntries int
	PairListEntries     int
	LatchDeadlockCycles uint64
	CommitPenalty       uint64
	Paranoid            bool
}

// prefixDigest identifies cfg's prefix-invariant machine parameters. Two
// configurations with equal prefix digests run the program's leading barrier
// prefix identically, so ResumeE lets one fork a Forkable capture of the
// other.
func prefixDigest(cfg Config) string {
	return digestJSON(prefixKey{
		CPUs:                cfg.CPUs,
		CPU:                 cfg.CPU,
		Mem:                 cfg.Mem,
		NonBlockingLoads:    cfg.NonBlockingLoads,
		L2Sets:              cfg.TLS.L2Sets,
		L2Ways:              cfg.TLS.L2Ways,
		ExposedTableEntries: cfg.ExposedTableEntries,
		PairListEntries:     cfg.PairListEntries,
		LatchDeadlockCycles: cfg.LatchDeadlockCycles,
		CommitPenalty:       cfg.CommitPenalty,
		Paranoid:            cfg.Paranoid || cfg.TLS.Paranoid,
	})
}

// leadingBarriers counts the barrier units at the front of the program — the
// shared prefix every sweep point executes before speculation can begin.
func leadingBarriers(p *Program) int {
	n := 0
	for _, u := range p.Units {
		if !u.Barrier {
			break
		}
		n++
	}
	return n
}

// wantSnapshot reports whether this top-of-cycle is the prefix boundary.
func (m *machine) wantSnapshot() bool {
	if !m.cfg.SnapshotAtPrefix || m.snapLeading == 0 ||
		m.committed != m.snapLeading-1 || m.engine.Live() != 1 {
		return false
	}
	// The last leading barrier has drained its trace but not yet committed:
	// it will commit during this cycle, and iteration units may start this
	// same cycle — so this is the last boundary at which nothing
	// configuration-divergent has happened.
	c := m.coreOf(m.engine.Oldest())
	return c != nil && c.done
}

// captureSnapshot hands the prefix header to the sink.
func (m *machine) captureSnapshot() {
	m.cfg.SnapshotSink(&Snapshot{
		Cycle:        m.cycle,
		Forkable:     m.cfg.Inject == nil,
		FullDigest:   FullDigest(m.cfg),
		PrefixDigest: prefixDigest(m.cfg),
		progUnits:    uint64(len(m.prog.Units)),
		progInstrs:   m.prog.Instrs(),
		progLeading:  uint64(m.snapLeading),
	})
}

// ResumeE runs prog under cfg from snap: as a restore when cfg matches the
// capturing configuration exactly (by FullDigest), as a fork when snap is
// Forkable and cfg agrees on the prefix-invariant parameters. Either way it
// replays the whole run with capture switched off, so the Result is
// byte-identical to RunE's under cfg and the resumed run captures nothing.
//
// Errors come in two kinds. A *RunError is the run's own outcome — audit,
// watchdog, cycle budget, or cancellation, exactly as RunE would have ended.
// Any other error means the snapshot does not apply to cfg and prog (a
// program fingerprint or digest mismatch, a fork into a fault-injected run,
// a memory oracle) and nothing ran.
func ResumeE(cfg Config, prog *Program, snap *Snapshot) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("sim: nil snapshot")
	}
	if cfg.Oracle != nil {
		return nil, fmt.Errorf("sim: cannot resume with a memory oracle")
	}
	if snap.progUnits != uint64(len(prog.Units)) || snap.progInstrs != prog.Instrs() ||
		snap.progLeading != uint64(leadingBarriers(prog)) {
		return nil, fmt.Errorf("sim: snapshot program fingerprint mismatch (%d units/%d instrs/%d leading vs %d/%d/%d)",
			snap.progUnits, snap.progInstrs, snap.progLeading,
			len(prog.Units), prog.Instrs(), leadingBarriers(prog))
	}
	switch {
	case snap.FullDigest == FullDigest(cfg):
	case snap.Forkable && snap.PrefixDigest == prefixDigest(cfg):
		if cfg.Inject != nil {
			return nil, fmt.Errorf("sim: cannot fork a snapshot into a fault-injected run")
		}
	default:
		return nil, fmt.Errorf("sim: snapshot matches neither the full config nor a forkable prefix")
	}
	cfg.SnapshotAtPrefix, cfg.SnapshotSink = false, nil
	return RunE(cfg, prog)
}
