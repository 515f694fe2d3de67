package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"subthreads/internal/cpu"
	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/predict"
	"subthreads/internal/snapbin"
	"subthreads/internal/tls"
	"subthreads/internal/trace"
)

// Whole-machine checkpoint/restore.
//
// A Snapshot captures every piece of machine state that influences the rest
// of a run — core pipelines, epoch and sub-thread contexts, the TLS engine's
// L2 directory and version stores, branch predictors, latches, profiling
// state, telemetry-free counters, and the trace cursor positions — at the top
// of a deterministic cycle boundary. The contract is byte identity: a run
// restored from a snapshot produces exactly the Result the uninterrupted run
// would have, down to every counter.
//
// Two resume modes:
//
//   - Restore: the resuming Config's FullDigest matches the snapshot's. The
//     remainder of the run replays under the identical machine.
//   - Fork: the digests differ but the snapshot is Forkable and the configs
//     agree on every prefix-invariant parameter (PrefixDigest). This is the
//     prefix-sharing exploit: sweep points that differ only in sub-thread
//     configuration (spacing, contexts, spawn policy, overflow policy, victim
//     sizing, predictors, start table...) execute the program's leading
//     barrier prefix identically, so one run executes it and every other
//     sweep point forks from the boundary.
//
// Forking is sound because a Forkable snapshot — taken when the last leading
// barrier has drained and nothing speculative has ever happened — carries no
// state that any divergent-allowed parameter could have influenced: no
// speculative versions, no SL/SM state, no held latches, no sub-thread
// contexts beyond the first, no trained predictors, no violation history.
// The only config-derived per-core state (sub-thread spacing and the next
// spawn point) is recomputed for the forked config at restore time.

const (
	snapMagic   = "TLSS"
	snapVersion = 1

	// maxSnapPayload bounds the machine payload a decoder will touch.
	maxSnapPayload = 1 << 31
	maxSnapDigest  = 128
)

// Snapshot is one whole-machine checkpoint, decoupled from the machine that
// captured it. Encode/DecodeSnapshot round-trip it through a self-describing
// binary frame for the CAS.
type Snapshot struct {
	// Cycle is the boundary the snapshot was captured at: the restored run
	// resumes at the top of this cycle.
	Cycle uint64
	// Forkable reports that the machine carried no state any
	// divergent-allowed configuration parameter could have influenced, so
	// the snapshot may be resumed under a prefix-compatible config.
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

	payload []byte
}

// Encode renders the snapshot into its binary frame.
func (s *Snapshot) Encode() []byte {
	w := snapbin.NewWriter(len(s.payload) + 256)
	w.Raw([]byte(snapMagic))
	w.U8(snapVersion)
	w.Uvarint(s.Cycle)
	w.Bool(s.Forkable)
	w.String(s.FullDigest)
	w.String(s.PrefixDigest)
	w.Uvarint(s.progUnits)
	w.Uvarint(s.progInstrs)
	w.Uvarint(s.progLeading)
	w.Blob(s.payload)
	return w.Bytes()
}

// DecodeSnapshot parses a frame produced by Encode. Header corruption
// surfaces here; payload corruption surfaces at ResumeE, which decodes the
// machine state against the resuming configuration.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r := snapbin.NewReader(data)
	magic := r.Raw(len(snapMagic), "snapshot magic")
	if r.Err() == nil && string(magic) != snapMagic {
		return nil, fmt.Errorf("sim: not a snapshot frame (magic %q)", magic)
	}
	if v := r.U8("snapshot version"); r.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("sim: unsupported snapshot version %d", v)
	}
	s := &Snapshot{
		Cycle:        r.Uvarint("snapshot cycle"),
		Forkable:     r.Bool("snapshot forkable"),
		FullDigest:   r.String("snapshot full digest", maxSnapDigest),
		PrefixDigest: r.String("snapshot prefix digest", maxSnapDigest),
		progUnits:    r.Uvarint("snapshot prog units"),
		progInstrs:   r.Uvarint("snapshot prog instrs"),
		progLeading:  r.Uvarint("snapshot prog leading"),
	}
	s.payload = r.Blob("snapshot payload", maxSnapPayload)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("sim: snapshot frame: %w", err)
	}
	return s, nil
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
	cfg.SnapshotAtCycle = 0
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

// PrefixDigest identifies cfg's prefix-invariant machine parameters. Two
// configurations with equal prefix digests run the program's leading barrier
// prefix identically, so a Forkable snapshot captured under one resumes
// correctly under the other.
func PrefixDigest(cfg Config) string {
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

// wantSnapshot reports whether this top-of-cycle is the capture boundary.
func (m *machine) wantSnapshot() bool {
	if at := m.cfg.SnapshotAtCycle; at > 0 && m.cycle == at {
		return true
	}
	if m.cfg.SnapshotAtPrefix && m.snapLeading > 0 &&
		m.committed == m.snapLeading-1 && m.engine.Live() == 1 {
		// The last leading barrier has drained its trace but not yet
		// committed: it will commit during this cycle, and iteration
		// units may start this same cycle — so this is the last boundary
		// at which nothing configuration-divergent has happened.
		e := m.engine.Oldest()
		if c := m.coreOf(e); c != nil && c.done {
			return true
		}
	}
	return false
}

// captureSnapshot encodes the machine and hands the snapshot to the sink.
func (m *machine) captureSnapshot() {
	s := &Snapshot{
		Cycle:        m.cycle,
		Forkable:     m.forkable(),
		FullDigest:   FullDigest(m.cfg),
		PrefixDigest: PrefixDigest(m.cfg),
		progUnits:    uint64(len(m.prog.Units)),
		progInstrs:   m.prog.Instrs(),
		progLeading:  uint64(m.snapLeading),
	}
	w := snapbin.NewWriter(1 << 16)
	m.appendState(w)
	s.payload = w.Bytes()
	m.cfg.SnapshotSink(s)
}

// forkable reports whether the machine carries no state that any
// divergent-allowed configuration parameter could have influenced. The
// structural half (no speculative versions, no directory state, free latches,
// first-context epochs) lives in Engine.Forkable; the counters here pin that
// nothing configuration-sensitive ever happened, not merely that its state
// has drained.
func (m *machine) forkable() bool {
	if m.cfg.Inject != nil || m.err != nil || !m.engine.Forkable() {
		return false
	}
	st := m.engine.Stats
	if st.PrimaryViolations != 0 || st.SecondaryViolations != 0 ||
		st.OverflowSquashes != 0 || st.OverflowStalls != 0 ||
		st.SubthreadStarts != 0 || st.ExposedLoads != 0 || st.SpecStores != 0 {
		return false
	}
	if !m.pairs.Empty() {
		return false
	}
	if m.pred != nil && !m.pred.Empty() {
		return false
	}
	if m.spawnPred != nil && !m.spawnPred.Empty() {
		return false
	}
	r := &m.res
	return r.RewoundInstrs == 0 && r.SpecInstrs == 0 && r.PredictorSyncs == 0 &&
		r.OverflowWaits == 0 && r.InjectedFaults == 0 &&
		r.LatchDeadlockBreaks == 0 && r.L1Invalidations == 0 && r.EpochCount == 0
}

// RunCapture is RunE that also captures the run's prefix checkpoint: the
// Forkable snapshot taken at the end of the program's leading barrier
// prefix, or nil when there is none (no leading barrier, fault injection,
// speculative state at the boundary). The checkpoint is returned even when
// the run fails later on, since the prefix it holds completed.
func RunCapture(cfg Config, prog *Program) (*Result, *Snapshot, error) {
	var snap *Snapshot
	cfg.SnapshotAtPrefix = true
	cfg.SnapshotSink = func(s *Snapshot) {
		if s.Forkable {
			snap = s
		}
	}
	res, err := RunE(cfg, prog)
	return res, snap, err
}

// ResumeE resumes a run from a snapshot: restore when cfg matches the
// capturing configuration exactly (by FullDigest), fork when the snapshot is
// Forkable and cfg agrees on the prefix-invariant parameters. The returned
// Result is byte-identical to the uninterrupted run under cfg.
//
// Errors come in two kinds, and callers treat them differently. A *RunError
// is the resumed run's own outcome — audit, watchdog, cycle budget, or
// cancellation, exactly as RunE would have ended — so it fails the caller's
// task and the snapshot stays valid. Any other error means the snapshot does
// not apply to cfg and prog (fingerprint or digest mismatch, a corrupt
// payload) and nothing ran: drop the snapshot and replay in full.
//
// Restoring a run that was captured under fault injection requires cfg to
// carry a fresh injector built from the identical schedule (digests cannot
// verify this — Injector is opaque); ResumeE fast-forwards it past the
// already-consumed faults. Forking into a fault-injected run is refused: the
// injector would have perturbed the prefix the fork pretends was shared.
// Resuming with a memory oracle is refused for the same shape of reason: the
// oracle cannot observe the pre-snapshot stores.
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
	fork := false
	switch {
	case snap.FullDigest == FullDigest(cfg):
		// Exact restore.
	case snap.Forkable && snap.PrefixDigest == PrefixDigest(cfg):
		if cfg.Inject != nil {
			return nil, fmt.Errorf("sim: cannot fork a snapshot into a fault-injected run")
		}
		fork = true
	default:
		return nil, fmt.Errorf("sim: snapshot matches neither the full config nor a forkable prefix")
	}

	m := newMachine(cfg, prog)
	r := snapbin.NewReader(snap.payload)
	m.restoreState(r)
	if err := r.Done(); err != nil {
		m.release()
		return nil, fmt.Errorf("sim: snapshot payload: %w", err)
	}
	m.snapped = true
	if fork {
		m.refork()
	} else if cfg.Inject != nil && m.cycle > 0 {
		// Fast-forward past the faults the captured run already consumed:
		// capture precedes cycle C's drain, so exactly those scheduled at
		// or before C-1 were delivered.
		for {
			if _, ok := cfg.Inject.Next(m.cycle - 1); !ok {
				break
			}
		}
	}
	err := m.run()
	res := m.finish()
	m.release()
	return res, err
}

// refork recomputes the only config-derived per-core state a forkable
// snapshot carries: the sub-thread spacing and next spawn point, which the
// capturing configuration wrote its own values into even though they never
// influenced prefix execution. The recomputed values are exactly what a
// native run under the forked config would hold at this boundary: spawning
// is suppressed (^0) once the cursor has passed the first spawn point
// non-speculatively, untouched (0) when spawning is disabled, and armed at
// the first spacing otherwise.
func (m *machine) refork() {
	for _, c := range m.cores {
		if c.unit < 0 {
			continue
		}
		c.spacing = m.effectiveSpacing(m.prog.Units[c.unit].Trace)
		switch {
		case c.spacing == 0:
			c.nextSpawnAt = 0
		case c.cursor.Done() >= c.spacing:
			c.nextSpawnAt = ^uint64(0)
		default:
			c.nextSpawnAt = c.spacing
		}
	}
}

// appendState serializes the complete machine: everything that influences
// the remainder of the run, in a fixed field order.
func (m *machine) appendState(w *snapbin.Writer) {
	w.Uvarint(m.cycle)
	w.Int(m.nextUnit)
	w.Bool(m.barrierLive)
	w.Int(m.committed)
	w.Int(m.wdLastCommitted)
	w.Uvarint(m.wdLastCommitAt)
	w.Bool(m.wdSyncRun)
	w.Uvarint(m.wdAllSyncSince)

	// Result counters. TLS stats and the pair list are excluded: finish()
	// repopulates both from the restored engine and profile state.
	w.Uvarint(m.res.Cycles)
	for _, v := range m.res.Breakdown {
		w.Uvarint(v)
	}
	w.Uvarint(m.res.CommittedInstrs)
	w.Uvarint(m.res.RewoundInstrs)
	w.Uvarint(m.res.SpecInstrs)
	w.Int(m.res.EpochCount)
	w.Uvarint(m.res.Branches)
	w.Uvarint(m.res.Mispredicts)
	w.Uvarint(m.res.L1Hits)
	w.Uvarint(m.res.L1Misses)
	w.Uvarint(m.res.L2Hits)
	w.Uvarint(m.res.L2Misses)
	w.Uvarint(m.res.MemAccesses)
	w.Uvarint(m.res.LatchDeadlockBreaks)
	w.Uvarint(m.res.PredictorSyncs)
	w.Uvarint(m.res.InjectedFaults)
	w.Uvarint(m.res.OverflowWaits)
	w.Uvarint(m.res.L1Invalidations)
	w.Uvarint(m.res.L1IHits)
	w.Uvarint(m.res.L1IMisses)

	m.engine.AppendState(w)
	m.l2Banks.AppendState(w)
	m.memBanks.AppendState(w)

	w.Bool(m.pred != nil)
	if m.pred != nil {
		m.pred.AppendState(w)
	}
	w.Bool(m.spawnPred != nil)
	if m.spawnPred != nil {
		m.spawnPred.AppendState(w)
	}
	m.pairs.AppendState(w)

	// Chip-wide touched code lines (ModelICache), sorted for determinism.
	lines := make([]mem.Addr, 0, len(m.iTouched))
	for l := range m.iTouched {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.Uvarint(uint64(len(lines)))
	for _, l := range lines {
		w.Uvarint(uint64(l))
	}

	w.Int(m.engine.OrderIndex(m.lastToken))

	w.Uvarint(uint64(len(m.cores)))
	for _, c := range m.cores {
		m.appendCore(w, c)
	}
}

// restoreState rebuilds the machine from r; any decode or validation failure
// latches in the reader for the caller to surface.
func (m *machine) restoreState(r *snapbin.Reader) {
	m.cycle = r.Uvarint("machine cycle")
	m.nextUnit = r.Int("machine next unit")
	m.barrierLive = r.Bool("machine barrier live")
	m.committed = r.Int("machine committed")
	m.wdLastCommitted = r.Int("machine wd committed")
	m.wdLastCommitAt = r.Uvarint("machine wd commit-at")
	m.wdSyncRun = r.Bool("machine wd sync-run")
	m.wdAllSyncSince = r.Uvarint("machine wd sync-since")
	if r.Err() == nil && (m.nextUnit < 0 || m.nextUnit > len(m.prog.Units) ||
		m.committed < 0 || m.committed > len(m.prog.Units)) {
		r.Failf("machine unit indexes out of range (next %d, committed %d, %d units)",
			m.nextUnit, m.committed, len(m.prog.Units))
		return
	}

	m.res.Cycles = r.Uvarint("res cycles")
	for i := range m.res.Breakdown {
		m.res.Breakdown[i] = r.Uvarint("res breakdown")
	}
	m.res.CommittedInstrs = r.Uvarint("res committed instrs")
	m.res.RewoundInstrs = r.Uvarint("res rewound instrs")
	m.res.SpecInstrs = r.Uvarint("res spec instrs")
	m.res.EpochCount = r.Int("res epoch count")
	m.res.Branches = r.Uvarint("res branches")
	m.res.Mispredicts = r.Uvarint("res mispredicts")
	m.res.L1Hits = r.Uvarint("res l1 hits")
	m.res.L1Misses = r.Uvarint("res l1 misses")
	m.res.L2Hits = r.Uvarint("res l2 hits")
	m.res.L2Misses = r.Uvarint("res l2 misses")
	m.res.MemAccesses = r.Uvarint("res mem accesses")
	m.res.LatchDeadlockBreaks = r.Uvarint("res deadlock breaks")
	m.res.PredictorSyncs = r.Uvarint("res predictor syncs")
	m.res.InjectedFaults = r.Uvarint("res injected faults")
	m.res.OverflowWaits = r.Uvarint("res overflow waits")
	m.res.L1Invalidations = r.Uvarint("res l1 invalidations")
	m.res.L1IHits = r.Uvarint("res l1i hits")
	m.res.L1IMisses = r.Uvarint("res l1i misses")

	m.engine.RestoreState(r)
	m.l2Banks.RestoreState(r)
	m.memBanks.RestoreState(r)

	// Predictor presence in the frame follows the capturing config; the
	// restore target's presence follows its own. They only diverge on a
	// fork, where the forkable contract guarantees the state is empty, so
	// a frame-present/target-absent predictor decodes into a discard.
	if r.Bool("predictor present") {
		if m.pred != nil {
			m.pred.RestoreState(r)
		} else {
			predict.New().RestoreState(r)
		}
	}
	if r.Bool("spawn predictor present") {
		if m.spawnPred != nil {
			m.spawnPred.RestoreState(r)
		} else {
			predict.New().RestoreState(r)
		}
	}
	m.pairs.RestoreState(r)

	n := r.Count("itouched lines", maxSnapPayload)
	for i := 0; i < n && r.Err() == nil; i++ {
		m.iTouched[mem.Addr(r.Uvarint("itouched line"))] = true
	}

	m.lastToken = m.engine.EpochAt(r.Int("last token"))

	if nc := r.Count("cores", len(m.cores)); r.Err() == nil && nc != len(m.cores) {
		r.Failf("frame has %d cores, config has %d", nc, len(m.cores))
		return
	}
	for _, c := range m.cores {
		m.restoreCore(r, c)
		if r.Err() != nil {
			return
		}
	}
}

func (m *machine) appendCore(w *snapbin.Writer, c *core) {
	w.Int(c.unit)
	w.Int(m.engine.OrderIndex(c.epoch))
	if c.unit >= 0 {
		appendPos(w, c.cursor.Pos())
	}
	w.Uvarint(uint64(len(c.checkpoints)))
	for _, p := range c.checkpoints {
		appendPos(w, p)
	}
	w.Uvarint(uint64(len(c.ctxCycles)))
	for _, b := range c.ctxCycles {
		for _, v := range b {
			w.Uvarint(v)
		}
	}
	w.U64(c.nextSpawnAt) // fixed width: ^0 is a live sentinel value
	w.Uvarint(c.spacing)
	w.Bool(c.overflowWait)
	w.Uvarint(c.overflowCommits)
	w.Uvarint(c.missUntil)
	w.Int(c.missBudget)
	w.Uvarint(c.stallUntil)
	w.Int(int(c.stallCat))
	w.Bool(c.done)
	w.Bool(c.syncing)
	w.Uvarint(uint64(c.syncPC))
	w.Uvarint(uint64(c.syncAddr))
	w.Bool(c.predSync)
	c.gshare.AppendState(w)
	c.l1.AppendState(w)
	c.elt.AppendState(w)
	appendLineSet(w, c.l1Flags)
	entries := c.l1Mod.all()
	w.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		w.Uvarint(uint64(en.line))
		w.Int(int(en.ctx))
	}
	// ifetch presence is config-implied (Mem.ModelICache is
	// prefix-invariant), so capture and restore always agree on it.
	if c.ifetch != nil {
		w.Uvarint(uint64(c.ifetch.curSite))
		w.Int(c.ifetch.curLine)
		w.Uvarint(uint64(c.ifetch.sinceFet))
		c.ifetch.l1i.AppendState(w)
	}
}

func (m *machine) restoreCore(r *snapbin.Reader, c *core) {
	c.unit = r.Int("core unit")
	if r.Err() == nil && (c.unit < -1 || c.unit >= len(m.prog.Units)) {
		r.Failf("core %d: unit %d out of range", c.id, c.unit)
		return
	}
	epochIdx := r.Int("core epoch")
	c.epoch = m.engine.EpochAt(epochIdx)
	if r.Err() == nil && epochIdx >= 0 && c.epoch == nil {
		r.Failf("core %d: epoch index %d not live", c.id, epochIdx)
		return
	}
	// The barrier flag is derived from the unit, not encoded in the frame.
	var t *trace.Trace
	c.barrier = false
	if c.unit >= 0 {
		u := m.prog.Units[c.unit]
		t, c.barrier = u.Trace, u.Barrier
		pos := restorePos(r)
		if r.Err() == nil && !t.ValidPos(pos) {
			r.Failf("core %d: cursor position out of range", c.id)
			return
		}
		c.cursor = trace.NewCursor(t)
		c.cursor.Seek(pos)
	}
	nCk := r.Count("core checkpoints", tls.MaxSubthreads)
	c.checkpoints = c.checkpoints[:0]
	for i := 0; i < nCk && r.Err() == nil; i++ {
		// An idle core's checkpoints are its last unit's, unused until
		// tryStart resets them.
		pos := restorePos(r)
		if r.Err() == nil && t != nil && !t.ValidPos(pos) {
			r.Failf("core %d: checkpoint %d out of range", c.id, i)
			return
		}
		c.checkpoints = append(c.checkpoints, pos)
	}
	nCtx := r.Count("core ctx cycles", tls.MaxSubthreads)
	c.ctxCycles = c.ctxCycles[:0]
	for i := 0; i < nCtx && r.Err() == nil; i++ {
		var b Breakdown
		for j := range b {
			b[j] = r.Uvarint("core ctx breakdown")
		}
		c.ctxCycles = append(c.ctxCycles, b)
	}
	c.nextSpawnAt = r.U64("core next spawn")
	c.spacing = r.Uvarint("core spacing")
	c.overflowWait = r.Bool("core overflow wait")
	c.overflowCommits = r.Uvarint("core overflow commits")
	c.missUntil = r.Uvarint("core miss until")
	c.missBudget = r.Int("core miss budget")
	c.stallUntil = r.Uvarint("core stall until")
	cat := r.Int("core stall cat")
	if r.Err() == nil && (cat < 0 || cat >= int(NumCategories)) {
		r.Failf("core %d: stall category %d out of range", c.id, cat)
		return
	}
	c.stallCat = Category(cat)
	c.done = r.Bool("core done")
	c.syncing = r.Bool("core syncing")
	c.syncPC = isa.PC(r.Uvarint("core sync pc"))
	c.syncAddr = mem.Addr(r.Uvarint("core sync addr"))
	c.predSync = r.Bool("core pred sync")
	c.gshare.RestoreState(r)
	c.l1.RestoreState(r)
	c.elt.RestoreState(r)
	restoreLineSet(r, c.l1Flags)
	c.l1Mod.clear()
	nMod := r.Count("core l1 mod", maxSnapPayload)
	for i := 0; i < nMod && r.Err() == nil; i++ {
		line := mem.Addr(r.Uvarint("core mod line"))
		ctx := r.Int("core mod ctx")
		if r.Err() == nil {
			c.l1Mod.noteWrite(line, ctx)
		}
	}
	if c.ifetch != nil {
		c.ifetch.curSite = isa.PC(r.Uvarint("ifetch site"))
		c.ifetch.curLine = r.Int("ifetch line")
		c.ifetch.sinceFet = uint32(r.Uvarint("ifetch since"))
		c.ifetch.l1i.RestoreState(r)
	}
}

func appendPos(w *snapbin.Writer, p trace.Pos) {
	w.Int(p.Index())
	w.Uvarint(uint64(p.Offset()))
	w.Uvarint(p.Done())
}

func restorePos(r *snapbin.Reader) trace.Pos {
	idx := r.Int("pos index")
	off := uint32(r.Uvarint("pos offset"))
	done := r.Uvarint("pos done")
	return trace.MakePos(idx, off, done)
}

// appendLineSet serializes a generation-stamped line set as its member line
// indexes; page order makes the encoding ascending and deterministic.
func appendLineSet(w *snapbin.Writer, s *lineSet) {
	count := uint64(0)
	for _, pg := range s.pages {
		for _, stamp := range pg {
			if stamp == s.gen {
				count++
			}
		}
	}
	w.Uvarint(count)
	for p, pg := range s.pages {
		if pg == nil {
			continue
		}
		for i, stamp := range pg {
			if stamp == s.gen {
				w.Uvarint(uint64(uint32(p)<<corePageShift | uint32(i)))
			}
		}
	}
}

func restoreLineSet(r *snapbin.Reader, s *lineSet) {
	s.clear()
	n := r.Count("line set", maxSnapPayload)
	for i := 0; i < n && r.Err() == nil; i++ {
		idx := r.Uvarint("line set member")
		s.add(mem.Addr(idx * mem.LineSize))
	}
}
