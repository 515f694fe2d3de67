package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"subthreads/internal/cpu"
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
//     agree on every prefix-invariant parameter (prefixDigest). This is the
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

// prefixDigest identifies cfg's prefix-invariant machine parameters. Two
// configurations with equal prefix digests run the program's leading barrier
// prefix identically, so a Forkable snapshot captured under one resumes
// correctly under the other.
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
		PrefixDigest: prefixDigest(m.cfg),
		progUnits:    uint64(len(m.prog.Units)),
		progInstrs:   m.prog.Instrs(),
		progLeading:  uint64(m.snapLeading),
	}
	w := snapbin.NewWriter(1 << 16)
	m.state(snapbin.Capture(w))
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
	case snap.Forkable && snap.PrefixDigest == prefixDigest(cfg):
		if cfg.Inject != nil {
			return nil, fmt.Errorf("sim: cannot fork a snapshot into a fault-injected run")
		}
		fork = true
	default:
		return nil, fmt.Errorf("sim: snapshot matches neither the full config nor a forkable prefix")
	}

	m := newMachine(cfg, prog)
	r := snapbin.NewReader(snap.payload)
	m.state(snapbin.Restore(r))
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

// state streams the complete machine: everything that influences the
// remainder of the run, in a fixed field order. A restore failure latches in
// the stream for the caller to surface.
func (m *machine) state(s *snapbin.Stream) {
	s.Uvarint(&m.cycle, "machine cycle")
	s.Int(&m.nextUnit, "machine next unit")
	s.Bool(&m.barrierLive, "machine barrier live")
	s.Int(&m.committed, "machine committed")
	s.Int(&m.wdLastCommitted, "machine wd committed")
	s.Uvarint(&m.wdLastCommitAt, "machine wd commit-at")
	s.Bool(&m.wdSyncRun, "machine wd sync-run")
	s.Uvarint(&m.wdAllSyncSince, "machine wd sync-since")
	if s.Reading() && s.Err() == nil && (m.nextUnit < 0 || m.nextUnit > len(m.prog.Units) ||
		m.committed < 0 || m.committed > len(m.prog.Units)) {
		s.Failf("machine unit indexes out of range (next %d, committed %d, %d units)",
			m.nextUnit, m.committed, len(m.prog.Units))
		return
	}

	// Result counters. TLS stats and the pair list are excluded: finish()
	// repopulates both from the restored engine and profile state.
	res := &m.res
	s.Uvarint(&res.Cycles, "res cycles")
	for i := range res.Breakdown {
		s.Uvarint(&res.Breakdown[i], "res breakdown")
	}
	s.Uvarint(&res.CommittedInstrs, "res committed instrs")
	s.Uvarint(&res.RewoundInstrs, "res rewound instrs")
	s.Uvarint(&res.SpecInstrs, "res spec instrs")
	s.Int(&res.EpochCount, "res epoch count")
	s.Uvarint(&res.Branches, "res branches")
	s.Uvarint(&res.Mispredicts, "res mispredicts")
	s.Uvarint(&res.L1Hits, "res l1 hits")
	s.Uvarint(&res.L1Misses, "res l1 misses")
	s.Uvarint(&res.L2Hits, "res l2 hits")
	s.Uvarint(&res.L2Misses, "res l2 misses")
	s.Uvarint(&res.MemAccesses, "res mem accesses")
	s.Uvarint(&res.LatchDeadlockBreaks, "res deadlock breaks")
	s.Uvarint(&res.PredictorSyncs, "res predictor syncs")
	s.Uvarint(&res.InjectedFaults, "res injected faults")
	s.Uvarint(&res.OverflowWaits, "res overflow waits")
	s.Uvarint(&res.L1Invalidations, "res l1 invalidations")
	s.Uvarint(&res.L1IHits, "res l1i hits")
	s.Uvarint(&res.L1IMisses, "res l1i misses")

	m.engine.State(s)
	m.l2Banks.State(s)
	m.memBanks.State(s)
	predictorState(s, m.pred, "predictor present")
	predictorState(s, m.spawnPred, "spawn predictor present")
	m.pairs.State(s)

	// Chip-wide touched code lines (ModelICache), in ascending order.
	snapbin.Map(s, m.iTouched, "itouched lines", maxSnapPayload, func(s *snapbin.Stream, line mem.Addr, _ bool) (mem.Addr, bool) {
		snapbin.Uvarint(s, &line, "itouched line")
		return line, true
	})

	last := m.engine.OrderIndex(m.lastToken)
	s.Int(&last, "last token")
	if s.Reading() {
		m.lastToken = m.engine.EpochAt(last)
	}

	n := len(m.cores)
	s.Len(&n, "cores", len(m.cores))
	if s.Reading() && s.Err() == nil && n != len(m.cores) {
		s.Failf("frame has %d cores, config has %d", n, len(m.cores))
		return
	}
	for _, c := range m.cores {
		m.coreState(s, c)
		if s.Err() != nil {
			return
		}
	}
}

// predictorState streams a predictor the configuration may leave out. Its
// presence in the frame follows the capturing config and the restore
// target's follows its own. They only diverge on a fork, where the forkable
// contract guarantees the state is empty, so a predictor the frame has and
// the target lacks decodes into a discard.
func predictorState(s *snapbin.Stream, p *predict.Predictor, field string) {
	present := p != nil
	s.Bool(&present, field)
	if !present {
		return
	}
	if p == nil {
		p = predict.New()
	}
	p.State(s)
}

func (m *machine) coreState(s *snapbin.Stream, c *core) {
	s.Int(&c.unit, "core unit")
	if s.Reading() && s.Err() == nil && (c.unit < -1 || c.unit >= len(m.prog.Units)) {
		s.Failf("core %d: unit %d out of range", c.id, c.unit)
		return
	}
	epochIdx := m.engine.OrderIndex(c.epoch)
	s.Int(&epochIdx, "core epoch")
	if s.Reading() {
		c.epoch = m.engine.EpochAt(epochIdx)
		if s.Err() == nil && epochIdx >= 0 && c.epoch == nil {
			s.Failf("core %d: epoch index %d not live", c.id, epochIdx)
			return
		}
	}
	var t *trace.Trace
	if c.unit >= 0 {
		t = m.prog.Units[c.unit].Trace
		var pos trace.Pos
		if !s.Reading() {
			pos = c.cursor.Pos()
		}
		ok := posState(s, t, &pos)
		if s.Reading() {
			if s.Err() == nil && !ok {
				s.Failf("core %d: cursor position out of range", c.id)
				return
			}
			c.cursor = trace.NewCursor(t)
			c.cursor.Seek(pos)
		}
	}
	if s.Reading() {
		// The barrier flag is derived from the unit, not encoded in the
		// frame.
		c.barrier = t != nil && m.prog.Units[c.unit].Barrier
	}
	// An idle core's checkpoints are its last unit's, unused until tryStart
	// resets them. Its cursor still walks that unit's trace, except on a
	// restored machine, which keeps them in frame coordinates (a nil trace).
	ct := t
	if ct == nil && c.cursor != nil {
		ct = c.cursor.Trace()
	}
	snapbin.Slice(s, &c.checkpoints, "core checkpoints", tls.MaxSubthreads)
	for i := range c.checkpoints {
		ok := posState(s, ct, &c.checkpoints[i])
		if s.Reading() && s.Err() == nil && !ok {
			s.Failf("core %d: checkpoint %d out of range", c.id, i)
			return
		}
	}
	snapbin.Slice(s, &c.ctxCycles, "core ctx cycles", tls.MaxSubthreads)
	for i := range c.ctxCycles {
		for j := range c.ctxCycles[i] {
			s.Uvarint(&c.ctxCycles[i][j], "core ctx breakdown")
		}
	}
	s.U64(&c.nextSpawnAt, "core next spawn") // fixed width: ^0 is a live sentinel value
	s.Uvarint(&c.spacing, "core spacing")
	s.Bool(&c.overflowWait, "core overflow wait")
	s.Uvarint(&c.overflowCommits, "core overflow commits")
	s.Uvarint(&c.missUntil, "core miss until")
	s.Int(&c.missBudget, "core miss budget")
	s.Uvarint(&c.stallUntil, "core stall until")
	snapbin.Varint(s, &c.stallCat, "core stall cat")
	if s.Reading() && s.Err() == nil && (c.stallCat < 0 || c.stallCat >= NumCategories) {
		s.Failf("core %d: stall category %d out of range", c.id, c.stallCat)
		return
	}
	s.Bool(&c.done, "core done")
	s.Bool(&c.syncing, "core syncing")
	snapbin.Uvarint(s, &c.syncPC, "core sync pc")
	snapbin.Uvarint(s, &c.syncAddr, "core sync addr")
	s.Bool(&c.predSync, "core pred sync")
	c.gshare.State(s)
	c.l1.State(s)
	c.elt.State(s)
	lineSetState(s, c.l1Flags)

	// Speculatively written lines with their earliest writing context, in
	// insertion order.
	var mods []modEntry
	if s.Reading() {
		c.l1Mod.clear()
	} else {
		mods = c.l1Mod.all()
	}
	snapbin.Slice(s, &mods, "core l1 mod", maxSnapPayload)
	for i := range mods {
		snapbin.Uvarint(s, &mods[i].line, "core mod line")
		snapbin.Varint(s, &mods[i].ctx, "core mod ctx")
		if s.Reading() && s.Err() == nil {
			c.l1Mod.noteWrite(mods[i].line, int(mods[i].ctx))
		}
	}

	// ifetch presence is config-implied (Mem.ModelICache is
	// prefix-invariant), so capture and restore always agree on it.
	if f := c.ifetch; f != nil {
		snapbin.Uvarint(s, &f.curSite, "ifetch site")
		s.Int(&f.curLine, "ifetch line")
		snapbin.Uvarint(s, &f.sinceFet, "ifetch since")
		f.l1i.State(s)
	}
}

// posState streams p, a position in t, as the index of the event it lies in
// within t's unfused event stream, the instructions consumed inside that
// event and those done before it (trace.EventIndex, trace.PosAt). Frames
// held these coordinates before trace entries took in the ALU run ahead of
// them, so every frame keeps its bytes. On restore it reports whether a
// cursor over t can stand at the position read.
func posState(s *snapbin.Stream, t *trace.Trace, p *trace.Pos) bool {
	idx, off := t.EventIndex(*p)
	done := p.Done()
	s.Int(&idx, "pos index")
	snapbin.Uvarint(s, &off, "pos offset")
	s.Uvarint(&done, "pos done")
	if !s.Reading() {
		return true
	}
	var ok bool
	*p, ok = t.PosAt(idx, off, done)
	return ok
}

// lineSetState streams a generation-stamped line set as its member line
// indexes; page order makes the encoding ascending and deterministic.
func lineSetState(s *snapbin.Stream, ls *lineSet) {
	n := 0
	for _, pg := range ls.pages {
		for _, stamp := range pg {
			if stamp == ls.gen {
				n++
			}
		}
	}
	s.Len(&n, "line set", maxSnapPayload)
	if s.Reading() {
		ls.clear()
		for i := 0; i < n && s.Err() == nil; i++ {
			var idx uint64
			s.Uvarint(&idx, "line set member")
			ls.add(mem.Addr(idx * mem.LineSize))
		}
		return
	}
	for p, pg := range ls.pages {
		for i, stamp := range pg {
			if stamp == ls.gen {
				idx := uint64(uint32(p)<<corePageShift | uint32(i))
				s.Uvarint(&idx, "line set member")
			}
		}
	}
}
