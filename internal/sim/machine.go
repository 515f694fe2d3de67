package sim

import (
	"fmt"

	"subthreads/internal/cache"
	"subthreads/internal/cpu"
	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/predict"
	"subthreads/internal/profile"
	"subthreads/internal/telemetry"
	"subthreads/internal/tls"
	"subthreads/internal/trace"
)

// core is the per-CPU state machine.
type core struct {
	id     int
	gshare *cpu.GShare
	l1     *cache.Cache
	elt    *profile.ExposedLoadTable

	// Current work.
	unit    int  // index into program units; -1 when idle
	barrier bool // the unit is a barrier (prog.Units[unit].Barrier)
	epoch   *tls.Epoch
	cursor  *trace.Cursor

	// Sub-thread checkpoints: checkpoints[ctx] is the trace position the
	// context restarts from; ctxCycles[ctx] accrues cycles for failed-
	// speculation reclassification.
	checkpoints []trace.Pos
	ctxCycles   []Breakdown
	nextSpawnAt uint64

	// l1Flags marks lines this epoch has already notified the L2 about
	// (first speculative load); l1Mod maps lines it speculatively wrote
	// to the earliest writing sub-thread context (invalidated from L1 on
	// a violation, §2.2 — all of them without L1SubthreadTracking, only
	// the rewound contexts' lines with it). Both are direct-addressed,
	// generation-stamped tables so the per-epoch reset is O(1) and the
	// per-access probe allocation-free.
	l1Flags *lineSet
	l1Mod   *lineModMap
	modKeep []modEntry // violation-path scratch (L1SubthreadTracking)

	// spacing is the effective sub-thread spacing for this epoch
	// (per-epoch under SpawnAdaptive).
	spacing uint64

	// overflowWait is set when speculative state could not be buffered:
	// the epoch stalls until an earlier epoch commits (§2.1).
	overflowWait    bool
	overflowCommits uint64

	// Outstanding load miss (NonBlockingLoads): execution may run ahead
	// until the reorder buffer fills, then stalls for the remainder.
	missUntil  uint64
	missBudget int

	ifetch *ifetcher // nil unless MemParams.ModelICache

	stallUntil uint64
	stallCat   Category

	done     bool // trace finished, waiting for homefree token
	syncing  bool // waiting on a latch or predictor synchronization
	syncPC   isa.PC
	syncAddr mem.Addr
	predSync bool // current sync is predictor-driven
}

// machine is one run of the simulator.
type machine struct {
	cfg    Config
	prog   *Program
	engine *tls.Engine
	cores  []*core

	l2Banks   *cache.Banks
	memBanks  *cache.Banks
	pred      *predict.Predictor
	spawnPred *predict.Predictor // trains sub-thread placement (SpawnPredictor)
	pairs     *profile.PairList

	iTouched map[mem.Addr]bool // code lines ever fetched (ModelICache)

	cycle       uint64
	nextUnit    int
	barrierLive bool // a barrier unit has started and not committed
	committed   int  // units fully committed

	// tel receives protocol events; nil when telemetry is disabled.
	// lastToken tracks homefree-token passes (the epoch that most recently
	// became oldest).
	tel       telemetry.Emitter
	lastToken *tls.Epoch

	// err records a mid-step paranoid failure (e.g. a forward rewind)
	// for the run loop to surface as a RunError.
	err error

	// Forward-progress watchdog state. These live on the machine (not as
	// run-loop locals) so a snapshot carries them and a restored run's
	// watchdog decisions are cycle-identical to the uninterrupted run's.
	wdLastCommitted int
	wdLastCommitAt  uint64
	wdSyncRun       bool
	wdAllSyncSince  uint64

	// snapped is set once a snapshot has been captured (or the machine was
	// itself restored from one), so a run emits at most one snapshot and a
	// resumed run never re-captures.
	snapped bool
	// snapLeading counts the program's leading barrier units — the shared
	// prefix a SnapshotAtPrefix capture keys off.
	snapLeading int

	res Result
}

// Run executes the program on the configured machine and returns the
// measured result. A structured failure (audit, watchdog, cycle budget —
// see RunE) panics with the *RunError; normal runs never fail.
func Run(cfg Config, prog *Program) *Result {
	res, err := RunE(cfg, prog)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE executes the program and returns the measured result, or a *RunError
// when paranoid auditing, the forward-progress watchdog, or the cycle budget
// abandons the run. The partial result is returned alongside the error.
func RunE(cfg Config, prog *Program) (*Result, error) {
	m := newMachine(cfg, prog)
	err := m.run()
	res := m.finish()
	m.release()
	return res, err
}

// release returns the per-core line tables' pages to the shared pools so the
// next Run (possibly on another goroutine) reuses them instead of growing the
// heap. The machine must not be used afterwards.
func (m *machine) release() {
	for _, c := range m.cores {
		c.l1Flags.release()
		c.l1Mod.release()
	}
}

func newMachine(cfg Config, prog *Program) *machine {
	if cfg.CPUs < 1 {
		panic("sim: CPUs < 1")
	}
	tcfg := cfg.TLS
	tcfg.CPUs = cfg.CPUs
	tcfg.Paranoid = tcfg.Paranoid || cfg.Paranoid
	m := &machine{
		cfg:      cfg,
		prog:     prog,
		engine:   tls.NewEngine(tcfg),
		l2Banks:  cache.NewBanks(cfg.Mem.L2Banks, cfg.Mem.L2BankOccupancy),
		memBanks: cache.NewBanks(1, cfg.Mem.MemOccupancy),
		pairs:    profile.NewPairList(cfg.PairListEntries),
		iTouched: make(map[mem.Addr]bool),
		tel:      cfg.Telemetry,
	}
	if cfg.UsePredictor {
		m.pred = predict.New()
	}
	if cfg.Spawn == SpawnPredictor {
		m.spawnPred = predict.New()
	}
	for i := 0; i < cfg.CPUs; i++ {
		m.cores = append(m.cores, &core{
			id:     i,
			gshare: cpu.NewGShare(cfg.CPU.BranchTableBits, cfg.CPU.BranchHistoryBits),
			l1: cache.New(cache.Config{
				Name: fmt.Sprintf("L1d-%d", i),
				Sets: cfg.Mem.L1Sets,
				Ways: cfg.Mem.L1Ways,
			}),
			elt:     profile.NewExposedLoadTable(cfg.ExposedTableEntries),
			unit:    -1,
			l1Flags: newLineSet(),
			l1Mod:   newLineModMap(),
		})
		if cfg.Mem.ModelICache {
			m.cores[i].ifetch = newIFetcher(cfg.Mem)
		}
	}
	m.snapLeading = leadingBarriers(prog)
	return m
}

// coreOf maps a live epoch back to the core running it: an epoch's Slot IS
// its CPU (at most one live epoch per slot), so no lookup table is needed.
func (m *machine) coreOf(e *tls.Epoch) *core {
	if e.Slot < 0 || e.Slot >= len(m.cores) {
		return nil
	}
	if c := m.cores[e.Slot]; c.epoch == e {
		return c
	}
	return nil
}

func (m *machine) run() error {
	deadlock := m.cfg.LatchDeadlockCycles
	if deadlock == 0 {
		deadlock = 50000
	}
	for m.committed < len(m.prog.Units) {
		// Snapshot capture sits at the very top of the cycle, before the
		// inject drain and before any core steps: everything that happens
		// at cycle N is then replayed identically by a resumed run. The
		// nil test keeps the hot path at one pointer compare.
		if m.cfg.SnapshotSink != nil && !m.snapped && m.wantSnapshot() {
			m.snapped = true
			m.captureSnapshot()
		}
		if m.cfg.Inject != nil {
			for {
				f, ok := m.cfg.Inject.Next(m.cycle)
				if !ok {
					break
				}
				m.injectFault(f)
			}
		}
		// Only a core's own step sets syncing (a squash may clear it), so
		// when no core syncs after its step none syncs at the cycle's end.
		syncing := false
		for _, c := range m.cores {
			m.step(c)
			syncing = syncing || c.syncing
		}
		m.cycle++
		if m.err != nil {
			return m.abandon("audit", m.err)
		}
		if m.cfg.Paranoid {
			if err := m.engine.AuditErr(); err != nil {
				return m.abandon("audit", err)
			}
		}

		// Forward-progress watchdog: livelock (nothing commits for too
		// long) becomes a structured error instead of a hang.
		if m.committed != m.wdLastCommitted {
			m.wdLastCommitted = m.committed
			m.wdLastCommitAt = m.cycle
		} else if wd := m.cfg.WatchdogCycles; wd > 0 && m.cycle-m.wdLastCommitAt > wd {
			return m.abandon("watchdog", fmt.Errorf(
				"no unit committed for %d cycles (%d/%d committed)",
				wd, m.committed, len(m.prog.Units)))
		}
		if mc := m.cfg.MaxCycles; mc > 0 && m.cycle > mc {
			return m.abandon("max-cycles", fmt.Errorf(
				"cycle budget %d exhausted (%d/%d units committed)",
				mc, m.committed, len(m.prog.Units)))
		}
		// Cancellation poll: the serving layer's deadline/disconnect
		// signal, checked on the same loop as the watchdog but only every
		// CancelPollCycles cycles so the check stays off the hot path.
		if m.cfg.Cancel != nil && m.cycle%CancelPollCycles == 0 {
			if cerr := m.cfg.Cancel(); cerr != nil {
				return m.abandon("cancelled", cerr)
			}
		}

		// Latch-deadlock watchdog: if every core with work is stuck in
		// a synchronization wait for too long, break the cycle by
		// squashing the youngest epoch that holds a latch.
		busy, stuck := 0, 0
		if syncing { // otherwise no core is stuck
			for _, c := range m.cores {
				if c.epoch != nil && !c.done {
					busy++
					if c.syncing && !c.predSync {
						stuck++
					}
				}
			}
		}
		if busy > 0 && busy == stuck {
			if !m.wdSyncRun {
				m.wdSyncRun = true
				m.wdAllSyncSince = m.cycle
			} else if m.cycle-m.wdAllSyncSince > deadlock {
				m.breakDeadlock()
				m.wdSyncRun = false
			}
		} else {
			m.wdSyncRun = false
		}
	}
	m.res.Cycles = m.cycle
	if m.cfg.Paranoid {
		if total := m.res.Breakdown.Total(); total != m.cycle*uint64(m.cfg.CPUs) {
			return m.abandon("audit", fmt.Errorf(
				"cycle accounting imbalance: breakdown %d != %d cycles x %d CPUs",
				total, m.cycle, m.cfg.CPUs))
		}
	}
	return nil
}

// abandon records the failure telemetry and wraps the cause in a RunError.
func (m *machine) abandon(kind string, err error) error {
	m.res.Cycles = m.cycle
	if m.tel != nil {
		k := telemetry.WatchdogTrip
		if kind == "audit" {
			k = telemetry.AuditFail
		}
		m.tel.Emit(telemetry.Event{Cycle: m.cycle, Kind: k})
	}
	return &RunError{Kind: kind, Cycle: m.cycle, Err: err}
}

// injectFault delivers one scheduled fault: the CPU/Ctx hints are reduced
// over the currently-live speculative (non-oldest) epochs, so injection
// never touches the homefree epoch — whose state is architecturally
// committed and must not be rewound.
func (m *machine) injectFault(f Fault) {
	var victims []*core
	for _, c := range m.cores {
		if c.epoch != nil && m.engine.Speculative(c.epoch) {
			victims = append(victims, c)
		}
	}
	if len(victims) == 0 {
		return
	}
	v := victims[f.CPU%len(victims)]
	ctx := f.Ctx % (v.epoch.CurCtx + 1)
	m.res.InjectedFaults++
	if m.tel != nil {
		k := telemetry.InjectSquash
		if f.Kind == FaultOverflow {
			k = telemetry.InjectOverflow
		}
		m.tel.Emit(telemetry.Event{
			Cycle: m.cycle, CPU: v.id, Kind: k,
			Epoch: v.epoch.ID, Ctx: ctx,
		})
	}
	switch f.Kind {
	case FaultSquash:
		m.applySquashes(m.engine.ForceSquash(v.epoch, ctx, tls.Secondary))
	case FaultOverflow:
		if m.engine.Config().OverflowPolicy == tls.OverflowSquash {
			m.applySquashes(m.engine.ForceSquash(v.epoch, ctx, tls.Overflow))
		} else if !v.overflowWait {
			// Synthetic buffer exhaustion: stall exactly as a
			// refused speculative insert would (§2.1).
			m.res.OverflowWaits++
			v.overflowWait = true
			v.overflowCommits = m.engine.Stats.Commits
		}
	}
}

// emitHomefree reports homefree-token passes: whenever the oldest live epoch
// changes (an epoch starts alone, or a commit hands the token on), the new
// holder gets a HomefreeToken event.
func (m *machine) emitHomefree() {
	if m.tel == nil {
		return
	}
	e := m.engine.Oldest()
	if e == nil || e == m.lastToken {
		return
	}
	m.lastToken = e
	c := m.coreOf(e)
	if c == nil {
		return
	}
	m.tel.Emit(telemetry.Event{
		Cycle: m.cycle, CPU: c.id, Kind: telemetry.HomefreeToken,
		Epoch: e.ID, Ctx: e.CurCtx,
	})
}

// breakDeadlock squashes the youngest live epoch holding a latch.
func (m *machine) breakDeadlock() {
	var victim *core
	for _, c := range m.cores {
		if c.epoch == nil {
			continue
		}
		if victim == nil || c.epoch.ID > victim.epoch.ID {
			victim = c
		}
	}
	if victim == nil {
		return
	}
	m.res.LatchDeadlockBreaks++
	if m.tel != nil {
		m.tel.Emit(telemetry.Event{
			Cycle: m.cycle, CPU: victim.id, Kind: telemetry.DeadlockBreak,
			Epoch: victim.epoch.ID, Ctx: victim.epoch.CurCtx,
		})
	}
	sqs := m.engine.ForceSquash(victim.epoch, 0, tls.Secondary)
	m.applySquashes(sqs)
}

// accrue charges one cycle to the core in the given category, recording it
// against the current sub-thread context for later failed-speculation
// reclassification.
func (m *machine) accrue(c *core, cat Category) {
	m.res.Breakdown[cat]++
	if c.epoch != nil && int(c.epoch.CurCtx) < len(c.ctxCycles) {
		c.ctxCycles[c.epoch.CurCtx][cat]++
	}
}

// step advances one core by one cycle.
func (m *machine) step(c *core) {
	if c.epoch == nil {
		if !m.tryStart(c) {
			m.res.Breakdown[Idle]++
			return
		}
	}
	if m.cycle < c.stallUntil {
		m.accrue(c, c.stallCat)
		return
	}
	if c.overflowWait {
		// Buffer-overflow stall (§2.1): resume once an earlier epoch
		// has committed (freeing ways) or we hold the homefree token.
		if m.engine.Oldest() == c.epoch || m.engine.Stats.Commits > c.overflowCommits {
			c.overflowWait = false
			if m.tel != nil {
				m.tel.Emit(telemetry.Event{
					Cycle: m.cycle, CPU: c.id, Kind: telemetry.OverflowResume,
					Epoch: c.epoch.ID, Ctx: c.epoch.CurCtx,
				})
			}
		} else {
			m.accrue(c, Sync)
			return
		}
	}
	if c.syncing {
		m.retrySync(c)
		return
	}
	if c.done {
		m.finishEpoch(c)
		return
	}
	// Barrier units execute only when non-speculative.
	if c.barrier && m.engine.Oldest() != c.epoch {
		m.accrue(c, Idle)
		return
	}
	m.execute(c)
}

// tryStart assigns the next program unit to a free core, respecting barrier
// ordering.
func (m *machine) tryStart(c *core) bool {
	if m.nextUnit >= len(m.prog.Units) || m.barrierLive {
		return false
	}
	u := m.prog.Units[m.nextUnit]
	c.unit = m.nextUnit
	c.barrier = u.Barrier
	m.nextUnit++
	if u.Barrier {
		m.barrierLive = true
	}
	c.epoch = m.engine.StartEpoch(uint64(c.unit), c.id)
	if c.cursor == nil {
		c.cursor = trace.NewCursor(u.Trace)
	} else {
		c.cursor.Reset(u.Trace)
	}
	c.checkpoints = append(c.checkpoints[:0], c.cursor.Pos())
	c.ctxCycles = append(c.ctxCycles[:0], Breakdown{})
	c.spacing = m.effectiveSpacing(u.Trace)
	c.nextSpawnAt = c.spacing
	c.done = false
	c.syncing = false
	c.overflowWait = false
	c.missUntil = 0
	c.l1Flags.clear()
	c.l1Mod.clear()
	c.elt.Reset()
	if !u.Barrier {
		m.res.EpochCount++
	}
	if m.tel != nil {
		m.tel.Emit(telemetry.Event{
			Cycle: m.cycle, CPU: c.id, Kind: telemetry.EpochStart,
			Epoch: c.epoch.ID, Barrier: u.Barrier,
		})
		m.emitHomefree()
	}
	return true
}

// finishEpoch handles a core whose epoch has consumed its whole trace: it
// waits for the homefree token, then commits.
func (m *machine) finishEpoch(c *core) {
	if m.engine.Oldest() != c.epoch {
		m.accrue(c, Idle) // waiting to commit
		return
	}
	if c.barrier {
		m.barrierLive = false
	}
	committed, sqs := m.engine.CommitOldest()
	if m.cfg.Oracle != nil {
		m.cfg.Oracle.OnCommit(committed.ID)
	}
	if m.tel != nil {
		m.tel.Emit(telemetry.Event{
			Cycle: m.cycle, CPU: c.id, Kind: telemetry.EpochCommit,
			Epoch: committed.ID, Ctx: committed.CurCtx,
			Barrier: c.barrier,
			Instrs:  c.cursor.Trace().Instrs(),
		})
	}
	m.applySquashes(sqs)
	m.emitHomefree()
	m.res.CommittedInstrs += c.cursor.Trace().Instrs()
	m.committed++
	c.epoch = nil
	c.unit = -1
	c.barrier = false
	if m.cfg.CommitPenalty > 0 {
		c.stallUntil = m.cycle + m.cfg.CommitPenalty
		c.stallCat = Busy
	}
	m.res.Breakdown[Busy]++ // the commit cycle itself
}

// retrySync re-attempts a stalled synchronization (latch acquire or
// predictor-driven load sync).
func (m *machine) retrySync(c *core) {
	if c.predSync {
		// Predicted-dependent load: wait until a producer wrote the
		// word or we are the oldest epoch.
		if m.engine.Oldest() == c.epoch {
			m.pred.RecordUseless(c.syncPC)
			c.syncing = false
			c.predSync = false
			m.execute(c)
			return
		}
		if m.engine.ProducerWrote(c.epoch, c.syncAddr) {
			c.syncing = false
			c.predSync = false
			m.execute(c)
			return
		}
		m.accrue(c, Sync)
		return
	}
	// Latch wait.
	if !m.latchDelayed() && m.engine.AcquireLatch(c.epoch, c.syncAddr) {
		c.syncing = false
		if m.tel != nil {
			m.tel.Emit(telemetry.Event{
				Cycle: m.cycle, CPU: c.id, Kind: telemetry.LatchAcquired,
				Epoch: c.epoch.ID, Ctx: c.epoch.CurCtx, Addr: c.syncAddr,
			})
		}
		// Consume the latch-acquire entry the wait began at.
		if p, ok := c.cursor.Head(); !ok || p.Kind() != isa.LatchAcquire {
			panic("sim: latch wait desynchronized from trace")
		}
		c.cursor.Step()
		m.execute(c)
		return
	}
	m.accrue(c, Sync)
}

// execute runs one issue cycle of the core's trace. Each pass of the loop
// reads the entry at the cursor once: what is pending of the ALU run it
// carries, fused ahead of its event or on its own, is consumed in one call
// clipped to the issue budget, the event by a one-step advance, and a
// trace.Event is decoded only for the accesses and latches that take one.
func (m *machine) execute(c *core) {
	// finishEpoch is the only caller of CommitOldest, so no commit
	// happens while a core issues: the epoch's status holds for the call.
	spec := m.engine.Speculative(c.epoch)
	cur := c.cursor
	budget := uint32(m.cfg.CPU.IssueWidth)
	memUsed := false
	issued := false

	for budget > 0 && c.stallUntil <= m.cycle {
		p, ok := cur.Head()
		if !ok {
			c.done = true
			c.epoch.Completed = true
			break
		}
		kind, n := isa.ALU, uint32(1)
		if pend := cur.Pending(p); pend != 0 {
			n = min(pend, budget)
			cur.TakeALU(p, n)
		} else {
			// The entry's run is consumed: issue its event.
			kind = p.Kind()
			if kind.IsMemory() && memUsed {
				break // one data-cache access per cycle
			}
			if kind == isa.LatchAcquire {
				// Peek-first: the entry is only consumed once granted.
				ev := p.Event()
				if m.latchDelayed() || !m.engine.AcquireLatch(c.epoch, ev.Addr) {
					if !issued {
						c.syncing = true
						c.predSync = false
						c.syncAddr = ev.Addr
						c.syncPC = ev.PC
						if m.tel != nil {
							m.tel.Emit(telemetry.Event{
								Cycle: m.cycle, CPU: c.id, Kind: telemetry.LatchStall,
								Epoch: c.epoch.ID, Ctx: c.epoch.CurCtx, Addr: ev.Addr,
							})
						}
						m.accrue(c, Sync)
						return
					}
					break
				}
				if m.tel != nil {
					m.tel.Emit(telemetry.Event{
						Cycle: m.cycle, CPU: c.id, Kind: telemetry.LatchAcquired,
						Epoch: c.epoch.ID, Ctx: c.epoch.CurCtx, Addr: ev.Addr,
					})
				}
				cur.Step()
				budget--
				issued = true
				if c.atSpawnPoint() {
					m.maybeSpawn(c, spec)
				}
				continue
			}
			if kind == isa.Load && spec && (m.spawnPred != nil || m.pred != nil) {
				ev := p.Event()
				// Predictor-guided sub-thread placement (§5.1):
				// checkpoint immediately before a load that is
				// predicted to be violated, so a violation rewinds
				// almost nothing.
				if m.spawnPred != nil && m.spawnPred.ShouldSync(ev.PC) &&
					cur.Done() >= c.checkpoints[len(c.checkpoints)-1].Done()+200 {
					m.spawn(c)
				}
				// Predictor-driven synchronization happens before
				// the load issues.
				if m.pred != nil && m.pred.ShouldSync(ev.PC) && !m.engine.ProducerWrote(c.epoch, ev.Addr) {
					if !issued {
						c.syncing = true
						c.predSync = true
						c.syncAddr = ev.Addr
						c.syncPC = ev.PC
						m.res.PredictorSyncs++
						m.accrue(c, Sync)
						return
					}
					break
				}
			}
			cur.Step()
		}
		budget -= n

		if c.ifetch != nil {
			// An ALU run's PC is 0: it continues the current site.
			pc := isa.PC(0)
			if kind != isa.ALU {
				pc = p.PC()
			}
			if stall := c.ifetch.fetch(m, pc, n); stall > 0 {
				until := m.cycle + stall
				if until > c.stallUntil {
					c.stallUntil = until
					c.stallCat = CacheMiss
				}
			}
		}
		selfSquashed := false
		switch kind {
		case isa.ALU:
		case isa.IntMul, isa.IntDiv, isa.FPOp, isa.FPDiv, isa.FPSqrt:
			if lat := m.cfg.CPU.Lat.Of(kind); lat > 1 {
				c.stallUntil = m.cycle + uint64(lat)
				c.stallCat = Busy
				budget = 0
			}
		case isa.Branch:
			m.res.Branches++
			if !c.gshare.Predict(p.PC(), p.Taken()) {
				m.res.Mispredicts++
				c.stallUntil = m.cycle + 1 + uint64(m.cfg.CPU.Lat.MispredictPenalty)
				c.stallCat = Busy
				budget = 0
			}
		case isa.Load:
			memUsed = true
			var lat uint64
			lat, selfSquashed = m.load(c, p.Event())
			if !selfSquashed && lat > m.cfg.Mem.L1HitLat {
				if m.cfg.NonBlockingLoads && m.cycle >= c.missUntil {
					// Run ahead under the miss until the
					// reorder buffer fills (one outstanding
					// miss at a time).
					c.missUntil = m.cycle + lat
					c.missBudget = m.cfg.CPU.ReorderBuffer
				} else {
					c.stallUntil = m.cycle + lat
					if m.cfg.NonBlockingLoads && c.missUntil > c.stallUntil {
						c.stallUntil = c.missUntil
					}
					c.stallCat = CacheMiss
					budget = 0
				}
			}
		case isa.Store:
			memUsed = true
			selfSquashed = m.store(c, p.Event())
		case isa.LatchRelease:
			ev := p.Event()
			m.engine.ReleaseLatch(c.epoch, ev.Addr)
			if m.tel != nil {
				m.tel.Emit(telemetry.Event{
					Cycle: m.cycle, CPU: c.id, Kind: telemetry.LatchReleased,
					Epoch: c.epoch.ID, Ctx: c.epoch.CurCtx, Addr: ev.Addr,
				})
			}
		default:
			panic(fmt.Sprintf("sim: unhandled event kind %v", kind))
		}
		issued = true
		if m.cfg.NonBlockingLoads && m.cycle < c.missUntil {
			c.missBudget -= int(n)
			if c.missBudget <= 0 {
				// Reorder buffer full: wait out the miss.
				if c.missUntil > c.stallUntil {
					c.stallUntil = c.missUntil
					c.stallCat = CacheMiss
				}
				budget = 0
			}
		}
		if selfSquashed {
			// The access squashed this core's own epoch (overflow
			// cascade): the cursor has been rewound, stop issuing.
			m.accrue(c, Failed)
			return
		}
		if spec {
			m.res.SpecInstrs += uint64(n)
		}
		if c.atSpawnPoint() {
			m.maybeSpawn(c, spec)
		}
	}
	m.accrue(c, Busy)
}

// latchDelayed reports whether the fault injector suppresses latch grants on
// this cycle (delayed-latch-grant perturbation).
func (m *machine) latchDelayed() bool {
	return m.cfg.Inject != nil && m.cfg.Inject.LatchDelayed(m.cycle)
}

// effectiveSpacing computes the sub-thread spacing for an epoch: the
// configured constant under SpawnPeriodic, or the thread size divided evenly
// into the available contexts under SpawnAdaptive (§5.1's suggested
// improvement). SpawnPredictor places checkpoints at predicted loads instead
// and uses no periodic spacing.
func (m *machine) effectiveSpacing(t *trace.Trace) uint64 {
	switch m.cfg.Spawn {
	case SpawnAdaptive:
		n := uint64(m.cfg.TLS.SubthreadsPerEpoch)
		if n == 0 {
			return 0
		}
		sp := t.Instrs() / n
		if sp < 500 {
			sp = 500
		}
		return sp
	case SpawnPredictor:
		return 0
	default:
		return m.cfg.SubthreadSpacing
	}
}

// atSpawnPoint reports whether the cursor has reached the next periodic
// sub-thread spawn point.
func (c *core) atSpawnPoint() bool {
	return c.cursor.Done() >= c.nextSpawnAt && c.spacing != 0
}

// maybeSpawn starts a new sub-thread at a spawn point (§5.1), while hardware
// contexts remain and the epoch is still speculative (spec).
func (m *machine) maybeSpawn(c *core, spec bool) {
	switch {
	case !spec:
		c.nextSpawnAt = ^uint64(0) // homefree: no more checkpoints needed
	case !m.spawn(c):
		c.nextSpawnAt = ^uint64(0) // contexts exhausted
	default:
		c.nextSpawnAt += c.spacing
	}
}

// spawn performs the sub-thread start: engine context, checkpoint capture,
// per-sub-thread profiler reset, and the register-backup cost.
func (m *machine) spawn(c *core) bool {
	if !m.engine.StartSubthread(c.epoch) {
		return false
	}
	ctx := c.epoch.CurCtx
	for len(c.checkpoints) <= ctx {
		c.checkpoints = append(c.checkpoints, trace.Pos{})
		c.ctxCycles = append(c.ctxCycles, Breakdown{})
	}
	c.checkpoints[ctx] = c.cursor.Pos()
	c.ctxCycles[ctx] = Breakdown{}
	if m.tel != nil {
		m.tel.Emit(telemetry.Event{
			Cycle: m.cycle, CPU: c.id, Kind: telemetry.SubthreadStart,
			Epoch: c.epoch.ID, Ctx: ctx,
		})
	}
	c.elt.Reset() // exposure is tracked per sub-thread (§3.1)
	if m.cfg.RegBackupPenalty > 0 {
		// Backing the register file up to memory stalls the pipeline.
		until := m.cycle + m.cfg.RegBackupPenalty
		if until > c.stallUntil {
			c.stallUntil = until
			c.stallCat = Busy
		}
	}
	return true
}
