package sim

import (
	"fmt"

	"subthreads/internal/cache"
	"subthreads/internal/isa"
	"subthreads/internal/profile"
	"subthreads/internal/telemetry"
	"subthreads/internal/tls"
	"subthreads/internal/trace"
)

// load performs a data load: L1 lookup, L2/memory timing, TLS dependence
// bookkeeping. It returns the total load-to-use latency and whether the
// access ended up squashing this core's own epoch (buffer overflow cascade).
func (m *machine) load(c *core, ev trace.Event) (lat uint64, selfSquashed bool) {
	line := ev.Addr.Line()
	l1Hit := c.l1.Lookup(cache.Entry{Line: line, Ver: 0})
	if l1Hit {
		m.res.L1Hits++
	} else {
		m.res.L1Misses++
	}

	// Fast path: an L1 hit needs no protocol action when the epoch is
	// non-speculative (nothing to track) or when it already notified the
	// L2 about this line — the L1 is unaware of sub-threads (§2.2), so
	// repeated loads keep the original (earliest) SL marking.
	if l1Hit {
		if !m.engine.Speculative(c.epoch) {
			return m.cfg.Mem.L1HitLat, false
		}
		if c.l1Flags.contains(line) {
			return m.cfg.Mem.L1HitLat, false
		}
	}

	res := m.engine.Load(c.epoch, ev.Addr)
	lat = m.cfg.Mem.L1HitLat
	if !l1Hit {
		lat += m.cfg.Mem.L2HitLat + m.l2Banks.Access(line, m.cycle)
		if res.L2Hit {
			m.res.L2Hits++
		} else {
			m.res.L2Misses++
			m.res.MemAccesses++
			lat += m.cfg.Mem.MemLat + m.memBanks.Access(line, m.cycle)
		}
		c.l1.Insert(cache.Entry{Line: line, Ver: 0}, nil)
	}
	if m.engine.Speculative(c.epoch) {
		c.l1Flags.add(line)
	}
	if res.Exposed {
		c.elt.Record(ev.Addr, ev.PC)
	}
	return lat, m.applySquashesFrom(c, res.Squashes)
}

// store performs a data store: it propagates write-through to the L2, runs
// violation detection, and applies any squashes. Store latency is hidden by
// the store buffer, but the write consumes L2 bank bandwidth.
func (m *machine) store(c *core, ev trace.Event) (selfSquashed bool) {
	line := ev.Addr.Line()
	if m.cfg.Oracle != nil {
		// Observe before the engine applies the store: a violation or
		// overflow squash triggered by this very store must be able to
		// discard it again through OnSquash.
		m.cfg.Oracle.OnStore(c.epoch.ID, c.epoch.CurCtx, ev.Addr, c.cursor.Done())
	}
	res := m.engine.Store(c.epoch, ev.PC, ev.Addr)
	if res.L2Hit {
		m.res.L2Hits++
	} else {
		m.res.L2Misses++
		m.res.MemAccesses++
		m.memBanks.Access(line, m.cycle)
	}
	m.l2Banks.Access(line, m.cycle) // write-through traffic
	// Write-allocate into the L1 (write-through, so never dirty).
	if !c.l1.Present(cache.Entry{Line: line, Ver: 0}) {
		m.res.L1Misses++
		c.l1.Insert(cache.Entry{Line: line, Ver: 0}, nil)
	} else {
		m.res.L1Hits++
	}
	if m.engine.Speculative(c.epoch) {
		c.l1Mod.noteWrite(line, c.epoch.CurCtx)
	}
	if res.Stall {
		m.res.OverflowWaits++
		c.overflowWait = true
		c.overflowCommits = m.engine.Stats.Commits
		if m.tel != nil {
			m.tel.Emit(telemetry.Event{
				Cycle: m.cycle, CPU: c.id, Kind: telemetry.OverflowStall,
				Epoch: c.epoch.ID, Ctx: c.epoch.CurCtx, Addr: ev.Addr,
			})
		}
	}
	return m.applySquashesFrom(c, res.Squashes)
}

// applySquashes rewinds every squashed core (see applySquashesFrom).
func (m *machine) applySquashes(sqs []tls.Squash) {
	m.applySquashesFrom(nil, sqs)
}

// applySquashesFrom rewinds every squashed core: it reclassifies the rewound
// contexts' cycles as failed speculation, attributes them to the load/store
// PC pair for the §3.1 profile, trains the dependence predictor, rewinds the
// trace cursor to the sub-thread checkpoint, and invalidates the
// speculatively-modified L1 lines. It reports whether the caller's own epoch
// was among the squashed, so the caller can stop its issue loop.
func (m *machine) applySquashesFrom(caller *core, sqs []tls.Squash) (selfSquashed bool) {
	for _, sq := range sqs {
		c := m.coreOf(sq.Epoch)
		if c == nil {
			panic("sim: squash for unknown epoch")
		}
		if sq.Ctx >= len(c.checkpoints) {
			panic("sim: squash context has no checkpoint")
		}
		if c == caller {
			selfSquashed = true
		}
		// Rewind depth in sub-thread contexts, measured before truncation.
		depth := len(c.ctxCycles) - 1 - sq.Ctx

		// Failed-cycle accounting: everything the rewound contexts
		// accrued becomes failed speculation.
		var failed uint64
		for ctx := sq.Ctx; ctx < len(c.ctxCycles); ctx++ {
			for cat := Category(0); cat < NumCategories; cat++ {
				v := c.ctxCycles[ctx][cat]
				if v == 0 {
					continue
				}
				failed += v
				if cat != Failed {
					m.res.Breakdown[cat] -= v
					m.res.Breakdown[Failed] += v
				}
				c.ctxCycles[ctx][cat] = 0
			}
		}

		// §3.1 profiling: pair the violating store PC with the exposed
		// load PC of the violated line and charge the failed cycles.
		var loadPC isa.PC
		if sq.Reason == tls.Primary {
			loadPC, _ = c.elt.Lookup(sq.Addr)
			m.pairs.Attribute(profile.Pair{LoadPC: loadPC, StorePC: sq.StorePC}, failed)
			if m.pred != nil {
				m.pred.RecordViolation(loadPC)
			}
			if m.spawnPred != nil {
				m.spawnPred.RecordViolation(loadPC)
			}
		}

		// Rewind execution to the checkpoint.
		ckpt := c.checkpoints[sq.Ctx]
		if m.cfg.Paranoid && ckpt.Done() > c.cursor.Done() && m.err == nil {
			m.err = fmt.Errorf(
				"rewind of epoch %d ctx %d moves cursor forward (%d -> %d instrs)",
				sq.Epoch.ID, sq.Ctx, c.cursor.Done(), ckpt.Done())
		}
		if m.cfg.Oracle != nil {
			m.cfg.Oracle.OnSquash(sq.Epoch.ID, sq.Ctx)
		}
		rewound := c.cursor.Done() - ckpt.Done()
		m.res.RewoundInstrs += rewound
		if m.tel != nil {
			ev := telemetry.Event{
				Cycle: m.cycle, CPU: c.id, Epoch: sq.Epoch.ID,
				Ctx: sq.Ctx, Depth: depth, Instrs: rewound,
			}
			switch sq.Reason {
			case tls.Primary:
				ev.Kind = telemetry.PrimaryViolation
				ev.LoadPC = loadPC
				ev.StorePC = sq.StorePC
				ev.Addr = sq.Addr
			case tls.Secondary:
				ev.Kind = telemetry.SecondaryViolation
			case tls.Overflow:
				ev.Kind = telemetry.OverflowSquash
			}
			m.tel.Emit(ev)
		}
		c.cursor.Seek(ckpt)
		c.checkpoints = c.checkpoints[:sq.Ctx+1]
		c.ctxCycles = c.ctxCycles[:sq.Ctx+1]
		c.nextSpawnAt = ckpt.Done() + c.spacing
		c.done = false
		c.syncing = false
		c.predSync = false
		c.overflowWait = false

		// The violation invalidates the speculatively-modified lines in
		// the violated CPU's L1 and clears its notify flags. Without
		// L1 sub-thread tracking, ALL modified lines go (§2.2: "the L1
		// caches are unaware of sub-threads"); with it, only the
		// rewound contexts' lines do (re-inserted after the O(1) clear,
		// since surviving entries must outlive the generation bump).
		c.modKeep = c.modKeep[:0]
		for _, en := range c.l1Mod.all() {
			if m.cfg.L1SubthreadTracking && int(en.ctx) < sq.Ctx {
				c.modKeep = append(c.modKeep, en)
				continue
			}
			if c.l1.Remove(cache.Entry{Line: en.line, Ver: 0}) {
				m.res.L1Invalidations++
			}
		}
		c.l1Mod.clear()
		for _, en := range c.modKeep {
			c.l1Mod.noteWrite(en.line, int(en.ctx))
		}
		c.l1Flags.clear()
		c.elt.Reset()

		// Recovery penalty.
		if m.cfg.ViolationPenalty > 0 {
			until := m.cycle + m.cfg.ViolationPenalty
			if until > c.stallUntil {
				c.stallUntil = until
				c.stallCat = Failed
			}
		}
	}
	return selfSquashed
}

// finish assembles the Result after the run loop ends. It returns a copy, so
// a Result that outlives its run does not keep the machine alive.
func (m *machine) finish() *Result {
	res := m.res
	res.TLS = m.engine.Stats
	res.Pairs = m.pairs
	return &res
}
