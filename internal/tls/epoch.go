package tls

import (
	"fmt"

	"subthreads/internal/cache"
	"subthreads/internal/mem"
)

// Epoch is one speculative thread: a chunk of the original sequential
// execution (a loop iteration of the parallelized transaction) running on one
// CPU. Epochs are totally ordered by ID; the oldest live epoch holds the
// homefree token and cannot be violated.
type Epoch struct {
	// ID is the logical order of the epoch in the original sequential
	// execution.
	ID uint64
	// Slot is the CPU the epoch runs on; it namespaces the epoch's cache
	// version tags (at most one live epoch per slot).
	Slot int
	// CurCtx is the sub-thread context currently accruing speculative
	// state. Context 0 is the start of the epoch.
	CurCtx int
	// Completed is set when the epoch has executed its whole trace and is
	// waiting for the homefree token; a violation clears it again.
	Completed bool

	// startTable records, per logically-earlier epoch and sub-thread
	// context, which of *our* contexts was current when that sub-thread
	// started. It implements the paper's sub-thread start table (§2.2):
	// a secondary violation for producer context c restarts us from
	// startTable[producer][c] instead of from the beginning.
	startTable map[uint64]*[MaxSubthreads]uint8

	// ctxLines tracks, per context, the lines with SL or SM state so that
	// squash and commit can clean up without scanning the whole L2.
	ctxLines [MaxSubthreads][]mem.Addr

	// held latches, released on squash of the acquiring context.
	latches []heldLatch

	// Violations counts how many times this epoch was rewound.
	Violations uint64
}

func (e *Epoch) addLine(ctx int, line mem.Addr) {
	e.ctxLines[ctx] = append(e.ctxLines[ctx], line)
}

// StartEpoch registers a new speculative thread. IDs must be strictly
// increasing and the slot must not be occupied by a live epoch.
func (g *Engine) StartEpoch(id uint64, slot int) *Epoch {
	if id < g.nextID {
		panic(fmt.Sprintf("tls: epoch %d started out of order (next is %d)", id, g.nextID))
	}
	if slot < 0 || slot >= g.cfg.CPUs {
		panic(fmt.Sprintf("tls: slot %d out of range", slot))
	}
	for _, live := range g.order {
		if live.Slot == slot {
			panic(fmt.Sprintf("tls: slot %d already running epoch %d", slot, live.ID))
		}
	}
	g.nextID = id + 1
	e := &Epoch{
		ID:         id,
		Slot:       slot,
		startTable: make(map[uint64]*[MaxSubthreads]uint8),
	}
	g.order = append(g.order, e)
	g.audit("epoch-start")
	return e
}

// StartSubthread checkpoints epoch e and begins its next sub-thread context.
// It reports false when all hardware contexts are consumed (the epoch then
// keeps running in its last context, uncheckpointed — §2.2). On success it
// broadcasts a subthreadStart message so logically-later epochs update their
// start tables.
func (g *Engine) StartSubthread(e *Epoch) bool {
	if e.CurCtx+1 >= g.cfg.SubthreadsPerEpoch {
		return false
	}
	e.CurCtx++
	g.SubthreadStarts++
	after := false
	for _, ep := range g.order {
		if ep == e {
			after = true
			continue
		}
		if !after {
			continue
		}
		tbl := ep.startTable[e.ID]
		if tbl == nil {
			tbl = g.getSM()
			ep.startTable[e.ID] = tbl
		}
		tbl[e.CurCtx] = uint8(ep.CurCtx)
	}
	g.audit("subthread-start")
	return true
}

// squashSet deduplicates rewind targets, keeping the earliest context per
// epoch (a deeper rewind subsumes a shallower one).
type squashSet struct {
	byEpoch map[*Epoch]int // index into list
	list    []Squash
}

func newSquashSet() *squashSet {
	return &squashSet{byEpoch: make(map[*Epoch]int)}
}

func (s *squashSet) add(e *Epoch, ctx int, sq Squash) bool {
	if i, ok := s.byEpoch[e]; ok {
		if s.list[i].Ctx <= ctx {
			return false
		}
		sq.Ctx = ctx
		s.list[i] = sq
		return true
	}
	s.byEpoch[e] = len(s.list)
	s.list = append(s.list, sq)
	return true
}

// addSecondaries queues secondary violations for every epoch logically later
// than the violated one. With the start table enabled, each later epoch
// restarts from the context it was in when the violated sub-thread began
// (Figure 4b); without it, later epochs restart from scratch (Figure 4a).
func (g *Engine) addSecondaries(set *squashSet, violated *Epoch, ctx int) {
	after := false
	for _, ep := range g.order {
		if ep == violated {
			after = true
			continue
		}
		if !after {
			continue
		}
		restart := 0
		if g.cfg.StartTable {
			if tbl := ep.startTable[violated.ID]; tbl != nil {
				restart = int(tbl[ctx])
			}
			// The recorded context may have been rewound away since
			// the subthreadStart message was received; work being
			// re-executed in an earlier context may have consumed
			// the squashed values, so restart there instead.
			if restart > ep.CurCtx {
				restart = ep.CurCtx
			}
		}
		if set.add(ep, restart, Squash{Epoch: ep, Ctx: restart, Reason: Secondary}) {
			g.SecondaryViolations++
		}
	}
}

// applySquashes cleans up the architectural state for every target and
// returns the list for the simulator to act on (rewind cursors, reclassify
// cycles as failed speculation).
func (g *Engine) applySquashes(set *squashSet) []Squash {
	if set == nil || len(set.list) == 0 {
		return nil
	}
	for _, sq := range set.list {
		g.rewind(sq.Epoch, sq.Ctx)
	}
	return set.list
}

// rewind discards the speculative state of contexts [ctx, CurCtx] of epoch e
// and re-opens context ctx, releasing latches acquired by the squashed
// contexts.
func (g *Engine) rewind(e *Epoch, ctx int) {
	if ctx > e.CurCtx {
		// A deeper rewind applied earlier in the same batch already
		// freed these contexts; re-opening a later one would corrupt
		// the context state.
		ctx = e.CurCtx
	}
	for c := ctx; c <= e.CurCtx; c++ {
		bit := uint32(1) << uint(c)
		for _, line := range e.ctxLines[c] {
			lm := g.lines.get(line)
			if lm == nil {
				continue
			}
			lm.load[e.ID] &^= bit
			if lm.load[e.ID] == 0 {
				delete(lm.load, e.ID)
			}
			if sm := lm.store[e.ID]; sm != nil {
				sm[c] = 0
				all := uint8(0)
				for i := range sm {
					all |= sm[i]
				}
				if all == 0 {
					delete(lm.store, e.ID)
					g.putSM(sm)
				}
			}
			g.dropMetaIfEmpty(line, lm)
			ent := cache.Entry{Line: line, Ver: verOf(e, c)}
			if !g.L2.Remove(ent) {
				g.Victim.Remove(ent)
			}
		}
		e.ctxLines[c] = e.ctxLines[c][:0]
	}
	g.releaseLatchesFrom(e, ctx)
	e.CurCtx = ctx
	e.Completed = false
	e.Violations++
}

// CommitOldest retires the oldest epoch: all its speculative state becomes
// architectural (flash commit — SL/SM bits cleared, versions retagged as the
// committed copies) and the homefree token passes to the next epoch. The
// epoch must have Completed. Promoting victim-cache-resident versions back
// into the L2 can cascade into buffer overflow for other epochs; the
// returned squashes (empty under OverflowStall) must be applied by the
// caller.
func (g *Engine) CommitOldest() (*Epoch, []Squash) {
	if len(g.order) == 0 {
		panic("tls: CommitOldest with no live epochs")
	}
	e := g.order[0]
	if !e.Completed {
		panic(fmt.Sprintf("tls: committing incomplete epoch %d", e.ID))
	}
	var all []Squash
	for c := 0; c <= e.CurCtx; c++ {
		for _, line := range e.ctxLines[c] {
			lm := g.lines.get(line)
			if lm != nil {
				delete(lm.load, e.ID)
				if sm := lm.store[e.ID]; sm != nil {
					delete(lm.store, e.ID)
					g.putSM(sm)
				}
				g.dropMetaIfEmpty(line, lm)
			}
			// Retag the speculative version as the committed copy,
			// preserving occupancy and LRU position.
			old := cache.Entry{Line: line, Ver: verOf(e, c)}
			committed := cache.Entry{Line: line, Ver: cache.VerCommitted}
			if !g.L2.Rename(old, committed) && g.Victim.Remove(old) {
				// A version living only in the victim cache is
				// promoted back into the L2 on commit; under
				// OverflowStall an unbufferable promotion is
				// simply dropped (written back to memory).
				sqs, _ := g.insertL2(committed)
				all = append(all, sqs...)
			}
		}
		e.ctxLines[c] = e.ctxLines[c][:0]
	}
	g.releaseLatchesFrom(e, 0)
	g.order = g.order[1:]
	g.Commits++
	// The committed epoch's start table dies with it; recycle the arrays.
	// (Entries other live epochs keep for this epoch's ID are never read
	// again and are recycled when those epochs commit.)
	for id, tbl := range e.startTable {
		g.putSM(tbl)
		delete(e.startTable, id)
	}
	g.audit("commit")
	return e, all
}
