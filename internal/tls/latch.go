package tls

import "subthreads/internal/mem"

// Escaped-speculation latches (§2, §4.3 of the companion tech report): the
// parallelized DBMS acquires a few latches non-speculatively even while the
// surrounding epoch is speculative. A speculative epoch that finds such a
// latch held by another live epoch must stall — the paper's "Latch Stall"
// category. Latch acquisition is an isolated undoable action: when the
// acquiring sub-thread is squashed, the acquisition is undone.

type latchState struct {
	holder    *Epoch
	holderCtx int
	depth     int // re-entrant acquires by the same epoch
}

type heldLatch struct {
	addr mem.Addr
	ctx  int
}

// AcquireLatch tries to take the latch at addr for epoch e. It reports false
// when the latch is held by a different live epoch, in which case the caller
// must stall and retry. Re-entrant acquisition by the holder succeeds.
func (g *Engine) AcquireLatch(e *Epoch, addr mem.Addr) bool {
	if g.cfg.SpeculationOff {
		// The NO SPECULATION upper bound ignores all dependences,
		// including latch ordering.
		return true
	}
	ls := g.latches[addr]
	if ls == nil {
		ls = &latchState{}
		g.latches[addr] = ls
	}
	switch {
	case ls.holder == nil:
		ls.holder = e
		ls.holderCtx = e.CurCtx
		ls.depth = 1
		e.latches = append(e.latches, heldLatch{addr: addr, ctx: e.CurCtx})
		return true
	case ls.holder == e:
		ls.depth++
		return true
	default:
		return false
	}
}

// ReleaseLatch releases one acquisition of the latch at addr by epoch e.
// Releasing a latch the epoch does not hold is a no-op: after a squash the
// re-executed trace may contain releases whose acquires were undone.
func (g *Engine) ReleaseLatch(e *Epoch, addr mem.Addr) {
	ls := g.latches[addr]
	if ls == nil || ls.holder != e {
		return
	}
	ls.depth--
	if ls.depth > 0 {
		return
	}
	ls.holder = nil
	for i := len(e.latches) - 1; i >= 0; i-- {
		if e.latches[i].addr == addr {
			e.latches = append(e.latches[:i], e.latches[i+1:]...)
			break
		}
	}
}

// releaseLatchesFrom force-releases every latch epoch e acquired in context
// ctx or later (squash path), or all of them when ctx == 0 (commit path uses
// 0 as well, where any remainder indicates an unbalanced workload trace).
func (g *Engine) releaseLatchesFrom(e *Epoch, ctx int) {
	w := 0
	for _, hl := range e.latches {
		if hl.ctx >= ctx {
			if ls := g.latches[hl.addr]; ls != nil && ls.holder == e {
				ls.holder = nil
				ls.depth = 0
			}
			continue
		}
		e.latches[w] = hl
		w++
	}
	e.latches = e.latches[:w]
}
