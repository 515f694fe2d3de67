package tls

import (
	"cmp"
	"slices"

	"subthreads/internal/cache"
	"subthreads/internal/mem"
	"subthreads/internal/snapbin"
)

// Snapshot codec for the TLS engine: the live epoch list (with start tables,
// per-context line lists, and held latches), the L2 directory, the latch
// table, the L2/victim tag stores, and the protocol statistics. Everything
// map-shaped serializes in sorted key order so the encoding is deterministic.
//
// Epoch pointers (latch holders; the simulator's per-core epoch and
// homefree-token references) serialize as indexes into the commit order,
// which restore reconstructs in the same order. The free-list pools
// (metaPool, smPool) are deliberately not serialized: recycled objects are
// zeroed on reuse, so an empty pool is behaviorally identical.

const maxSnapLines = 1 << 24

// State streams the engine's complete architectural state. Restoring needs
// a freshly constructed engine, and the configuration is NOT restored: it
// belongs to the restore target, which is what lets a forkable snapshot
// restore under a different sub-thread configuration.
func (g *Engine) State(s *snapbin.Stream) {
	s.Uvarint(&g.PrimaryViolations, "tls primary violations")
	s.Uvarint(&g.SecondaryViolations, "tls secondary violations")
	s.Uvarint(&g.OverflowSquashes, "tls overflow squashes")
	s.Uvarint(&g.OverflowStalls, "tls overflow stalls")
	s.Uvarint(&g.ExposedLoads, "tls exposed loads")
	s.Uvarint(&g.SpecStores, "tls spec stores")
	s.Uvarint(&g.SubthreadStarts, "tls subthread starts")
	s.Uvarint(&g.Commits, "tls commits")
	s.Uvarint(&g.nextID, "tls next id")

	// Live epochs, oldest first. Restore builds them directly rather than
	// through StartEpoch: the restored IDs predate nextID, which
	// StartEpoch correctly rejects for live registration.
	snapbin.Slice(s, &g.order, "tls epochs", g.cfg.CPUs)
	for i := range g.order {
		if s.Reading() {
			g.order[i] = &Epoch{startTable: make(map[uint64]*[MaxSubthreads]uint8)}
		}
		e := g.order[i]
		s.Uvarint(&e.ID, "epoch id")
		s.Int(&e.Slot, "epoch slot")
		s.Int(&e.CurCtx, "epoch ctx")
		s.Bool(&e.Completed, "epoch completed")
		s.Uvarint(&e.Violations, "epoch violations")
		if s.Reading() && s.Err() == nil && (e.Slot < 0 || e.Slot >= g.cfg.CPUs || e.CurCtx < 0 || e.CurCtx >= MaxSubthreads) {
			s.Failf("epoch %d: slot %d / ctx %d out of range", e.ID, e.Slot, e.CurCtx)
		}
		snapbin.Map(s, e.startTable, "start table", maxSnapLines, smEntry)
		for ctx := range e.ctxLines {
			lines := &e.ctxLines[ctx]
			snapbin.Slice(s, lines, "epoch ctx lines", maxSnapLines)
			for j := range *lines {
				snapbin.Uvarint(s, &(*lines)[j], "epoch line")
			}
		}
		snapbin.Slice(s, &e.latches, "epoch latches", maxSnapLines)
		for j := range e.latches {
			snapbin.Uvarint(s, &e.latches[j].addr, "held latch addr")
			s.Int(&e.latches[j].ctx, "held latch ctx")
		}
	}

	// Latch table: only held latches carry state (a free latchState is
	// behaviorally identical to an absent entry), holders as commit-order
	// indexes.
	held := g.heldLatches()
	snapbin.Slice(s, &held, "tls latches", maxSnapLines)
	for i := range held {
		h := &held[i]
		snapbin.Uvarint(s, &h.addr, "latch addr")
		s.Int(&h.holder, "latch holder")
		s.Int(&h.ctx, "latch holder ctx")
		s.Int(&h.depth, "latch depth")
		if !s.Reading() || s.Err() != nil {
			continue
		}
		if h.holder < 0 || h.holder >= len(g.order) {
			s.Failf("latch %v: holder index %d out of range", h.addr, h.holder)
			continue
		}
		g.latches[h.addr] = &latchState{holder: g.order[h.holder], holderCtx: h.ctx, depth: h.depth}
	}

	// L2 directory, ascending line order (forEach contract).
	n := g.lines.live()
	s.Len(&n, "tls lines", maxSnapLines)
	if s.Reading() {
		for i := 0; i < n && s.Err() == nil; i++ {
			var line mem.Addr
			lm := &lineMeta{
				load:  make(map[uint64]uint32),
				store: make(map[uint64]*[MaxSubthreads]uint8),
			}
			lineState(s, &line, lm)
			if s.Err() == nil {
				g.lines.set(line, lm)
			}
		}
	} else {
		g.lines.forEach(func(line mem.Addr, lm *lineMeta) { lineState(s, &line, lm) })
	}

	g.L2.State(s)
	g.Victim.State(s)
}

// heldLatchState is one held latch as the frame records it.
type heldLatchState struct {
	addr               mem.Addr
	holder, ctx, depth int
}

// heldLatches lists the held latches in ascending address order.
func (g *Engine) heldLatches() []heldLatchState {
	var held []heldLatchState
	for addr, ls := range g.latches {
		if ls.holder != nil {
			held = append(held, heldLatchState{addr, g.OrderIndex(ls.holder), ls.holderCtx, ls.depth})
		}
	}
	slices.SortFunc(held, func(a, b heldLatchState) int { return cmp.Compare(a.addr, b.addr) })
	return held
}

// lineState streams one directory entry: its line, SL bitmasks and SM masks.
func lineState(s *snapbin.Stream, line *mem.Addr, lm *lineMeta) {
	snapbin.Uvarint(s, line, "tls line")
	snapbin.Map(s, lm.load, "load bits", maxSnapLines, func(s *snapbin.Stream, id uint64, bits uint32) (uint64, uint32) {
		s.Uvarint(&id, "load bits key")
		snapbin.Uvarint(s, &bits, "load bits value")
		return id, bits
	})
	snapbin.Map(s, lm.store, "store masks", maxSnapLines, smEntry)
}

// smEntry streams one per-context byte array keyed by epoch ID (start
// tables and SM masks share the shape).
func smEntry(s *snapbin.Stream, id uint64, arr *[MaxSubthreads]uint8) (uint64, *[MaxSubthreads]uint8) {
	s.Uvarint(&id, "sm key")
	if s.Reading() {
		arr = new([MaxSubthreads]uint8)
	}
	s.Raw(arr[:], "sm bytes")
	return id, arr
}

// OrderIndex maps a live epoch to its commit-order index (-1 for nil or a
// retired epoch) — the serialized form of an epoch pointer.
func (g *Engine) OrderIndex(e *Epoch) int {
	for i, live := range g.order {
		if live == e {
			return i
		}
	}
	return -1
}

// EpochAt returns the live epoch at a commit-order index, or nil when the
// index is -1 or out of range.
func (g *Engine) EpochAt(i int) *Epoch {
	if i < 0 || i >= len(g.order) {
		return nil
	}
	return g.order[i]
}

// Forkable reports whether the engine carries no speculative or epoch-local
// state that a different sub-thread configuration could have produced
// differently: an empty L2 directory, an empty victim cache, only committed
// versions in the L2, every latch free, and every live epoch still in its
// first context with nothing held and nothing recorded. A snapshot taken in
// this state restores correctly under any configuration that agrees on the
// prefix-invariant machine parameters.
func (g *Engine) Forkable() bool {
	if g.auditErr != nil || g.lines.live() != 0 || g.Victim.Len() != 0 {
		return false
	}
	committedOnly := true
	g.L2.ForEach(func(e cache.Entry) {
		if e.Ver != cache.VerCommitted {
			committedOnly = false
		}
	})
	if !committedOnly {
		return false
	}
	for _, ls := range g.latches {
		if ls.holder != nil {
			return false
		}
	}
	for _, e := range g.order {
		if e.CurCtx != 0 || len(e.latches) != 0 || len(e.startTable) != 0 {
			return false
		}
	}
	return true
}
