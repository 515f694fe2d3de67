package tls

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subthreads/internal/cache"
	"subthreads/internal/isa"
	"subthreads/internal/mem"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.L2Sets = 64
	cfg.L2Ways = 4
	cfg.VictimEntries = 8
	return cfg
}

func addr(line, word int) mem.Addr {
	return mem.Addr(line*mem.LineSize + word*mem.WordSize)
}

func TestConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{CPUs: 0, SubthreadsPerEpoch: 4, L2Sets: 4, L2Ways: 1},
		{CPUs: 4, SubthreadsPerEpoch: 0, L2Sets: 4, L2Ways: 1},
		{CPUs: 4, SubthreadsPerEpoch: MaxSubthreads + 1, L2Sets: 4, L2Ways: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEngine(%+v) did not panic", cfg)
				}
			}()
			NewEngine(cfg)
		}()
	}
}

func TestEpochLifecycle(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	if g.Oldest() != e0 || g.Live() != 2 {
		t.Fatal("order wrong after starts")
	}
	if g.Speculative(e0) {
		t.Error("oldest epoch must be non-speculative")
	}
	if !g.Speculative(e1) {
		t.Error("later epoch must be speculative")
	}
	e0.Completed = true
	if got, _ := g.CommitOldest(); got != e0 {
		t.Fatal("committed wrong epoch")
	}
	if g.Oldest() != e1 || g.Speculative(e1) {
		t.Error("token did not pass to e1")
	}
	if g.Commits != 1 {
		t.Errorf("Commits = %d", g.Commits)
	}
}

func TestStartEpochValidation(t *testing.T) {
	g := NewEngine(smallConfig())
	g.StartEpoch(5, 0)
	for name, fn := range map[string]func(){
		"out-of-order id": func() { g.StartEpoch(3, 1) },
		"occupied slot":   func() { g.StartEpoch(6, 0) },
		"bad slot":        func() { g.StartEpoch(7, 99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPrimaryViolationOnExposedLoad(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(3, 2)

	res := g.Load(e1, a)
	if !res.Exposed {
		t.Fatal("speculative load not exposed")
	}
	res = g.Store(e0, 42, a)
	if len(res.Squashes) != 1 {
		t.Fatalf("squashes = %v", res.Squashes)
	}
	sq := res.Squashes[0]
	if sq.Epoch != e1 || sq.Ctx != 0 || sq.Reason != Primary || sq.StorePC != 42 || sq.StoreEpoch != 0 {
		t.Errorf("squash = %+v", sq)
	}
	if g.PrimaryViolations != 1 {
		t.Errorf("PrimaryViolations = %d", g.PrimaryViolations)
	}
}

func TestForwardedValueAvoidsViolation(t *testing.T) {
	// Store by the earlier epoch happens first; the later epoch's load
	// reads the propagated version — no violation (§2.1).
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(3, 2)
	g.Store(e0, 1, a)
	g.Load(e1, a)
	res := g.Store(e0, 1, a) // second store to the same word
	if len(res.Squashes) != 0 {
		// The load was still exposed and SL was set, so a second
		// store DOES violate: the load already consumed a value that
		// is now stale. This is the correct TLS behaviour.
		if res.Squashes[0].Epoch != e1 {
			t.Errorf("unexpected squash target %+v", res.Squashes[0])
		}
		return
	}
	t.Error("second store to a consumed word must violate")
}

func TestOwnStoreCoversLoad(t *testing.T) {
	// A load preceded by the same epoch's store to the word is not
	// exposed and cannot be violated.
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(4, 1)
	g.Store(e1, 9, a)
	res := g.Load(e1, a)
	if res.Exposed {
		t.Fatal("covered load marked exposed")
	}
	res = g.Store(e0, 10, a)
	if len(res.Squashes) != 0 {
		t.Errorf("covered load violated: %v", res.Squashes)
	}
}

func TestOwnStoreDifferentWordDoesNotCover(t *testing.T) {
	// SM is tracked per word: a store to word 0 does not cover a load of
	// word 1, and loaded state is tracked per line, so the line becomes
	// violable.
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	g.Store(e1, 9, addr(4, 0))
	res := g.Load(e1, addr(4, 1))
	if !res.Exposed {
		t.Fatal("load of uncovered word must be exposed")
	}
	res = g.Store(e0, 10, addr(4, 5))
	if len(res.Squashes) != 1 {
		t.Error("line-granularity detection must violate on any word of a loaded line")
	}
}

func TestOldestEpochCannotBeViolated(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(5, 0)
	res := g.Load(e0, a)
	if res.Exposed {
		t.Fatal("oldest epoch's load must not be tracked")
	}
	res = g.Store(e1, 1, a)
	if len(res.Squashes) != 0 {
		t.Errorf("later store violated the oldest epoch: %v", res.Squashes)
	}
}

func TestLaterStoreDoesNotViolateEarlierLoad(t *testing.T) {
	g := NewEngine(smallConfig())
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	e2 := g.StartEpoch(2, 2)
	a := addr(6, 0)
	g.Load(e1, a) // speculative, exposed
	res := g.Store(e2, 1, a)
	if len(res.Squashes) != 0 {
		t.Errorf("logically-later store violated an earlier epoch: %v", res.Squashes)
	}
}

func TestSubthreadViolationRewindsPartially(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	early := addr(7, 0)
	late := addr(8, 0)
	g.Load(e1, early) // exposed in ctx 0
	if !g.StartSubthread(e1) {
		t.Fatal("StartSubthread failed")
	}
	if e1.CurCtx != 1 {
		t.Fatalf("CurCtx = %d", e1.CurCtx)
	}
	g.Load(e1, late) // exposed in ctx 1
	res := g.Store(e0, 1, late)
	if len(res.Squashes) != 1 || res.Squashes[0].Ctx != 1 {
		t.Fatalf("want rewind to ctx 1, got %v", res.Squashes)
	}
	if e1.CurCtx != 1 {
		t.Errorf("CurCtx after rewind = %d", e1.CurCtx)
	}
	// Ctx 0's SL on `early` must survive: a store to it still violates,
	// now at ctx 0.
	res = g.Store(e0, 2, early)
	if len(res.Squashes) != 1 || res.Squashes[0].Ctx != 0 {
		t.Fatalf("ctx 0 state lost: %v", res.Squashes)
	}
	// Ctx 1's SL on `late` was squashed: storing again must not
	// re-violate.
	res = g.Store(e0, 3, late)
	if len(res.Squashes) != 0 {
		t.Errorf("squashed SL state still triggers violations: %v", res.Squashes)
	}
}

func TestViolationPicksEarliestContext(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(9, 0)
	g.Load(e1, a) // ctx 0
	g.StartSubthread(e1)
	g.Load(e1, a) // ctx 1 — SL already set at line granularity per ctx
	res := g.Store(e0, 1, a)
	if len(res.Squashes) != 1 || res.Squashes[0].Ctx != 0 {
		t.Errorf("violation must rewind to the earliest loading context: %v", res.Squashes)
	}
}

func TestAllOrNothingConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.SubthreadsPerEpoch = 1
	g := NewEngine(cfg)
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	if g.StartSubthread(e1) {
		t.Error("all-or-nothing hardware must refuse sub-threads")
	}
}

func TestSubthreadExhaustion(t *testing.T) {
	cfg := smallConfig()
	cfg.SubthreadsPerEpoch = 3
	g := NewEngine(cfg)
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	if !g.StartSubthread(e1) || !g.StartSubthread(e1) {
		t.Fatal("first two sub-threads must start")
	}
	if g.StartSubthread(e1) {
		t.Error("context overflow must refuse")
	}
	if e1.CurCtx != 2 {
		t.Errorf("CurCtx = %d", e1.CurCtx)
	}
	// After a rewind to ctx 1, one context is free again.
	g.rewind(e1, 1)
	if !g.StartSubthread(e1) {
		t.Error("context freed by rewind must be reusable")
	}
}

// TestSecondaryViolationSelective reproduces Figure 4: epochs 2, 3, 4 are
// live behind epoch 1. Epoch 3 and 4 start their second sub-threads *after*
// epoch 2 starts its second sub-thread, so when epoch 2 is violated in
// sub-thread b (ctx 1), epochs 3 and 4 restart from their recorded contexts
// (ctx 1 = sub-threads 3b and 4b), not from the beginning.
func TestSecondaryViolationSelective(t *testing.T) {
	g := NewEngine(smallConfig())
	e1 := g.StartEpoch(1, 0)
	e2 := g.StartEpoch(2, 1)
	e3 := g.StartEpoch(3, 2)
	e4 := g.StartEpoch(4, 3)

	// Sub-threads 3a/4a run first (ctx 0), then 2b starts, then 3b/4b.
	g.StartSubthread(e2) // 2b starts while e3, e4 are in ctx 0
	g.StartSubthread(e3) // 3b
	g.StartSubthread(e4) // 4b

	a := addr(10, 0)
	g.Load(e2, a) // exposed in 2b (ctx 1)
	res := g.Store(e1, 1, a)

	got := map[*Epoch]Squash{}
	for _, sq := range res.Squashes {
		got[sq.Epoch] = sq
	}
	if sq := got[e2]; sq.Ctx != 1 || sq.Reason != Primary {
		t.Errorf("e2 squash = %+v, want primary at ctx 1", sq)
	}
	// e3 and e4 were in ctx 0 when 2b started: with the start table they
	// restart from... their recorded context. They started their own ctx 1
	// *after* 2b began, so the recorded context for (e2, ctx1) is 0.
	if sq := got[e3]; sq.Reason != Secondary || sq.Ctx != 0 {
		t.Errorf("e3 squash = %+v", sq)
	}

	// Now re-run the scenario of Figure 4(b): 3a and 4a complete (i.e.
	// e3/e4 start ctx 1) BEFORE 2b starts. Then a violation of 2b must
	// restart only 3b/4b (ctx 1), preserving 3a/4a.
	g2 := NewEngine(smallConfig())
	f1 := g2.StartEpoch(1, 0)
	f2 := g2.StartEpoch(2, 1)
	f3 := g2.StartEpoch(3, 2)
	f4 := g2.StartEpoch(4, 3)
	g2.StartSubthread(f3) // 3b underway
	g2.StartSubthread(f4) // 4b underway
	g2.StartSubthread(f2) // 2b starts: f3, f4 record ctx 1

	g2.Load(f2, a)
	res = g2.Store(f1, 1, a)
	got = map[*Epoch]Squash{}
	for _, sq := range res.Squashes {
		got[sq.Epoch] = sq
	}
	if sq := got[f3]; sq.Reason != Secondary || sq.Ctx != 1 {
		t.Errorf("f3 squash = %+v, want secondary at ctx 1 (3a preserved)", sq)
	}
	if sq := got[f4]; sq.Reason != Secondary || sq.Ctx != 1 {
		t.Errorf("f4 squash = %+v, want secondary at ctx 1 (4a preserved)", sq)
	}
}

func TestSecondaryViolationWithoutStartTable(t *testing.T) {
	cfg := smallConfig()
	cfg.StartTable = false
	g := NewEngine(cfg)
	f1 := g.StartEpoch(1, 0)
	f2 := g.StartEpoch(2, 1)
	f3 := g.StartEpoch(3, 2)
	g.StartSubthread(f3) // f3 is in ctx 1
	g.StartSubthread(f2)

	a := addr(11, 0)
	g.Load(f2, a)
	res := g.Store(f1, 1, a)
	for _, sq := range res.Squashes {
		if sq.Epoch == f3 && sq.Ctx != 0 {
			t.Errorf("without start table f3 must fully restart, got ctx %d", sq.Ctx)
		}
	}
	if g.SecondaryViolations == 0 {
		t.Error("no secondary violations recorded")
	}
}

func TestPrimaryBeatsSecondary(t *testing.T) {
	// One store can violate several epochs; an epoch that is both a
	// primary target and a secondary target of an earlier primary must
	// rewind to the deepest (earliest) context.
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	e2 := g.StartEpoch(2, 2)
	a := addr(12, 0)
	g.Load(e1, a) // e1 ctx 0
	g.StartSubthread(e2)
	g.Load(e2, a) // e2 ctx 1: primary target at ctx 1, secondary at ctx 0
	res := g.Store(e0, 1, a)
	var e2sq *Squash
	for i := range res.Squashes {
		if res.Squashes[i].Epoch == e2 {
			e2sq = &res.Squashes[i]
		}
	}
	if e2sq == nil || e2sq.Ctx != 0 {
		t.Errorf("e2 must rewind to ctx 0 (secondary subsumes primary), got %+v", e2sq)
	}
}

func TestCommitClearsState(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(13, 0)
	g.Load(e1, a)
	g.Store(e1, 1, addr(13, 1))
	e0.Completed = true
	g.CommitOldest()
	e1.Completed = true
	g.CommitOldest()
	if g.lines.live() != 0 {
		t.Errorf("line metadata leaked after commits: %d entries", g.lines.live())
	}
	// The committed version must be resident as the committed copy.
	if !g.L2.Present(cache.Entry{Line: addr(13, 0).Line(), Ver: cache.VerCommitted}) {
		t.Error("committed copy missing after flash commit")
	}
	// A fresh epoch storing to that line must not see ghost violations.
	e2 := g.StartEpoch(2, 0)
	_ = e2
	res := g.Store(e2, 1, a)
	if len(res.Squashes) != 0 {
		t.Errorf("ghost violation after commit: %v", res.Squashes)
	}
}

func TestCommitIncompletePanics(t *testing.T) {
	g := NewEngine(smallConfig())
	g.StartEpoch(0, 0)
	defer func() {
		if recover() == nil {
			t.Error("committing incomplete epoch did not panic")
		}
	}()
	g.CommitOldest()
}

func TestViolationClearsCompleted(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(14, 0)
	g.Load(e1, a)
	e1.Completed = true
	g.Store(e0, 1, a)
	if e1.Completed {
		t.Error("violated epoch still marked Completed")
	}
	if e1.Violations != 1 {
		t.Errorf("Violations = %d", e1.Violations)
	}
}

func TestVersionsOccupyWays(t *testing.T) {
	g := NewEngine(smallConfig())
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(15, 0)
	g.Store(e1, 1, a) // version in ctx 0
	g.StartSubthread(e1)
	g.Store(e1, 1, a) // version in ctx 1
	line := a.Line()
	// committed copy absent (store-allocate inserts only versions when
	// speculative and line was absent — the two versions occupy 2 ways).
	n := 0
	for c := 0; c < MaxSubthreads; c++ {
		if g.L2.Present(cache.Entry{Line: line, Ver: verOf(e1, c)}) {
			n++
		}
	}
	if n != 2 {
		t.Errorf("resident versions = %d, want 2 (one per sub-thread, §2.1)", n)
	}
}

func TestVictimOverflowSquash(t *testing.T) {
	cfg := smallConfig()
	cfg.OverflowPolicy = OverflowSquash
	cfg.L2Sets = 1 // every line collides
	cfg.L2Ways = 2
	cfg.VictimEntries = 1
	g := NewEngine(cfg)
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	// Three speculative versions cannot fit in 2 ways + 1 victim entry
	// once a fourth line arrives.
	g.Store(e1, 1, addr(1, 0))
	g.Store(e1, 1, addr(2, 0))
	g.Store(e1, 1, addr(3, 0))
	res := g.Store(e1, 1, addr(4, 0))
	found := false
	for _, sq := range res.Squashes {
		if sq.Reason == Overflow && sq.Epoch == e1 {
			found = true
		}
	}
	if !found && g.OverflowSquashes == 0 {
		t.Errorf("no overflow squash despite tiny victim cache: %v", res.Squashes)
	}
}

func TestOverflowStallPolicy(t *testing.T) {
	cfg := smallConfig()
	cfg.OverflowPolicy = OverflowStall
	cfg.L2Sets = 1
	cfg.L2Ways = 2
	cfg.VictimEntries = 1
	g := NewEngine(cfg)
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	stalled := false
	for i := 1; i < 10 && !stalled; i++ {
		res := g.Store(e1, 1, addr(i, 0))
		if len(res.Squashes) != 0 {
			t.Fatalf("stall policy squashed: %v", res.Squashes)
		}
		stalled = res.Stall
	}
	if !stalled {
		t.Error("stall policy never requested a stall despite tiny buffers")
	}
	if g.OverflowStalls == 0 {
		t.Error("OverflowStalls not counted")
	}
}

func TestOldestEpochOverflowIsSafe(t *testing.T) {
	cfg := smallConfig()
	cfg.OverflowPolicy = OverflowSquash
	cfg.L2Sets = 1
	cfg.L2Ways = 2
	cfg.VictimEntries = 1
	g := NewEngine(cfg)
	e0 := g.StartEpoch(0, 0)
	// All state belongs to the oldest epoch: its lines are written back,
	// never squashed.
	for i := 1; i < 10; i++ {
		res := g.Store(e0, 1, addr(i, 0))
		if len(res.Squashes) != 0 {
			t.Fatalf("oldest epoch squashed on overflow: %v", res.Squashes)
		}
	}
	if g.OverflowSquashes != 0 {
		t.Errorf("OverflowSquashes = %d", g.OverflowSquashes)
	}
}

func TestSpeculationOffMode(t *testing.T) {
	cfg := smallConfig()
	cfg.SpeculationOff = true
	g := NewEngine(cfg)
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	a := addr(16, 0)
	res := g.Load(e1, a)
	if res.Exposed {
		t.Error("NO SPECULATION mode tracked a load")
	}
	res = g.Store(e0, 1, a)
	if len(res.Squashes) != 0 {
		t.Errorf("NO SPECULATION mode violated: %v", res.Squashes)
	}
	if !g.AcquireLatch(e1, addr(17, 0)) {
		t.Error("NO SPECULATION latch must always grant")
	}
}

func TestL2HitMissTiming(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	a := addr(18, 0)
	res := g.Load(e0, a)
	if res.L2Hit {
		t.Error("first touch must miss")
	}
	res = g.Load(e0, a)
	if !res.L2Hit {
		t.Error("second touch must hit (committed copy resident)")
	}
}

func TestSpecVersionServesLaterLoad(t *testing.T) {
	// Aggressive update propagation: a later epoch's load of a line whose
	// only copy is an earlier epoch's speculative version is an L2 hit.
	g := NewEngine(smallConfig())
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	e2 := g.StartEpoch(2, 2)
	a := addr(19, 0)
	g.Store(e1, 1, a)
	res := g.Load(e2, a)
	if !res.L2Hit {
		t.Error("load of forwarded speculative version must hit in L2")
	}
}

func TestLatchBasics(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	l := addr(20, 0)
	if !g.AcquireLatch(e0, l) {
		t.Fatal("free latch refused")
	}
	if !g.AcquireLatch(e0, l) {
		t.Fatal("re-entrant acquire refused")
	}
	if g.AcquireLatch(e1, l) {
		t.Fatal("held latch granted to another epoch")
	}
	g.ReleaseLatch(e0, l)
	if g.AcquireLatch(e1, l) {
		t.Fatal("latch freed before matching releases")
	}
	g.ReleaseLatch(e0, l)
	if !g.AcquireLatch(e1, l) {
		t.Fatal("released latch refused")
	}
	if g.latches[l].holder != e1 {
		t.Error("wrong latch holder")
	}
}

func TestLatchReleasedOnSquash(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	l := addr(21, 0)
	a := addr(22, 0)
	g.StartSubthread(e1)
	g.AcquireLatch(e1, l) // acquired in ctx 1
	g.Load(e1, a)         // exposed in ctx 1
	g.Store(e0, 1, a)     // violates e1 at ctx 1
	if g.latches[l].holder != nil {
		t.Error("latch not released by squash of acquiring context")
	}
}

func TestLatchSurvivesLaterSquash(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	l := addr(23, 0)
	a := addr(24, 0)
	g.AcquireLatch(e1, l) // ctx 0
	g.StartSubthread(e1)
	g.Load(e1, a)     // exposed in ctx 1
	g.Store(e0, 1, a) // violates ctx 1 only
	if g.latches[l].holder != e1 {
		t.Error("latch acquired before the squashed context must survive")
	}
}

func TestReleaseUnheldLatchIsNoop(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	g.ReleaseLatch(e0, addr(25, 0)) // must not panic
}

func TestCommitReleasesLatches(t *testing.T) {
	g := NewEngine(smallConfig())
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	l := addr(26, 0)
	g.AcquireLatch(e0, l)
	e0.Completed = true
	g.CommitOldest()
	if !g.AcquireLatch(e1, l) {
		t.Error("latch leaked across commit")
	}
}

func TestStringersAndAccessors(t *testing.T) {
	if Primary.String() != "primary" || Secondary.String() != "secondary" || Overflow.String() != "overflow" {
		t.Error("Reason strings wrong")
	}
	if OverflowStall.String() != "stall" || OverflowSquash.String() != "squash" {
		t.Error("OverflowPolicy strings wrong")
	}
	g := NewEngine(smallConfig())
	if g.Config().SubthreadsPerEpoch != smallConfig().SubthreadsPerEpoch {
		t.Error("Config accessor wrong")
	}
	if g.Oldest() != nil {
		t.Error("Oldest of empty engine not nil")
	}
}

func TestForceSquash(t *testing.T) {
	g := NewEngine(smallConfig())
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	e2 := g.StartEpoch(2, 2)
	g.StartSubthread(e1)
	g.Load(e1, addr(30, 0))
	sqs := g.ForceSquash(e1, 0, Secondary)
	found1, found2 := false, false
	for _, sq := range sqs {
		if sq.Epoch == e1 && sq.Ctx == 0 {
			found1 = true
		}
		if sq.Epoch == e2 {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Errorf("ForceSquash targets wrong: %v", sqs)
	}
	if e1.CurCtx != 0 {
		t.Errorf("CurCtx = %d after force squash", e1.CurCtx)
	}
}

func TestProducerWrote(t *testing.T) {
	g := NewEngine(smallConfig())
	g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	e2 := g.StartEpoch(2, 2)
	a := addr(31, 2)
	if g.ProducerWrote(e2, a) {
		t.Error("phantom producer")
	}
	g.Store(e1, 1, a)
	if !g.ProducerWrote(e2, a) {
		t.Error("producer store not visible")
	}
	if g.ProducerWrote(e1, a) {
		t.Error("own store counted as producer")
	}
	// A different word of the same line is not a producer match.
	if g.ProducerWrote(e2, addr(31, 5)) {
		t.Error("word granularity violated")
	}
}

func TestLowestBit(t *testing.T) {
	if lowestBit(0b1000) != 3 || lowestBit(1) != 0 || lowestBit(0) != 0 {
		t.Error("lowestBit wrong")
	}
}

func TestCommitCascadePromotesVictimVersions(t *testing.T) {
	// Force a version into the victim cache, then commit its owner: the
	// version must come back as a committed L2 entry.
	cfg := smallConfig()
	cfg.OverflowPolicy = OverflowSquash
	cfg.L2Sets = 1
	cfg.L2Ways = 2
	cfg.VictimEntries = 4
	g := NewEngine(cfg)
	e0 := g.StartEpoch(0, 0)
	e1 := g.StartEpoch(1, 1)
	g.Store(e1, 1, addr(1, 0))
	// Fill the set so e1's version gets evicted into the victim cache.
	g.Load(e0, addr(2, 0))
	g.Load(e0, addr(3, 0))
	g.Load(e0, addr(4, 0))
	e0.Completed = true
	g.CommitOldest()
	e1.Completed = true
	g.CommitOldest()
	resident := false
	seen := func(e cache.Entry) { resident = resident || e.Line == addr(1, 0).Line() }
	g.L2.ForEach(seen)
	g.Victim.ForEach(seen)
	if !resident {
		t.Error("committed version lost entirely")
	}
}

// TestEngineInvariantsUnderRandomOps drives the protocol with random
// interleavings of loads, stores, sub-thread starts, completions, and
// commits, checking the architectural invariants the simulator relies on:
// squash contexts never exceed the victim's live context, the oldest epoch
// is never squashed, and committing everything leaves no directory state
// behind.
func TestEngineInvariantsUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := smallConfig()
		cfg.SubthreadsPerEpoch = 4
		g := NewEngine(cfg)

		var live []*Epoch
		nextID := uint64(0)
		freeSlots := []int{0, 1, 2, 3}
		start := func() {
			if len(freeSlots) == 0 {
				return
			}
			slot := freeSlots[0]
			freeSlots = freeSlots[1:]
			live = append(live, g.StartEpoch(nextID, slot))
			nextID++
		}
		start()
		start()

		for i := 0; i < 400; i++ {
			if len(live) == 0 {
				start()
				continue
			}
			e := live[rng.Intn(len(live))]
			a := addr(rng.Intn(40), rng.Intn(8))
			switch rng.Intn(6) {
			case 0:
				g.Load(e, a)
			case 1:
				res := g.Store(e, isa.PC(rng.Intn(20)+1), a)
				for _, sq := range res.Squashes {
					if sq.Epoch == g.Oldest() {
						t.Fatalf("oldest epoch squashed")
					}
					if sq.Ctx > sq.Epoch.CurCtx {
						t.Fatalf("squash ctx %d > CurCtx %d", sq.Ctx, sq.Epoch.CurCtx)
					}
				}
			case 2:
				g.StartSubthread(e)
			case 3:
				start()
			case 4:
				e.Completed = true
				if g.Oldest() == e {
					g.CommitOldest()
					for j, l := range live {
						if l == e {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
					freeSlots = append(freeSlots, e.Slot)
				} else {
					e.Completed = false
				}
			case 5:
				g.AcquireLatch(e, addr(50+rng.Intn(4), 0))
			}
		}
		// Drain: complete and commit everything in order.
		for g.Live() > 0 {
			e := g.Oldest()
			e.Completed = true
			g.CommitOldest()
		}
		return g.lines.live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
