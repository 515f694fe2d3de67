package sim

import (
	"runtime"
	"testing"
	"time"

	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/tls"
	"subthreads/internal/trace"
)

// testConfig returns a small machine so tests run fast: tiny caches keep the
// interesting protocol paths exercised.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.TLS.L2Sets = 256
	cfg.TLS.L2Ways = 4
	cfg.TLS.VictimEntries = 16
	cfg.Mem.L1Sets = 16
	return cfg
}

// aluTrace builds a pure-compute trace of n instructions.
func aluTrace(n uint32) *trace.Trace {
	b := trace.NewBuilder()
	b.ALU(n)
	return b.Finish()
}

// consumerTrace loads addr after prefix ALU instructions, then runs suffix
// more.
func consumerTrace(prefix uint32, addr mem.Addr, pc isa.PC, suffix uint32) *trace.Trace {
	b := trace.NewBuilder()
	b.ALU(prefix)
	b.Load(pc, addr)
	b.ALU(suffix)
	return b.Finish()
}

// producerTrace stores to addr after prefix ALU instructions, then runs
// suffix more.
func producerTrace(prefix uint32, addr mem.Addr, pc isa.PC, suffix uint32) *trace.Trace {
	b := trace.NewBuilder()
	b.ALU(prefix)
	b.Store(pc, addr)
	b.ALU(suffix)
	return b.Finish()
}

func run(t *testing.T, cfg Config, units ...Unit) *Result {
	t.Helper()
	res := Run(cfg, &Program{Units: units})
	checkInvariants(t, cfg, res)
	return res
}

// checkInvariants validates the global accounting identity: the breakdown
// must exactly cover CPUs x cycles.
func checkInvariants(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	want := uint64(cfg.CPUs) * res.Cycles
	if got := res.Breakdown.Total(); got != want {
		t.Fatalf("breakdown total = %d, want CPUs*cycles = %d (breakdown %v)", got, want, res.Breakdown)
	}
}

func TestSerialExecution(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 1
	res := run(t, cfg, Unit{Trace: aluTrace(4000), Barrier: true})
	// 4-wide issue: at least 1000 cycles, plus commit overhead.
	if res.Cycles < 1000 || res.Cycles > 1200 {
		t.Errorf("Cycles = %d, want ~1000", res.Cycles)
	}
	if res.CommittedInstrs != 4000 {
		t.Errorf("CommittedInstrs = %d", res.CommittedInstrs)
	}
	if res.TLS.Commits != 1 {
		t.Errorf("Commits = %d", res.TLS.Commits)
	}
}

func TestIndependentEpochsRunInParallel(t *testing.T) {
	cfg := testConfig()
	// Four big independent epochs on 4 CPUs: near-4x speedup.
	seq := cfg
	seq.CPUs = 1
	var units []Unit
	for i := 0; i < 4; i++ {
		units = append(units, Unit{Trace: aluTrace(40000)})
	}
	serial := run(t, seq, units...)
	parallel := run(t, cfg, units...)
	sp := parallel.Speedup(serial)
	if sp < 3.5 || sp > 4.2 {
		t.Errorf("speedup = %.2f, want ~4", sp)
	}
}

func TestIdleAccountedWhenFewerEpochsThanCPUs(t *testing.T) {
	cfg := testConfig()
	res := run(t, cfg, Unit{Trace: aluTrace(40000)})
	// 3 of 4 CPUs idle: idle is roughly 3/4 of all CPU-cycles.
	frac := float64(res.Breakdown[Idle]) / float64(res.Breakdown.Total())
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("idle fraction = %.2f, want ~0.75", frac)
	}
}

func TestViolationForcesReexecution(t *testing.T) {
	cfg := testConfig()
	cfg.SubthreadSpacing = 0 // all-or-nothing
	cfg.TLS.SubthreadsPerEpoch = 1
	a := mem.Addr(0x1000)
	// Epoch 0 stores to a LATE; epoch 1 loads it EARLY: guaranteed
	// violation and full rewind of epoch 1.
	units := []Unit{
		{Trace: producerTrace(20000, a, 1, 100)},
		{Trace: consumerTrace(100, a, 2, 20000)},
	}
	res := run(t, cfg, units...)
	if res.TLS.PrimaryViolations == 0 {
		t.Fatal("no violation detected")
	}
	if res.Breakdown[Failed] == 0 {
		t.Error("no failed-speculation cycles accounted")
	}
	if res.RewoundInstrs == 0 {
		t.Error("no rewound instructions counted")
	}
	if res.CommittedInstrs != units[0].Trace.Instrs()+units[1].Trace.Instrs() {
		t.Errorf("CommittedInstrs = %d", res.CommittedInstrs)
	}
}

func TestSubthreadsReduceFailedCycles(t *testing.T) {
	// The paper's headline mechanism: with a late dependent load, the
	// violation rewinds to the sub-thread checkpoint instead of the epoch
	// start, so failed cycles (and total time) shrink.
	a := mem.Addr(0x2000)
	units := []Unit{
		{Trace: producerTrace(30000, a, 1, 100)},
		{Trace: consumerTrace(25000, a, 2, 8000)},
	}

	allOrNothing := testConfig()
	allOrNothing.SubthreadSpacing = 0
	allOrNothing.TLS.SubthreadsPerEpoch = 1
	resAON := run(t, allOrNothing, units...)

	subthreads := testConfig() // 8 contexts, 5000-instruction spacing
	resST := run(t, subthreads, units...)

	if resAON.TLS.PrimaryViolations == 0 || resST.TLS.PrimaryViolations == 0 {
		t.Fatalf("violations: AON=%d ST=%d (scenario broken)",
			resAON.TLS.PrimaryViolations, resST.TLS.PrimaryViolations)
	}
	if resST.RewoundInstrs >= resAON.RewoundInstrs {
		t.Errorf("sub-threads rewound %d instrs, all-or-nothing %d — want strictly less",
			resST.RewoundInstrs, resAON.RewoundInstrs)
	}
	if resST.Cycles >= resAON.Cycles {
		t.Errorf("sub-threads %d cycles, all-or-nothing %d — want faster", resST.Cycles, resAON.Cycles)
	}
	if resST.TLS.SubthreadStarts == 0 {
		t.Error("no sub-threads started")
	}
}

func TestNoSpeculationIgnoresDependences(t *testing.T) {
	cfg := testConfig()
	cfg.TLS.SpeculationOff = true
	a := mem.Addr(0x3000)
	units := []Unit{
		{Trace: producerTrace(20000, a, 1, 100)},
		{Trace: consumerTrace(100, a, 2, 20000)},
	}
	res := run(t, cfg, units...)
	if res.TLS.PrimaryViolations != 0 || res.Breakdown[Failed] != 0 {
		t.Errorf("NO SPECULATION mode had violations: %+v", res.TLS)
	}
}

func TestBarrierSerializes(t *testing.T) {
	cfg := testConfig()
	// epoch, barrier, epoch: the last epoch must not start until the
	// barrier commits, so total time is at least the sum of barrier +
	// one epoch.
	units := []Unit{
		{Trace: aluTrace(8000)},
		{Trace: aluTrace(8000), Barrier: true},
		{Trace: aluTrace(8000)},
	}
	res := run(t, cfg, units...)
	// 3 units of 2000 cycles each, fully serialized by the barrier
	// semantics: epoch0 || nothing, then barrier, then epoch2.
	if res.Cycles < 5500 {
		t.Errorf("Cycles = %d; barrier did not serialize (expected ~6000)", res.Cycles)
	}
}

func TestLatchContentionStalls(t *testing.T) {
	cfg := testConfig()
	l := mem.Addr(0x4000)
	mk := func() *trace.Trace {
		b := trace.NewBuilder()
		b.ALU(100)
		b.LatchAcquire(1, l)
		b.ALU(20000)
		b.LatchRelease(2, l)
		b.ALU(100)
		return b.Finish()
	}
	res := run(t, cfg, Unit{Trace: mk()}, Unit{Trace: mk()})
	if res.Breakdown[Sync] == 0 {
		t.Error("contended latch produced no sync stalls")
	}
	if res.TLS.Commits != 2 {
		t.Errorf("Commits = %d", res.TLS.Commits)
	}
}

func TestPredictorSynchronizes(t *testing.T) {
	cfg := testConfig()
	cfg.UsePredictor = true
	cfg.SubthreadSpacing = 0
	cfg.TLS.SubthreadsPerEpoch = 1
	a := mem.Addr(0x5000)
	// Same dependence pattern repeated: the predictor trains on the first
	// violations and synchronizes later instances.
	var units []Unit
	for i := 0; i < 8; i++ {
		units = append(units, Unit{Trace: producerTrace(10000, a, 1, 5000)})
		units = append(units, Unit{Trace: consumerTrace(100, a, 2, 15000)})
	}
	res := run(t, cfg, units...)
	if res.PredictorSyncs == 0 {
		t.Error("predictor never synchronized")
	}
}

func TestCacheMissCyclesAppear(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 1
	// Touch many distinct lines: cold misses must show up as CacheMiss.
	b := trace.NewBuilder()
	for i := 0; i < 2000; i++ {
		b.Load(1, mem.Addr(0x10000+i*mem.LineSize))
		b.ALU(3)
	}
	res := run(t, cfg, Unit{Trace: b.Finish(), Barrier: true})
	if res.Breakdown[CacheMiss] == 0 {
		t.Error("no cache-miss cycles")
	}
	if res.L2Misses == 0 || res.MemAccesses == 0 {
		t.Errorf("L2Misses=%d MemAccesses=%d", res.L2Misses, res.MemAccesses)
	}
}

func TestBranchPredictionCharged(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 1
	b := trace.NewBuilder()
	for i := 0; i < 1000; i++ {
		b.ALU(3)
		b.Branch(isa.PC(i%7), i%3 == 0) // hard-to-predict pattern
	}
	res := run(t, cfg, Unit{Trace: b.Finish(), Barrier: true})
	if res.Branches != 1000 {
		t.Errorf("Branches = %d", res.Branches)
	}
	if res.Mispredicts == 0 {
		t.Error("no mispredicts on an irregular pattern")
	}
}

func TestLongLatencyOpsStall(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 1
	b := trace.NewBuilder()
	for i := 0; i < 100; i++ {
		b.Op(isa.IntDiv) // 76 cycles each
	}
	res := run(t, cfg, Unit{Trace: b.Finish(), Barrier: true})
	if res.Cycles < 7600 {
		t.Errorf("Cycles = %d, want >= 7600 (100 divides)", res.Cycles)
	}
}

func TestForwardingAvoidsViolation(t *testing.T) {
	cfg := testConfig()
	a := mem.Addr(0x6000)
	// Producer stores early, consumer loads late: the value is forwarded
	// through the L2 and no violation occurs.
	units := []Unit{
		{Trace: producerTrace(100, a, 1, 20000)},
		{Trace: consumerTrace(20000, a, 2, 100)},
	}
	res := run(t, cfg, units...)
	if res.TLS.PrimaryViolations != 0 {
		t.Errorf("forwarded dependence still violated %d times", res.TLS.PrimaryViolations)
	}
}

func TestProfilerAttributesDependence(t *testing.T) {
	cfg := testConfig()
	cfg.SubthreadSpacing = 0
	cfg.TLS.SubthreadsPerEpoch = 1
	a := mem.Addr(0x7000)
	loadPC, storePC := isa.PC(11), isa.PC(22)
	units := []Unit{
		{Trace: producerTrace(20000, a, storePC, 100)},
		{Trace: consumerTrace(100, a, loadPC, 20000)},
	}
	res := run(t, cfg, units...)
	top := res.Pairs.Top(1)
	if len(top) == 0 {
		t.Fatal("profiler recorded nothing")
	}
	if top[0].LoadPC != loadPC || top[0].StorePC != storePC {
		t.Errorf("top pair = %+v, want load=%d store=%d", top[0], loadPC, storePC)
	}
	if top[0].FailedCycles == 0 {
		t.Error("no failed cycles attributed")
	}
}

func TestManyEpochsRoundRobin(t *testing.T) {
	cfg := testConfig()
	var units []Unit
	var want uint64
	for i := 0; i < 20; i++ {
		tr := aluTrace(uint32(3000 + i*100))
		want += tr.Instrs()
		units = append(units, Unit{Trace: tr})
	}
	res := run(t, cfg, units...)
	if res.CommittedInstrs != want {
		t.Errorf("CommittedInstrs = %d, want %d", res.CommittedInstrs, want)
	}
	if res.EpochCount != 20 {
		t.Errorf("EpochCount = %d", res.EpochCount)
	}
	if res.TLS.Commits != 20 {
		t.Errorf("Commits = %d", res.TLS.Commits)
	}
}

func TestNormalizedBreakdown(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 1
	res := run(t, cfg, Unit{Trace: aluTrace(4000), Barrier: true})
	norm := res.NormalizedBreakdown(res.Cycles, 4)
	var sum float64
	for _, v := range norm {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("normalized breakdown sums to %.4f, want 1.0", sum)
	}
	if norm[Idle] < 0.74 || norm[Idle] > 0.76 {
		t.Errorf("idle = %.3f, want ~0.75 (3 of 4 CPUs idle)", norm[Idle])
	}
}

func TestRepeatedViolationsConverge(t *testing.T) {
	// A chain of epochs all loading then storing the same address — the
	// classic serializing dependence. The run must terminate with all
	// work committed.
	cfg := testConfig()
	a := mem.Addr(0x8000)
	mk := func() *trace.Trace {
		b := trace.NewBuilder()
		b.ALU(2000)
		b.Load(1, a)
		b.ALU(2000)
		b.Store(2, a)
		b.ALU(2000)
		return b.Finish()
	}
	var units []Unit
	for i := 0; i < 12; i++ {
		units = append(units, Unit{Trace: mk()})
	}
	res := run(t, cfg, units...)
	if res.TLS.Commits != 12 {
		t.Fatalf("Commits = %d, want 12", res.TLS.Commits)
	}
	if res.TLS.PrimaryViolations == 0 {
		t.Error("serializing chain produced no violations")
	}
}

func TestLatchDeadlockBroken(t *testing.T) {
	cfg := testConfig()
	cfg.LatchDeadlockCycles = 500
	la, lb := mem.Addr(0x9000), mem.Addr(0x9100)
	// Epoch 0 takes B then A; epoch 1 takes A then B: a classic cycle.
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
	res := run(t, cfg, Unit{Trace: mk(lb, la)}, Unit{Trace: mk(la, lb)})
	if res.TLS.Commits != 2 {
		t.Fatalf("Commits = %d; deadlock not resolved", res.TLS.Commits)
	}
	if res.LatchDeadlockBreaks == 0 {
		t.Error("no deadlock break recorded despite circular latch wait")
	}
}

func TestOverflowSquashInFullSim(t *testing.T) {
	cfg := testConfig()
	cfg.TLS.OverflowPolicy = tls.OverflowSquash
	cfg.TLS.L2Sets = 1 // every line collides in one set
	cfg.TLS.L2Ways = 2
	cfg.TLS.VictimEntries = 2
	// A speculative epoch stores to many distinct lines: its versions
	// cannot all be buffered.
	b := trace.NewBuilder()
	for i := 0; i < 64; i++ {
		b.Store(1, mem.Addr(0x20000+i*mem.LineSize))
		b.ALU(50)
	}
	units := []Unit{
		{Trace: aluTrace(40000)}, // keeps the storer speculative
		{Trace: b.Finish()},
	}
	res := run(t, cfg, units...)
	if res.TLS.OverflowSquashes == 0 {
		t.Error("no overflow squashes despite tiny speculative buffering")
	}
	if res.TLS.Commits != 2 {
		t.Errorf("Commits = %d; run did not converge", res.TLS.Commits)
	}
}

func TestOverflowStallInFullSim(t *testing.T) {
	cfg := testConfig() // default policy: OverflowStall
	cfg.TLS.L2Sets = 1
	cfg.TLS.L2Ways = 2
	cfg.TLS.VictimEntries = 2
	b := trace.NewBuilder()
	for i := 0; i < 64; i++ {
		b.Store(1, mem.Addr(0x30000+i*mem.LineSize))
		b.ALU(50)
	}
	units := []Unit{
		{Trace: aluTrace(40000)},
		{Trace: b.Finish()},
	}
	res := run(t, cfg, units...)
	if res.OverflowWaits == 0 {
		t.Error("no overflow stalls despite tiny speculative buffering")
	}
	if res.TLS.OverflowSquashes != 0 {
		t.Errorf("stall policy squashed %d times", res.TLS.OverflowSquashes)
	}
	if res.TLS.Commits != 2 {
		t.Errorf("Commits = %d; run did not converge", res.TLS.Commits)
	}
	if res.Breakdown[Sync] == 0 {
		t.Error("overflow stalls not accounted as sync")
	}
}

func TestSubthreadSpawningStopsWhenHomefree(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 1
	// A single epoch is always the oldest: it must never spawn
	// sub-threads (checkpointing a non-speculative thread is pointless).
	res := run(t, cfg, Unit{Trace: aluTrace(50000)})
	if res.TLS.SubthreadStarts != 0 {
		t.Errorf("homefree epoch started %d sub-threads", res.TLS.SubthreadStarts)
	}
}

func TestViolationPenaltyCharged(t *testing.T) {
	cfg := testConfig()
	cfg.ViolationPenalty = 500
	cfg.SubthreadSpacing = 0
	cfg.TLS.SubthreadsPerEpoch = 1
	a := mem.Addr(0xa000)
	units := []Unit{
		{Trace: producerTrace(20000, a, 1, 100)},
		{Trace: consumerTrace(100, a, 2, 20000)},
	}
	res := run(t, cfg, units...)
	if res.TLS.PrimaryViolations == 0 {
		t.Fatal("scenario broken: no violation")
	}
	if res.Breakdown[Failed] < 500 {
		t.Errorf("Failed = %d; recovery penalty not charged", res.Breakdown[Failed])
	}
}

func TestNormalizedBreakdownPadsSmallMachines(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 2
	res := run(t, cfg, Unit{Trace: aluTrace(8000)}, Unit{Trace: aluTrace(8000)})
	norm := res.NormalizedBreakdown(res.Cycles, 4)
	var sum float64
	for _, v := range norm {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("2-CPU run normalized to 4 CPUs sums to %.4f", sum)
	}
	if norm[Idle] < 0.45 {
		t.Errorf("idle = %.2f; the two absent CPUs must be padded as idle", norm[Idle])
	}
}

func TestAdaptiveSpacingDividesThreadEvenly(t *testing.T) {
	cfg := testConfig()
	cfg.Spawn = SpawnAdaptive
	// One big speculative epoch behind a long-running predecessor: with
	// adaptive spacing it must consume all 8 contexts spread over the
	// whole thread, not just the first 40k instructions.
	units := []Unit{
		{Trace: aluTrace(200000)},
		{Trace: aluTrace(160000)},
	}
	res := run(t, cfg, units...)
	if res.TLS.SubthreadStarts != 7 {
		t.Errorf("adaptive spawns = %d, want 7 (8 contexts across the thread)",
			res.TLS.SubthreadStarts)
	}
}

func TestPredictorGuidedSpawning(t *testing.T) {
	cfg := testConfig()
	cfg.Spawn = SpawnPredictor
	cfg.TLS.SubthreadsPerEpoch = 2 // §5.1: 2 contexts suffice with prediction
	a := mem.Addr(0xb000)
	// A serializing chain: every epoch loads then stores the same word at
	// the same position. After the first violations train the predictor,
	// every epoch checkpoints right before the troublesome load, so
	// rewinds become tiny.
	mk := func() *trace.Trace {
		b := trace.NewBuilder()
		b.ALU(15000)
		b.Load(2, a)
		b.ALU(3000)
		b.Store(1, a)
		b.ALU(4000)
		return b.Finish()
	}
	var units []Unit
	for i := 0; i < 12; i++ {
		units = append(units, Unit{Trace: mk()})
	}
	res := run(t, cfg, units...)
	if res.TLS.SubthreadStarts == 0 {
		t.Fatal("predictor-guided policy never spawned")
	}
	// Compare against all-or-nothing: the guided checkpoints must cut
	// the rewound work substantially.
	aon := cfg
	aon.Spawn = SpawnPeriodic
	aon.SubthreadSpacing = 0
	aon.TLS.SubthreadsPerEpoch = 1
	resAON := run(t, aon, units...)
	if res.RewoundInstrs*2 >= resAON.RewoundInstrs {
		t.Errorf("predictor-guided rewound %d instrs vs all-or-nothing %d; want < half",
			res.RewoundInstrs, resAON.RewoundInstrs)
	}
}

func TestRegBackupPenaltyCharged(t *testing.T) {
	base := testConfig()
	units := func() []Unit {
		return []Unit{{Trace: aluTrace(100000)}, {Trace: aluTrace(100000)}}
	}
	fast := run(t, base, units()...)
	slow := base
	slow.RegBackupPenalty = 1000
	res := run(t, slow, units()...)
	if res.TLS.SubthreadStarts == 0 {
		t.Fatal("no spawns to charge")
	}
	minExtra := res.TLS.SubthreadStarts * 900 / 4 // per-CPU serialization, rough bound
	if res.Cycles < fast.Cycles+minExtra/4 {
		t.Errorf("register backup cost not visible: %d vs %d cycles (spawns=%d)",
			res.Cycles, fast.Cycles, res.TLS.SubthreadStarts)
	}
}

func TestL1SubthreadTrackingReducesInvalidations(t *testing.T) {
	a := mem.Addr(0xc000)
	units := func() []Unit {
		// The consumer stores to many private lines early (ctx 0..1),
		// then suffers a late violation: without L1 tracking all those
		// lines are invalidated, with it only the late contexts'.
		b := trace.NewBuilder()
		for i := 0; i < 64; i++ {
			b.Store(3, mem.Addr(0xd000+i*mem.LineSize))
			b.ALU(100)
		}
		b.ALU(18000)
		b.Load(2, a)
		b.ALU(4000)
		return []Unit{
			{Trace: producerTrace(28000, a, 1, 1000)},
			{Trace: b.Finish()},
		}
	}
	off := testConfig()
	resOff := run(t, off, units()...)
	on := testConfig()
	on.L1SubthreadTracking = true
	resOn := run(t, on, units()...)
	if resOff.TLS.PrimaryViolations == 0 || resOn.TLS.PrimaryViolations == 0 {
		t.Fatalf("scenario broken: violations %d / %d",
			resOff.TLS.PrimaryViolations, resOn.TLS.PrimaryViolations)
	}
	if resOn.L1Invalidations >= resOff.L1Invalidations {
		t.Errorf("L1 tracking did not reduce invalidations: %d vs %d",
			resOn.L1Invalidations, resOff.L1Invalidations)
	}
}

func TestSpawnPolicyStrings(t *testing.T) {
	if SpawnPeriodic.String() != "periodic" || SpawnAdaptive.String() != "adaptive" ||
		SpawnPredictor.String() != "predictor-guided" {
		t.Error("spawn policy names wrong")
	}
}

func TestNonBlockingLoadsHideMissLatency(t *testing.T) {
	// Loads to distinct cold lines separated by plenty of compute: with
	// blocking loads every miss stalls; with run-ahead the compute hides
	// most of the latency.
	mk := func() *trace.Trace {
		b := trace.NewBuilder()
		for i := 0; i < 200; i++ {
			b.Load(1, mem.Addr(0x40000+i*mem.LineSize))
			b.ALU(120) // < ReorderBuffer, so the window never fills
		}
		return b.Finish()
	}
	blocking := testConfig()
	blocking.CPUs = 1
	resBlock := run(t, blocking, Unit{Trace: mk(), Barrier: true})
	mlp := blocking
	mlp.NonBlockingLoads = true
	resMLP := run(t, mlp, Unit{Trace: mk(), Barrier: true})
	if resMLP.Cycles >= resBlock.Cycles {
		t.Errorf("non-blocking loads did not help: %d vs %d cycles", resMLP.Cycles, resBlock.Cycles)
	}
	// The reorder buffer still bounds run-ahead: back-to-back misses with
	// no compute cannot all overlap.
	dense := trace.NewBuilder()
	for i := 0; i < 200; i++ {
		dense.Load(1, mem.Addr(0x80000+i*mem.LineSize))
		dense.ALU(2)
	}
	resDense := run(t, mlp, Unit{Trace: dense.Finish(), Barrier: true})
	if resDense.Cycles*4 < resBlock.Cycles {
		t.Errorf("dense misses too cheap under MLP: %d cycles", resDense.Cycles)
	}
}

func TestStoreMissesDoNotStallCore(t *testing.T) {
	// Stores go through the store buffer: a stream of store misses must
	// not pay per-miss stalls the way load misses do.
	mkLoads := trace.NewBuilder()
	mkStores := trace.NewBuilder()
	for i := 0; i < 500; i++ {
		mkLoads.Load(1, mem.Addr(0x50000+i*mem.LineSize))
		mkLoads.ALU(3)
		mkStores.Store(1, mem.Addr(0x60000+i*mem.LineSize))
		mkStores.ALU(3)
	}
	cfg := testConfig()
	cfg.CPUs = 1
	loads := run(t, cfg, Unit{Trace: mkLoads.Finish(), Barrier: true})
	stores := run(t, cfg, Unit{Trace: mkStores.Finish(), Barrier: true})
	if stores.Cycles*2 >= loads.Cycles {
		t.Errorf("store misses stalled like load misses: %d vs %d cycles",
			stores.Cycles, loads.Cycles)
	}
}

func TestMemoryBandwidthThrottles(t *testing.T) {
	// Four cores streaming cold misses contend on the single memory
	// channel: total time must exceed a single core's run scaled by 4x
	// the ideal.
	mk := func(base int) *trace.Trace {
		b := trace.NewBuilder()
		for i := 0; i < 500; i++ {
			b.Load(1, mem.Addr(base+i*mem.LineSize))
			b.ALU(2)
		}
		return b.Finish()
	}
	cfg := testConfig()
	cfg.Mem.MemOccupancy = 60 // narrow channel
	var units []Unit
	for i := 0; i < 4; i++ {
		units = append(units, Unit{Trace: mk(0x100000 + i*0x100000)})
	}
	narrow := run(t, cfg, units...)
	cfg.Mem.MemOccupancy = 1
	wide := run(t, cfg, units...)
	if narrow.Cycles <= wide.Cycles {
		t.Errorf("memory bandwidth model inert: narrow %d vs wide %d", narrow.Cycles, wide.Cycles)
	}
}

func TestCommitPenaltyAccounted(t *testing.T) {
	cfg := testConfig()
	cfg.CPUs = 1
	cfg.CommitPenalty = 0
	fast := run(t, cfg, Unit{Trace: aluTrace(4000), Barrier: true}, Unit{Trace: aluTrace(4000), Barrier: true})
	cfg.CommitPenalty = 500
	slow := run(t, cfg, Unit{Trace: aluTrace(4000), Barrier: true}, Unit{Trace: aluTrace(4000), Barrier: true})
	// Only the first commit's penalty is on the critical path (the run
	// ends at the last commit, before its post-commit stall elapses).
	if slow.Cycles < fast.Cycles+499 {
		t.Errorf("commit penalty not charged: %d vs %d", slow.Cycles, fast.Cycles)
	}
}

func TestSpeculativeStoreForwardingAcrossThreeEpochs(t *testing.T) {
	// Epoch 0 produces, epoch 2 consumes: the value forwards through the
	// L2 across a gap of one unrelated epoch without violations.
	a := mem.Addr(0xe000)
	units := []Unit{
		{Trace: producerTrace(100, a, 1, 30000)},
		{Trace: aluTrace(20000)},
		{Trace: consumerTrace(25000, a, 2, 100)},
	}
	res := run(t, testConfig(), units...)
	if res.TLS.PrimaryViolations != 0 {
		t.Errorf("forwarded chain violated %d times", res.TLS.PrimaryViolations)
	}
	if res.TLS.Commits != 3 {
		t.Errorf("Commits = %d", res.TLS.Commits)
	}
}

func TestICacheModel(t *testing.T) {
	// A program hopping across many distinct sites has an instruction
	// working set; with the I-cache model on, fetches hit after warm-up
	// for a small footprint and miss for a large one.
	mk := func(sites int) *trace.Trace {
		b := trace.NewBuilder()
		for rep := 0; rep < 50; rep++ {
			for s := 1; s <= sites; s++ {
				b.Branch(isa.PC(s), true)
				b.ALU(40)
			}
		}
		return b.Finish()
	}
	cfg := testConfig()
	cfg.CPUs = 1
	cfg.Mem.ModelICache = true
	cfg.Mem.L1ISets = 8 // 1KB I-cache: 32 lines
	cfg.Mem.L1IWays = 4

	small := run(t, cfg, Unit{Trace: mk(4), Barrier: true}) // 16-line footprint: fits
	big := run(t, cfg, Unit{Trace: mk(64), Barrier: true})  // 256-line footprint: thrashes

	if small.L1IHits == 0 || big.L1IMisses == 0 {
		t.Fatalf("ifetch counters dead: small hits=%d big misses=%d", small.L1IHits, big.L1IMisses)
	}
	smallRate := float64(small.L1IMisses) / float64(small.L1IHits+small.L1IMisses)
	bigRate := float64(big.L1IMisses) / float64(big.L1IHits+big.L1IMisses)
	if bigRate <= smallRate*2 {
		t.Errorf("I-miss rates: small %.3f, big %.3f — footprint not captured", smallRate, bigRate)
	}

	// The model off: no I counters, faster run.
	cfg.Mem.ModelICache = false
	off := run(t, cfg, Unit{Trace: mk(64), Barrier: true})
	if off.L1IHits != 0 || off.L1IMisses != 0 {
		t.Error("I-cache counters active while disabled")
	}
	if off.Cycles >= big.Cycles {
		t.Errorf("I-cache model cost nothing: %d vs %d", big.Cycles, off.Cycles)
	}
}

// TestResultDoesNotPinMachine: a Result outlives its run (the experiment
// runner memoizes every one), so it must not keep the machine's caches, line
// tables, predictor tables and cores reachable. finish is the one place
// RunE and ResumeE get their Result from.
func TestResultDoesNotPinMachine(t *testing.T) {
	freed := make(chan struct{})
	res := func() *Result {
		m := newMachine(testConfig(), &Program{Units: []Unit{
			{Trace: producerTrace(100, 0x1000, 1, 100)},
			{Trace: consumerTrace(50, 0x1000, 2, 100)},
		}})
		runtime.SetFinalizer(m, func(*machine) { close(freed) })
		if err := m.run(); err != nil {
			t.Fatal(err)
		}
		res := m.finish()
		m.release()
		return res
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(res)
			return
		case <-deadline:
			t.Fatal("machine still reachable from its Result after GC")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
