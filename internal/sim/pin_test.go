package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"subthreads/internal/inject"
	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/profile"
	"subthreads/internal/sim"
	"subthreads/internal/tls"
	"subthreads/internal/tpcc"
	"subthreads/internal/trace"
	"subthreads/internal/workload"
)

// resultDigest hashes every counter of res: the cycle count, the breakdown,
// the TLS stats and the §3.1 pair list in its ranked order.
func resultDigest(t *testing.T, res *sim.Result) string {
	t.Helper()
	flat := *res
	flat.Pairs = nil
	b, err := json.Marshal(struct {
		Result    sim.Result
		Pairs     []profile.PairStat
		Reclaimed uint64
	}{flat, res.Pairs.Top(res.Pairs.Len()), res.Pairs.Reclaimed})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// latchProgram runs eight epochs that all take one latch around their
// work, so every core but the holder waits on it.
func latchProgram() *sim.Program {
	var units []sim.Unit
	for i := 0; i < 8; i++ {
		b := trace.NewBuilder()
		b.ALU(200)
		b.LatchAcquire(1, 0x9000)
		b.Load(2, mem.Addr(0x20000+64*i))
		b.ALU(800)
		b.Store(3, 0x30000)
		b.LatchRelease(4, 0x9000)
		b.Branch(5, i%2 == 0)
		b.Op(isa.IntDiv)
		b.ALU(300)
		units = append(units, sim.Unit{Trace: b.Finish()})
	}
	return &sim.Program{Units: units}
}

// deadlockProgram runs two epochs that take two latches in opposite orders,
// a circular wait only the latch-deadlock watchdog breaks.
func deadlockProgram() *sim.Program {
	mk := func(first, second mem.Addr) sim.Unit {
		b := trace.NewBuilder()
		b.ALU(100)
		b.LatchAcquire(1, first)
		b.ALU(400)
		b.LatchAcquire(2, second)
		b.ALU(400)
		b.LatchRelease(3, second)
		b.LatchRelease(4, first)
		b.ALU(100)
		return sim.Unit{Trace: b.Finish()}
	}
	return &sim.Program{Units: []sim.Unit{mk(0x9100, 0x9000), mk(0x9000, 0x9100)}}
}

// TestIssuePathsPinned pins the exact Result of every issue path the core
// model has, on real TPC-C programs plus two synthetic latch programs: a
// change to the simulator that is meant to keep its numbers (a speed-up, a
// refactor) must keep every row's digest. Each row also requires the counter of the path it covers to be
// nonzero, so a row cannot silently stop covering it. Run it alone as the
// fast check for simulator-only changes:
//
//	go test ./internal/sim -run TestIssuePathsPinned
func TestIssuePathsPinned(t *testing.T) {
	// One NEW ORDER transaction: its sequential trace, and its leading
	// barrier, first three 57k-instruction epochs and trailing barrier
	// (which waits to become the oldest), tuned and untuned, keep every row
	// to a fraction of a second under -race.
	spec := workload.DefaultSpec(tpcc.NewOrder)
	spec.Scale = tpcc.Scale{Districts: 4, CustomersPerDistrict: 60, Items: 400, OrdersPerDistrict: 30}
	spec.Txns = 1
	spec.Warmup = 1
	shorten := func(p *sim.Program) *sim.Program {
		return &sim.Program{Units: append(p.Units[:4:4], p.Units[len(p.Units)-1])}
	}
	seq := workload.Build(spec, true).Program
	tuned := shorten(workload.Build(spec, false).Program)
	spec.OptLevel = 0
	untuned := shorten(workload.Build(spec, false).Program)

	machine := func(e workload.Experiment, vary func(*sim.Config)) func() sim.Config {
		return func() sim.Config {
			cfg := workload.Machine(e)
			if vary != nil {
				vary(&cfg)
			}
			return cfg
		}
	}
	smallVictim := func(p tls.OverflowPolicy) func(*sim.Config) {
		return func(c *sim.Config) {
			c.TLS.L2Sets, c.TLS.L2Ways = 32, 2
			c.TLS.VictimEntries = 2
			c.TLS.OverflowPolicy = p
		}
	}
	rows := []struct {
		name    string
		prog    *sim.Program
		cfg     func() sim.Config
		covered string
		count   func(*sim.Result) uint64
		want    string
	}{
		{"SEQUENTIAL", seq, machine(workload.Sequential, nil),
			"mispredicts", func(r *sim.Result) uint64 { return r.Mispredicts }, "defc19f04ee02f76"},
		{"TLS-SEQ", tuned, machine(workload.TLSSeq, nil),
			"epochs", func(r *sim.Result) uint64 { return uint64(r.EpochCount) }, "c57b3f94d6bb9122"},
		{"NO SUB-THREAD", untuned, machine(workload.NoSubthread, nil),
			"primary violations", func(r *sim.Result) uint64 { return r.TLS.PrimaryViolations }, "d043e4ca7c910451"},
		{"BASELINE", untuned, machine(workload.Baseline, nil),
			"sub-thread starts", func(r *sim.Result) uint64 { return r.TLS.SubthreadStarts }, "0a4be5d7033b0d1d"},
		{"NO SPECULATION", tuned, machine(workload.NoSpeculation, nil),
			"commits", func(r *sim.Result) uint64 { return r.TLS.Commits }, "f211ccd738288d44"},
		{"dependence predictor", untuned, machine(workload.PredictorSync, nil),
			"predictor syncs", func(r *sim.Result) uint64 { return r.PredictorSyncs }, "ab46a73f0274a8ab"},
		{"adaptive spawning", untuned, machine(workload.Baseline, func(c *sim.Config) {
			c.Spawn = sim.SpawnAdaptive
		}), "sub-thread starts", func(r *sim.Result) uint64 { return r.TLS.SubthreadStarts }, "7025d9bf17371210"},
		{"predictor-guided spawning", untuned, machine(workload.Baseline, func(c *sim.Config) {
			c.Spawn = sim.SpawnPredictor
			c.TLS.SubthreadsPerEpoch = 2
		}), "sub-thread starts", func(r *sim.Result) uint64 { return r.TLS.SubthreadStarts }, "1e95657c0904e67c"},
		{"non-blocking loads", untuned, machine(workload.Baseline, func(c *sim.Config) {
			c.NonBlockingLoads = true
		}), "cache-miss cycles", func(r *sim.Result) uint64 { return r.Breakdown[sim.CacheMiss] }, "bc27327ef5757ddb"},
		{"I-cache", untuned, machine(workload.Baseline, func(c *sim.Config) {
			c.Mem.ModelICache = true
		}), "L1I misses", func(r *sim.Result) uint64 { return r.L1IMisses }, "bee38f680b29417b"},
		{"L1 sub-thread tracking", untuned, machine(workload.Baseline, func(c *sim.Config) {
			c.L1SubthreadTracking = true
		}), "L1 invalidations", func(r *sim.Result) uint64 { return r.L1Invalidations }, "89b0547b20539899"},
		{"register backup", untuned, machine(workload.Baseline, func(c *sim.Config) {
			c.RegBackupPenalty = 200
		}), "sub-thread starts", func(r *sim.Result) uint64 { return r.TLS.SubthreadStarts }, "bfd4a26ec74aa6b2"},
		{"start table off", untuned, machine(workload.Baseline, func(c *sim.Config) {
			c.TLS.StartTable = false
		}), "secondary violations", func(r *sim.Result) uint64 { return r.TLS.SecondaryViolations }, "64e6ec760fea01a2"},
		{"overflow stall", untuned, machine(workload.Baseline, smallVictim(tls.OverflowStall)),
			"overflow waits", func(r *sim.Result) uint64 { return r.OverflowWaits }, "cee74590b2f5f390"},
		{"overflow squash", untuned, machine(workload.Baseline, smallVictim(tls.OverflowSquash)),
			"overflow squashes", func(r *sim.Result) uint64 { return r.TLS.OverflowSquashes }, "0ac1634967fb109f"},
		{"fault injection", untuned, func() sim.Config {
			cfg := workload.Machine(workload.Baseline)
			cfg.Inject = inject.New(inject.Config{Seed: 3, Faults: 12, Window: 40_000, LatchEvery: 128, LatchDelay: 8})
			return cfg
		}, "injected faults", func(r *sim.Result) uint64 { return r.InjectedFaults }, "7d75d3e3ad7a1c51"},
		{"latch contention", latchProgram(), machine(workload.Baseline, nil),
			"sync cycles", func(r *sim.Result) uint64 { return r.Breakdown[sim.Sync] }, "ee884d093e34c2ef"},
		{"latch deadlock", deadlockProgram(), machine(workload.Baseline, func(c *sim.Config) {
			c.LatchDeadlockCycles = 500
		}), "deadlock breaks", func(r *sim.Result) uint64 { return r.LatchDeadlockBreaks }, "e7c1ab4f57aaf329"},
	}
	for _, row := range rows {
		cfg := row.cfg()
		cfg.MaxCycles = 5_000_000 // a regression that hangs fails instead
		res, err := sim.RunE(cfg, row.prog)
		if err != nil {
			t.Errorf("%s: %v", row.name, err)
			continue
		}
		if row.count(res) == 0 {
			t.Errorf("%s: no %s: the row no longer covers its path", row.name, row.covered)
		}
		if got := resultDigest(t, res); got != row.want {
			t.Errorf("%s: result digest %s, want %s\n%+v", row.name, got, row.want, *res)
		}
	}
}
