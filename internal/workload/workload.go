// Package workload assembles the paper's experiments: it loads a TPC-C
// database on the storage engine, executes a stream of transactions while
// recording their (decomposed) traces, and packages them as simulator
// programs for each hardware configuration of Figure 5/6.
//
// Every experiment variant replays the same seeded transaction inputs
// against an identically-loaded database, so configurations differ only in
// the software mode (sequential vs. TLS-transformed) and the hardware.
package workload

import (
	"fmt"

	"subthreads/internal/db"
	"subthreads/internal/isa"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
)

// Spec describes one benchmark run.
type Spec struct {
	Bench  tpcc.Benchmark
	Scale  tpcc.Scale
	Txns   int // measured transactions
	Warmup int // transactions executed before timing (warm the pool, §4.1)
	Seed   int64
	// OptLevel is the number of tuning iterations applied to the engine
	// for TLS binaries (db.OptLevel); the paper's main results use the
	// fully-optimized engine.
	OptLevel int
}

// DefaultSpec returns a spec sized for minutes-long experiment suites.
func DefaultSpec(b tpcc.Benchmark) Spec {
	return Spec{
		Bench:    b,
		Scale:    tpcc.DefaultScale(),
		Txns:     8,
		Warmup:   2,
		Seed:     42,
		OptLevel: db.NumOptLevels - 1,
	}
}

// CheckCounts rejects transaction counts Build cannot run: fewer than one
// measured transaction, or a negative warm-up. tlssim, tlsd and experiments
// all validate through it, so each reports the same message.
func CheckCounts(txns, warmup int) error {
	if txns < 1 {
		return fmt.Errorf("workload: txns must be >= 1, got %d", txns)
	}
	if warmup < 0 {
		return fmt.Errorf("workload: warmup must be >= 0, got %d", warmup)
	}
	return nil
}

// Stats summarizes the recorded traces — the raw material of Table 2.
type Stats struct {
	Txns          int
	Epochs        int
	TotalInstrs   uint64
	IterInstrs    uint64
	Coverage      float64 // fraction of instructions inside the parallelized loop
	AvgThreadSize float64 // dynamic instructions per speculative thread
	ThreadsPerTxn float64
}

// Built is a ready-to-simulate program plus its provenance.
type Built struct {
	Program *sim.Program
	Stats   Stats
	PCs     *isa.PCRegistry

	// Outputs holds the client-visible result values of each measured
	// transaction. They are functional — independent of software mode and
	// memory layout — so the flat/serial and TLS-transformed builds of one
	// spec must agree; the differential oracle (internal/check) compares
	// them.
	Outputs [][]int64
}

// Bytes is the memory the program's trace entries take, 8 bytes each: what
// a bounded Builder weighs it at. The entries are nearly all of a program's
// memory.
func (b *Built) Bytes() int64 {
	var n int64
	for _, u := range b.Program.Units {
		n += 8 * int64(len(u.Trace.Events()))
	}
	return n
}

// Build loads a fresh database and records the benchmark's transaction
// stream. With sequential=true the engine is unoptimized and each
// transaction is one flat serial trace (the SEQUENTIAL binary); otherwise
// the engine applies spec.OptLevel tuning iterations and transactions are
// decomposed at their parallelized loop with TLS software overhead.
func Build(spec Spec, sequential bool) *Built {
	return record(spec, sequential, load(spec, sequential))
}

// BuildPair returns Build(spec, false) and the SEQUENTIAL program KeyOf(spec,
// true) names, recorded from one database load and its clone: the load
// depends on nothing but the scale and the seed, so both programs are byte
// for byte what their own Build calls record. It also returns the two
// databases, in the state the full (warm-up + measured) transaction stream
// left them, for a caller that compares them (internal/check).
func BuildPair(spec Spec) (tls, seq *Built, tlsDB, seqDB *tpcc.DB) {
	tlsDB = load(spec, false)
	seqDB = tlsDB.Clone(engineOpt(spec, true))
	return record(spec, false, tlsDB), record(KeyOf(spec, true).Spec, true, seqDB), tlsDB, seqDB
}

// engineOpt returns the engine flags the program of spec in the given mode
// records under.
func engineOpt(spec Spec, sequential bool) db.OptFlags {
	if sequential {
		return db.OptNone()
	}
	return db.OptLevel(spec.OptLevel)
}

// load loads spec's database on a fresh environment under the engine flags
// of the mode. It panics on counts Build cannot run (CheckCounts).
func load(spec Spec, sequential bool) *tpcc.DB {
	if err := CheckCounts(spec.Txns, spec.Warmup); err != nil {
		panic(err)
	}
	cfg := db.DefaultConfig()
	cfg.Opt = engineOpt(spec, sequential)
	return tpcc.Load(db.NewEnv(cfg), spec.Scale, spec.Seed)
}

// record runs spec's transaction stream on database, just loaded under the
// engine flags of the mode, and packages the measured transactions'
// traces as a program.
func record(spec Spec, sequential bool, database *tpcc.DB) *Built {
	inputs := tpcc.GenInputs(spec.Bench, spec.Scale, spec.Seed+1, spec.Warmup+spec.Txns)

	mode := tpcc.ModeTLS
	if sequential {
		mode = tpcc.ModeFlat
	}

	// Warm-up transactions advance database state and are not recorded
	// (the paper starts timing after warm-up).
	for _, in := range inputs[:spec.Warmup] {
		database.Warm(in, mode)
	}

	b := &Built{
		Program: &sim.Program{},
		PCs:     database.Env.PCs,
	}
	st := &b.Stats
	st.Txns = spec.Txns
	for _, in := range inputs[spec.Warmup:] {
		segs := database.RunTxn(in, mode)
		b.Outputs = append(b.Outputs, database.LastOutput())
		for _, seg := range segs {
			b.Program.Units = append(b.Program.Units, sim.Unit{
				Trace:   seg.Trace,
				Barrier: !seg.Iter,
			})
			st.TotalInstrs += seg.Trace.Instrs()
			if seg.Iter {
				st.Epochs++
				st.IterInstrs += seg.Trace.Instrs()
			}
		}
	}
	if st.TotalInstrs > 0 {
		st.Coverage = float64(st.IterInstrs) / float64(st.TotalInstrs)
	}
	if st.Epochs > 0 {
		st.AvgThreadSize = float64(st.IterInstrs) / float64(st.Epochs)
	}
	st.ThreadsPerTxn = float64(st.Epochs) / float64(st.Txns)
	return b
}

// Experiment names the hardware/software configurations of Figure 5, plus
// the dependence-predictor ablation of §2.2.
type Experiment int

const (
	// Sequential: the original binary on one CPU, no TLS.
	Sequential Experiment = iota
	// TLSSeq: the TLS-transformed binary on one CPU (software overhead).
	TLSSeq
	// NoSubthread: 4 CPUs, conventional all-or-nothing TLS.
	NoSubthread
	// Baseline: 4 CPUs, 8 sub-threads per thread, 5000 speculative
	// instructions per sub-thread.
	Baseline
	// NoSpeculation: 4 CPUs, all dependences ignored (upper bound).
	NoSpeculation
	// PredictorSync: 4 CPUs, all-or-nothing TLS plus a Moshovos-style
	// dependence predictor synchronizing predicted-dependent loads.
	PredictorSync
	NumExperiments
)

var experimentNames = [...]string{
	Sequential:    "SEQUENTIAL",
	TLSSeq:        "TLS-SEQ",
	NoSubthread:   "NO SUB-THREAD",
	Baseline:      "BASELINE",
	NoSpeculation: "NO SPECULATION",
	PredictorSync: "PREDICTOR",
}

func (e Experiment) String() string {
	if int(e) < len(experimentNames) {
		return experimentNames[e]
	}
	return fmt.Sprintf("experiment(%d)", int(e))
}

// SequentialSoftware reports whether the experiment runs the original
// (non-TLS) binary.
func (e Experiment) SequentialSoftware() bool { return e == Sequential }

// Machine returns the simulator configuration for the experiment.
func Machine(e Experiment) sim.Config {
	cfg := sim.DefaultConfig()
	switch e {
	case Sequential, TLSSeq:
		cfg.CPUs = 1
		cfg.SubthreadSpacing = 0
		cfg.TLS.SubthreadsPerEpoch = 1
	case NoSubthread:
		cfg.SubthreadSpacing = 0
		cfg.TLS.SubthreadsPerEpoch = 1
	case Baseline:
		// 8 sub-threads x 5000 speculative instructions (§5).
	case NoSpeculation:
		cfg.TLS.SpeculationOff = true
		cfg.SubthreadSpacing = 0
		cfg.TLS.SubthreadsPerEpoch = 1
	case PredictorSync:
		cfg.SubthreadSpacing = 0
		cfg.TLS.SubthreadsPerEpoch = 1
		cfg.UsePredictor = true
	default:
		panic(fmt.Sprintf("workload: unknown experiment %v", e))
	}
	return cfg
}

// Run builds the program variant the experiment needs and simulates it.
func Run(spec Spec, e Experiment) (*sim.Result, *Built) {
	built := Build(spec, e.SequentialSoftware())
	res := sim.Run(Machine(e), built.Program)
	return res, built
}

// RunConfig simulates the TLS-transformed program on a custom machine —
// the Figure 6 sweeps and the ablations use this.
func RunConfig(spec Spec, cfg sim.Config) (*sim.Result, *Built) {
	built := Build(spec, false)
	res := sim.Run(cfg, built.Program)
	return res, built
}
