// Package subthreads is a library reproduction of Colohan, Ailamaki,
// Steffan, and Mowry, "Tolerating Dependences Between Large Speculative
// Threads Via Sub-Threads" (ISCA 2006).
//
// It provides, as one coherent system:
//
//   - a cycle-level simulator of a 4-CPU chip multiprocessor with hardware
//     support for thread-level speculation (TLS) over large speculative
//     threads: speculative state buffered in the shared L2, line-granularity
//     load tracking, word-granularity store tracking, aggressive update
//     propagation through write-through L1s, and a speculative victim cache;
//   - the paper's contribution, sub-threads: periodic lightweight
//     checkpoints inside each speculative thread, so a dependence violation
//     rewinds only to the sub-thread containing the violated load, with the
//     sub-thread start table making secondary violations selective;
//   - the hardware dependence profiler of §3.1 (exposed load table plus a
//     failed-cycle-ranked load/store PC pair list);
//   - a from-scratch BerkeleyDB-like storage engine (B+-trees, buffer pool,
//     latches, lock table, write-ahead log) that executes the five TPC-C
//     transactions and records their memory traces, with the §3.2 tuning
//     optimizations as switchable flags.
//
// The exported surface below aliases the internal packages so downstream
// users get one import; the examples/ directory shows typical use, and
// cmd/experiments regenerates every table and figure of the paper.
package subthreads

import (
	"io"

	"subthreads/internal/db"
	"subthreads/internal/isa"
	"subthreads/internal/mem"
	"subthreads/internal/report"
	"subthreads/internal/sim"
	"subthreads/internal/synth"
	"subthreads/internal/telemetry"
	"subthreads/internal/tpcc"
	"subthreads/internal/trace"
	"subthreads/internal/version"
	"subthreads/internal/workload"
)

// VersionInfo is the build identity of the running binary: module version,
// VCS revision, and toolchain.
type VersionInfo = version.Info

// Version reports the module version and VCS revision the Go toolchain
// embedded in this binary (runtime/debug.ReadBuildInfo). All four commands
// surface it via -version, and the serving daemon via GET /healthz.
func Version() VersionInfo { return version.Get() }

// Trace-construction types, for building custom speculative threads.
type (
	// Trace is a recorded instruction stream (one speculative thread).
	Trace = trace.Trace
	// TraceBuilder records loads, stores, compute, and branches.
	TraceBuilder = trace.Builder
	// Addr is a simulated physical address.
	Addr = mem.Addr
	// PC is a synthetic program counter for instrumentation sites.
	PC = isa.PC
)

// NewTraceBuilder returns an empty trace builder.
func NewTraceBuilder() *TraceBuilder { return trace.NewBuilder() }

// SynthParams describes a synthetic speculative-thread workload (thread
// count, size, and cross-thread dependence density).
type SynthParams = synth.Params

// GenerateSynthetic builds a synthetic program for dependence-density
// studies and stress testing.
func GenerateSynthetic(p SynthParams) (*Program, error) { return synth.Generate(p) }

// Simulator types.
type (
	// SpawnPolicy selects where sub-thread checkpoints are placed (§5.1).
	SpawnPolicy = sim.SpawnPolicy
	// SimConfig assembles a full machine (CPUs, memory hierarchy, TLS
	// hardware, sub-thread policy).
	SimConfig = sim.Config
	// Result is a run's full measurement.
	Result = sim.Result
	// Program is an ordered list of schedulable units.
	Program = sim.Program
	// Unit is one speculative thread or serial (barrier) region.
	Unit = sim.Unit
	// Breakdown distributes CPU-cycles across the Figure 5 categories.
	Breakdown = sim.Breakdown
)

// Workload types.
type (
	// Spec describes one benchmark run.
	Spec = workload.Spec
	// Experiment names a Figure 5 machine/software configuration.
	Experiment = workload.Experiment
	// Built is a ready-to-simulate program plus provenance.
	Built = workload.Built
	// Builder is a concurrency-safe build cache: it memoizes Built
	// programs so sweeps replaying one binary against many machines pay
	// for a single database load + trace recording.
	Builder = workload.Builder
	// Benchmark identifies one of the seven workload variants.
	Benchmark = tpcc.Benchmark
	// Scale sizes the single-warehouse TPC-C dataset.
	Scale = tpcc.Scale
)

// Storage-engine types for building custom workloads.
type (
	// DBConfig parameterizes the storage engine.
	DBConfig = db.Config
	// DBEnv is one database environment.
	DBEnv = db.Env
	// OptFlags selects the §3.2 tuning optimizations.
	OptFlags = db.OptFlags
)

// Sub-thread placement policies (§5.1).
const (
	SpawnPeriodic  = sim.SpawnPeriodic
	SpawnAdaptive  = sim.SpawnAdaptive
	SpawnPredictor = sim.SpawnPredictor
)

// The Figure 5 experiments.
const (
	Sequential    = workload.Sequential
	TLSSeq        = workload.TLSSeq
	NoSubthread   = workload.NoSubthread
	Baseline      = workload.Baseline
	NoSpeculation = workload.NoSpeculation
	PredictorSync = workload.PredictorSync
)

// The seven benchmarks.
const (
	NewOrder      = tpcc.NewOrder
	NewOrder150   = tpcc.NewOrder150
	Delivery      = tpcc.Delivery
	DeliveryOuter = tpcc.DeliveryOuter
	StockLevel    = tpcc.StockLevel
	Payment       = tpcc.Payment
	OrderStatus   = tpcc.OrderStatus
)

// Telemetry types: cycle-stamped protocol-event tracing and metrics.
// Attach an emitter via SimConfig.Telemetry; a nil emitter disables
// instrumentation entirely.
type (
	// TelemetryEvent is one cycle-stamped protocol event.
	TelemetryEvent = telemetry.Event
	// TelemetryEmitter receives events during a run.
	TelemetryEmitter = telemetry.Emitter
	// TelemetryBuffer captures every event in memory.
	TelemetryBuffer = telemetry.Buffer
	// TelemetryRing keeps only the most recent events.
	TelemetryRing = telemetry.Ring
	// TelemetryFanout retains a run's stream and fans it out to concurrent
	// subscribers (the sink behind tlsd's live SSE event streams).
	TelemetryFanout = telemetry.Fanout
	// TelemetryMetrics aggregates events into counters and histograms.
	TelemetryMetrics = telemetry.Metrics
	// ChromeTraceOptions configures the Perfetto timeline exporter.
	ChromeTraceOptions = telemetry.TraceOptions
	// ResultJSON is the machine-readable form of a Result.
	ResultJSON = report.ResultJSON
)

// NewTelemetryRing returns a ring sink holding the last n events.
func NewTelemetryRing(n int) *TelemetryRing { return telemetry.NewRing(n) }

// NewTelemetryFanout returns an empty, open fan-out sink.
func NewTelemetryFanout() *TelemetryFanout { return telemetry.NewFanout() }

// NewTelemetryMetrics returns an empty metrics aggregator.
func NewTelemetryMetrics() *TelemetryMetrics { return telemetry.NewMetrics() }

// TelemetryMulti fans events out to several sinks (nils are skipped).
func TelemetryMulti(sinks ...TelemetryEmitter) TelemetryEmitter {
	return telemetry.Multi(sinks...)
}

// WriteChromeTrace renders captured events as a Chrome trace-event timeline
// loadable in ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, events []TelemetryEvent, opt ChromeTraceOptions) error {
	return telemetry.WriteChromeTrace(w, events, opt)
}

// EncodeTelemetryJSONL writes events as one JSON object per line.
func EncodeTelemetryJSONL(w io.Writer, events []TelemetryEvent) error {
	return telemetry.EncodeJSONL(w, events)
}

// WriteResultJSON encodes a run's measurement as indented JSON.
func WriteResultJSON(w io.Writer, r *Result) error { return report.WriteJSON(w, r) }

// DefaultSpec returns a benchmark spec sized for minutes-long suites.
func DefaultSpec(b Benchmark) Spec { return workload.DefaultSpec(b) }

// DefaultSimConfig returns the paper's BASELINE machine (Table 1: 4 CPUs,
// 8 sub-threads per thread, 5000 speculative instructions per sub-thread).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// Machine returns the simulator configuration for a Figure 5 experiment.
func Machine(e Experiment) SimConfig { return workload.Machine(e) }

// Run builds the program variant an experiment needs and simulates it.
func Run(spec Spec, e Experiment) (*Result, *Built) { return workload.Run(spec, e) }

// RunConfig simulates the TLS-transformed program on a custom machine.
func RunConfig(spec Spec, cfg SimConfig) (*Result, *Built) { return workload.RunConfig(spec, cfg) }

// Build loads a fresh database and records a benchmark's transaction stream
// without simulating it.
func Build(spec Spec, sequential bool) *Built { return workload.Build(spec, sequential) }

// NewBuilder returns an empty build cache. A Built program is read-only
// under Simulate, so one cached program can back many concurrent machines.
func NewBuilder() *Builder { return workload.NewBuilder() }

// Simulate runs an arbitrary program (e.g. hand-built synthetic units) on a
// machine.
func Simulate(cfg SimConfig, prog *Program) *Result { return sim.Run(cfg, prog) }

// Benchmarks returns the benchmarks in the paper's presentation order.
func Benchmarks() []Benchmark { return tpcc.All() }

// DefaultScale is the scaled-down dataset; PaperScale the full one.
func DefaultScale() Scale { return tpcc.DefaultScale() }

// PaperScale returns the full single-warehouse TPC-C cardinalities.
func PaperScale() Scale { return tpcc.PaperScale() }
