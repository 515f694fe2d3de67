// Package service is the simulation-serving layer behind cmd/tlsd: a job
// model over the simulator, a bounded FIFO queue with backpressure, a
// GOMAXPROCS-sized worker pool sharing one workload build cache, a
// content-addressed result cache keyed by the canonical digest of each
// resolved run, and per-job telemetry fan-out for live event streaming.
//
// The serving contract is byte-level reproducibility: a job's result body
// is rendered through the same report.Run pipeline as `tlssim -json`, so
// the daemon, the CLI, and the cache all agree on the exact bytes for one
// spec — which is what makes content addressing sound.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"subthreads/internal/cliflags"
	"subthreads/internal/db"
	"subthreads/internal/inject"
	"subthreads/internal/report"
	"subthreads/internal/sim"
	"subthreads/internal/tls"
	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

// JobSpec is the wire form of one simulation request (POST /v1/jobs) and of
// one cmd/tlssim command line: tlssim fills a JobSpec from its flags, one
// flag per field, and resolves it here, so the CLI and the daemon share one
// validation, one set of defaults and one digest, and every job has a direct
// CLI repro command. Pointer fields distinguish "omitted" from an explicit
// zero.
type JobSpec struct {
	// Benchmark names the workload (tlssim -list); required.
	Benchmark string `json:"benchmark"`
	// Experiment is the machine/software configuration; default BASELINE.
	Experiment string `json:"experiment,omitempty"`
	// Txns is the measured transaction count; 0 is "omitted" and takes
	// the default 8.
	Txns int `json:"txns,omitempty"`
	// Warmup is the warm-up transaction count; default 2.
	Warmup *int `json:"warmup,omitempty"`
	// Seed is the input seed; default 42.
	Seed *int64 `json:"seed,omitempty"`
	// Opt is the database optimization level; default fully optimized.
	Opt *int `json:"opt,omitempty"`
	// Paper selects the full single-warehouse TPC-C scale.
	Paper bool `json:"paper,omitempty"`
	// Subthreads overrides the sub-thread contexts per thread, up to
	// tls.MaxSubthreads (0 = keep the experiment's value).
	Subthreads int `json:"subthreads,omitempty"`
	// Spacing overrides the speculative instructions per sub-thread.
	Spacing uint64 `json:"spacing,omitempty"`
	// Overflow selects the victim-cache overflow policy: "stall"|"squash".
	Overflow string `json:"overflow,omitempty"`
	// Paranoid enables the protocol invariant auditor for this job.
	Paranoid bool `json:"paranoid,omitempty"`
	// Inject is a fault-injection spec (see internal/inject).
	Inject string `json:"inject,omitempty"`
	// MaxCycles is the job's hard cycle budget (its deadline, mapped onto
	// sim.Config.MaxCycles); 0 means no budget.
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Watchdog bounds cycles without a commit (sim.Config.WatchdogCycles).
	Watchdog uint64 `json:"watchdog_cycles,omitempty"`
	// TimeoutMS is the submission's end-to-end wall-clock deadline in
	// milliseconds, covering queue wait, build, simulation, and render. A
	// serving parameter, not a simulation parameter: it is at most
	// maxTimeoutMS, floored at 10ms, ceilinged by the daemon's
	// -job-timeout, and deliberately excluded from the content digest — the
	// same simulation under a different deadline is still the same
	// simulation, so it shares cache entries. 0 inherits the server-wide
	// -job-timeout (which may be "none").
	TimeoutMS uint64 `json:"timeout_ms,omitempty"`
}

// maxTimeoutMS is the largest timeout_ms a time.Duration holds,
// 9,223,372,036,854 ms (about 292 years); a larger one would wrap to a zero
// or negative deadline.
const maxTimeoutMS = math.MaxInt64 / uint64(time.Millisecond)

// Resolved is a fully-determined simulation: every default applied, the
// machine configured, and the content address computed. Cfg's runtime
// fields (Telemetry, Oracle, Inject) are left nil — the worker arms them
// per run, and they never participate in the digest.
type Resolved struct {
	Spec   workload.Spec
	Exp    workload.Experiment
	Cfg    sim.Config
	Inject *inject.Config
	// Digest is the content address of the run: the SHA-256 of the
	// canonical JSON encoding of (workload spec, experiment, machine
	// configuration, injection schedule). Two JobSpecs that resolve to the
	// same simulation share a digest regardless of which fields were
	// spelled out.
	Digest string
}

// Resolve validates the spec, applies tlssim's defaults, and computes the
// content address.
func (js JobSpec) Resolve() (*Resolved, error) {
	bench, err := tpcc.Parse(js.Benchmark)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	expName := js.Experiment
	if expName == "" {
		expName = workload.Baseline.String()
	}
	exp := workload.Experiment(-1)
	for e := workload.Experiment(0); e < workload.NumExperiments; e++ {
		if e.String() == expName {
			exp = e
		}
	}
	if exp < 0 {
		return nil, fmt.Errorf("service: unknown experiment %q", expName)
	}

	spec := workload.DefaultSpec(bench)
	if js.Txns != 0 {
		spec.Txns = js.Txns
	}
	if js.Warmup != nil {
		spec.Warmup = *js.Warmup
	}
	if err := workload.CheckCounts(spec.Txns, spec.Warmup); err != nil {
		return nil, err
	}
	if js.Seed != nil {
		spec.Seed = *js.Seed
	}
	if js.Opt != nil {
		spec.OptLevel = *js.Opt
	}
	if spec.OptLevel < 0 || spec.OptLevel >= db.NumOptLevels {
		return nil, fmt.Errorf("service: opt must be in [0, %d], got %d", db.NumOptLevels-1, spec.OptLevel)
	}
	if js.Paper {
		spec.Scale = tpcc.PaperScale()
	}

	if js.Subthreads < 0 || js.Subthreads > tls.MaxSubthreads {
		return nil, fmt.Errorf("service: subthreads must be in [0, %d], got %d", tls.MaxSubthreads, js.Subthreads)
	}
	cfg := workload.Machine(exp)
	if js.Subthreads > 0 {
		cfg.TLS.SubthreadsPerEpoch = js.Subthreads
	}
	if js.Spacing > 0 {
		cfg.SubthreadSpacing = js.Spacing
	}
	switch js.Overflow {
	case "":
	case "stall":
		cfg.TLS.OverflowPolicy = tls.OverflowStall
	case "squash":
		cfg.TLS.OverflowPolicy = tls.OverflowSquash
	default:
		return nil, fmt.Errorf("service: overflow must be stall or squash, not %q", js.Overflow)
	}
	if js.TimeoutMS > maxTimeoutMS {
		return nil, fmt.Errorf("service: timeout_ms %d exceeds the maximum %d", js.TimeoutMS, maxTimeoutMS)
	}
	cfg.Paranoid = js.Paranoid
	cfg.MaxCycles = js.MaxCycles
	cfg.WatchdogCycles = js.Watchdog

	var icfg *inject.Config
	if js.Inject != "" {
		c, err := inject.Parse(js.Inject)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		icfg = &c
		if cfg.WatchdogCycles == 0 {
			cfg.WatchdogCycles = inject.DefaultWatchdog
		}
	}

	r := &Resolved{Spec: spec, Exp: exp, Cfg: cfg, Inject: icfg}
	r.Digest = r.digest()
	return r, nil
}

// canonicalRun is the digest pre-image. It embeds the full resolved machine
// configuration so any future semantic Config field automatically joins the
// content address; the runtime-only interface fields are nil'd before
// hashing.
type canonicalRun struct {
	Spec       workload.Spec  `json:"spec"`
	Experiment string         `json:"experiment"`
	Config     sim.Config     `json:"config"`
	Inject     *inject.Config `json:"inject,omitempty"`
}

// digest computes the content address of the resolved run.
func (r *Resolved) digest() string {
	c := canonicalRun{Spec: r.Spec, Experiment: r.Exp.String(), Config: r.Cfg, Inject: r.Inject}
	c.Config.Telemetry = nil
	c.Config.Oracle = nil
	c.Config.Inject = nil
	b, err := json.Marshal(c)
	if err != nil {
		// All digested fields are plain data; failure here is a
		// programming error, not an input error.
		panic(fmt.Sprintf("service: canonical encoding failed: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Config is the machine configuration for one run of r: r.Cfg with a fresh
// injector armed when the spec injects faults. Injectors are single-use (a
// consumed fault schedule), so call Config once per simulation.
func (r *Resolved) Config() sim.Config {
	cfg := r.Cfg
	if r.Inject != nil {
		cfg.Inject = inject.New(*r.Inject)
	}
	return cfg
}

// WriteResult renders r's result document from its measured run and the
// SEQUENTIAL reference's cycle count: the bytes tlsd serves and `tlssim
// -json` prints. The document reads nothing else of the reference
// (TestResultReadsOnlyReferenceCycles), which is what lets tlsd keep one
// cycle count per workload instead of re-simulating it for every job.
func (r *Resolved) WriteResult(w io.Writer, built *workload.Built, res *sim.Result, seqCycles uint64) error {
	return report.WriteRun(w, report.BuildRun(report.RunParams{
		Benchmark:  r.Spec.Bench.String(),
		Experiment: r.Exp.String(),
		CPUs:       r.Cfg.CPUs,
		Subthreads: r.Cfg.TLS.SubthreadsPerEpoch,
		Spacing:    r.Cfg.SubthreadSpacing,
		Epochs:     built.Stats.Epochs,
		Coverage:   built.Stats.Coverage,
	}, res, &sim.Result{Cycles: seqCycles}))
}

// ReproCommand is the cmd/tlssim invocation that reproduces this job —
// attached to every structured failure so a daemon-side watchdog trip or
// audit abort is one paste away from a local debugger. It spells out every
// digest field, so tlssim resolves it to this job's digest.
func (r *Resolved) ReproCommand() string {
	args := []string{
		"-benchmark", r.Spec.Bench.String(),
		"-experiment", r.Exp.String(),
		"-txns", strconv.Itoa(r.Spec.Txns),
		"-warmup", strconv.Itoa(r.Spec.Warmup),
		"-seed", strconv.FormatInt(r.Spec.Seed, 10),
		"-opt", strconv.Itoa(r.Spec.OptLevel),
	}
	if r.Spec.Scale == tpcc.PaperScale() {
		args = append(args, "-paper")
	}
	if r.Cfg.TLS.SubthreadsPerEpoch != workload.Machine(r.Exp).TLS.SubthreadsPerEpoch {
		args = append(args, "-subthreads", strconv.Itoa(r.Cfg.TLS.SubthreadsPerEpoch))
	}
	if r.Cfg.SubthreadSpacing != workload.Machine(r.Exp).SubthreadSpacing {
		args = append(args, "-spacing", strconv.FormatUint(r.Cfg.SubthreadSpacing, 10))
	}
	if r.Cfg.TLS.OverflowPolicy == tls.OverflowSquash {
		args = append(args, "-overflow", "squash")
	}
	if r.Cfg.Paranoid {
		args = append(args, "-paranoid")
	}
	if r.Inject != nil {
		args = append(args, "-inject", r.Inject.String())
	}
	if r.Cfg.WatchdogCycles != 0 {
		args = append(args, "-watchdog-cycles", strconv.FormatUint(r.Cfg.WatchdogCycles, 10))
	}
	if r.Cfg.MaxCycles != 0 {
		args = append(args, "-max-cycles", strconv.FormatUint(r.Cfg.MaxCycles, 10))
	}
	return cliflags.Repro("tlssim", append(args, "-json"))
}
