package report

import (
	"encoding/json"
	"io"

	"subthreads/internal/sim"
)

// RunParams names the run a measurement came from: the benchmark, the
// machine shape, and the program's provenance statistics. It is the
// identity half of a Run document; the sim.Results are the measurement
// half.
type RunParams struct {
	Benchmark  string
	Experiment string
	CPUs       int
	Subthreads int
	Spacing    uint64
	Epochs     int
	Coverage   float64
}

// Run is the machine-readable form of one full measurement — the document
// `tlssim -json` prints and the tlsd result endpoint serves. Both render
// through WriteRun, so for one spec the CLI and the daemon produce
// byte-identical bodies (pinned by internal/service's equivalence test and
// the CI smoke step). The flat fields are the headline numbers; Detail is
// the complete ResultJSON.
type Run struct {
	Benchmark        string     `json:"benchmark"`
	Experiment       string     `json:"experiment"`
	CPUs             int        `json:"cpus"`
	Subthreads       int        `json:"subthreads"`
	Spacing          uint64     `json:"spacing"`
	Cycles           uint64     `json:"cycles"`
	SequentialCycles uint64     `json:"sequential_cycles"`
	Speedup          float64    `json:"speedup"`
	Busy             uint64     `json:"busy_cycles"`
	CacheMiss        uint64     `json:"cache_miss_cycles"`
	Sync             uint64     `json:"sync_cycles"`
	Failed           uint64     `json:"failed_cycles"`
	Idle             uint64     `json:"idle_cycles"`
	Primary          uint64     `json:"primary_violations"`
	Secondary        uint64     `json:"secondary_violations"`
	SubthreadStarts  uint64     `json:"subthread_starts"`
	RewoundInstrs    uint64     `json:"rewound_instrs"`
	CommittedInstrs  uint64     `json:"committed_instrs"`
	Epochs           int        `json:"epochs"`
	Coverage         float64    `json:"coverage"`
	Detail           ResultJSON `json:"detail"`
}

// BuildRun assembles the document from a measured run and its sequential
// reference.
func BuildRun(p RunParams, res, seq *sim.Result) Run {
	return Run{
		Benchmark:        p.Benchmark,
		Experiment:       p.Experiment,
		CPUs:             p.CPUs,
		Subthreads:       p.Subthreads,
		Spacing:          p.Spacing,
		Cycles:           res.Cycles,
		SequentialCycles: seq.Cycles,
		Speedup:          res.Speedup(seq),
		Busy:             res.Breakdown[sim.Busy],
		CacheMiss:        res.Breakdown[sim.CacheMiss],
		Sync:             res.Breakdown[sim.Sync],
		Failed:           res.Breakdown[sim.Failed],
		Idle:             res.Breakdown[sim.Idle],
		Primary:          res.TLS.PrimaryViolations,
		Secondary:        res.TLS.SecondaryViolations,
		SubthreadStarts:  res.TLS.SubthreadStarts,
		RewoundInstrs:    res.RewoundInstrs,
		CommittedInstrs:  res.CommittedInstrs,
		Epochs:           p.Epochs,
		Coverage:         p.Coverage,
		Detail:           FromResult(res),
	}
}

// WriteRun writes the document as indented JSON. Bytes are deterministic
// for identical measurements (encoding/json sorts the breakdown map keys),
// which is what lets the daemon's content-addressed cache serve stored
// bodies verbatim.
func WriteRun(w io.Writer, r Run) error { return writeIndented(w, r) }

// writeIndented is the one JSON encoding of every report document: two-space
// indent, trailing newline.
func writeIndented(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
