// Command perfbench is the repository's benchmark: one command that runs the
// simulator and its serving stack under a named, seeded workload, checks every
// output, and prints end-to-end metrics (untraced run) or per-layer metrics
// (traced run).
//
//	bash perfbench/run.sh --workload sim|sweep|serve|fleet --seed N --seconds S --trace 0|1
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// The wrapper builds tlsd, tlsrouter, experiments, tlssim and this program from
// the checkout, so the programs measured are the ones at the commit under
// test. Human-readable lines (every metric with its unit and sample count, the
// host stamp and seed) come first; the last line of standard output is one
// JSON object carrying the metrics BENCHMARK.json declares. Every run also
// appends its full record to .bench_build/results.jsonl, which compare mode
// reads.
//
// The workloads, their load shapes, and which end-to-end metric each
// per-layer metric should and should not move are in interactions.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"subthreads/internal/version"
)

// sample is one reported number: its value, unit, and how many measurements
// it summarizes.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// outcome is what one workload run measured.
type outcome struct {
	// metrics are the end-to-end metrics of the untraced measurement, by the
	// names in e2eDefs.
	metrics map[string]sample
	// layers are the per-layer metrics of the traced measurement.
	layers map[string]sample
	// overhead is the traced-minus-untraced difference of each end-to-end
	// metric, as a share of the untraced value.
	overhead map[string]float64
	// attempted and failed count operations; failed includes refusals and
	// byte mismatches.
	attempted, failed int
	// digest identifies the outputs the run produced (SHA-256), so compare
	// mode can tell two commits' outputs apart.
	digest   string
	notes    []string
	failures []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]sample{}, layers: map[string]sample{}, overhead: map[string]float64{}}
}

func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = sample{Value: v, Unit: e2eUnit(name), N: n}
}

func (o *outcome) layer(name, unit string, v float64, n int) {
	o.layers[name] = sample{Value: v, Unit: unit, N: n}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// absorb adds another measurement's operation counts and failures to o (the
// traced window's, whose metrics only feed the overhead).
func (o *outcome) absorb(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.failures = append(o.failures, other.failures...)
}

// env is what every workload gets: where the binaries and scratch space are,
// the seed, the measurement window, and whether this is the traced run.
type env struct {
	root   string // checkout root
	bin    string // built binaries
	runDir string // per-run scratch (daemon cache dirs, logs, profiles)
	seed   int64
	window time.Duration
	traced bool
	nproc  int
}

// workloads maps each workload name to its runner. Each runner performs the
// untraced measurement and, when env.traced, a traced measurement after it.
var workloads = map[string]func(*env) (*outcome, error){
	"sim":   runSim,
	"sweep": runSweep,
	"serve": runServe,
	"fleet": runFleet,
}

// e2eDef is one end-to-end metric a workload reports.
type e2eDef struct{ name, unit, better string }

var e2eDefs = []e2eDef{
	{"setup_s", "s", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_minstr_per_s", "Minstr/s", "higher"},
	{"sim_ms_per_mcycle", "ms", "lower"},
	{"tlssim_p50_ms", "ms", "lower"},
	{"sweep_s", "s", "lower"},
	{"tasks_per_s", "1/s", "higher"},
	{"hit_p50_ms", "ms", "lower"},
	{"hit_p99_ms", "ms", "lower"},
	{"disk_p50_ms", "ms", "lower"},
	{"remote_p50_ms", "ms", "lower"},
	{"fork_p50_ms", "ms", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p90_ms", "ms", "lower"},
	{"max_rps", "req/s", "higher"},
	{"pool_minstr_per_s", "Minstr/s", "higher"},
	{"jobs_per_s", "req/s", "higher"},
}

func e2eDefFor(name string) (e2eDef, bool) {
	for _, d := range e2eDefs {
		if d.name == name {
			return d, true
		}
	}
	return e2eDef{}, false
}

func e2eUnit(name string) string {
	if d, ok := e2eDefFor(name); ok {
		return d.unit
	}
	panic("perfbench: undeclared end-to-end metric " + name)
}

// slot maps one metric BENCHMARK.json declares onto the workload metric that
// fills it. The contract requires every declared end-to-end metric from
// every workload, so the declared names are workload-neutral roles
// (throughput, latency) and each workload says which of its own metrics plays
// the role.
type slot struct {
	metric string
	scale  float64
}

var slots = map[string]map[string]slot{
	"throughput": {
		"sim":   {"sim_minstr_per_s", 1},
		"sweep": {"tasks_per_s", 1},
		"serve": {"pool_minstr_per_s", 1},
		"fleet": {"jobs_per_s", 1},
	},
	"latency_ms": {
		"sim":   {"sim_ms_per_mcycle", 1},
		"sweep": {"sweep_s", 1000},
		"serve": {"hit_p50_ms", 1},
		"fleet": {"hit_p50_ms", 1},
	},
}

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// record is one run's full result, appended to the results file.
type record struct {
	Time      string             `json:"time"`
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Host      version.HostInfo   `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	Metrics   map[string]sample  `json:"metrics"`
	Layers    map[string]sample  `json:"layers,omitempty"`
	Overhead  map[string]float64 `json:"overhead,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

func main() {
	root := flag.String("root", ".", "checkout root (holds BENCHMARK.json and .bench_build)")
	name := flag.String("workload", "", "workload: sim, sweep, serve or fleet")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 12, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	flag.Parse()

	if flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fatalf("usage: perfbench compare OLD.jsonl NEW.jsonl")
		}
		if err := compare(os.Stdout, *root, flag.Arg(1), flag.Arg(2)); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatalf("unknown -workload %q (want sim, sweep, serve or fleet)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be >= 1 and -trace 0 or 1")
	}
	bf, err := readBenchmarkFile(*root)
	if err != nil {
		fatalf("%v", err)
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	e := &env{
		root:   absRoot,
		bin:    filepath.Join(absRoot, ".bench_build", "bin"),
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		nproc:  runtime.NumCPU(),
	}
	e.runDir, err = os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-"+*name+"-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(e.runDir)

	out, err := run(e)
	if err != nil {
		os.RemoveAll(e.runDir)
		fatalf("%s: %v", *name, err)
	}
	if out.attempted < 1 {
		os.RemoveAll(e.runDir)
		fatalf("%s: no operations attempted", *name)
	}
	out.set("fail_ratio", float64(out.failed)/float64(out.attempted), out.attempted)

	rec := record{
		Time: time.Now().UTC().Format(time.RFC3339), Workload: *name, Seed: *seed,
		Seconds: *seconds, Traced: e.traced, Host: version.Host(),
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Digest: out.digest, Metrics: out.metrics, Notes: out.notes, Failures: out.failures,
	}
	if e.traced {
		rec.Layers, rec.Overhead = out.layers, out.overhead
	}
	printHuman(os.Stdout, &rec)
	if err := appendRecord(filepath.Join(absRoot, ".bench_build", "results.jsonl"), &rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: results file: %v\n", err)
	}
	last, err := contractLine(bf, *name, &rec)
	if err != nil {
		os.RemoveAll(e.runDir)
		fatalf("%v", err)
	}
	fmt.Println(last)
	if !rec.Correct {
		os.RemoveAll(e.runDir)
		os.Exit(1)
	}
}

// contractLine renders the final JSON line: the metrics BENCHMARK.json
// declares, end-to-end ones for an untraced run and per-layer ones for a
// traced run.
func contractLine(bf *benchmarkFile, wl string, rec *record) (string, error) {
	metrics := map[string]map[string]any{}
	put := func(name, unit string, v float64) {
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	if rec.Traced {
		for _, m := range bf.PerLayer {
			s, ok := rec.Layers[m.Name]
			if !ok {
				return "", fmt.Errorf("traced %s run produced no %s", wl, m.Name)
			}
			put(m.Name, m.Unit, s.Value)
		}
	} else {
		for _, m := range bf.EndToEnd {
			src := slot{m.Name, 1}
			if byWl, ok := slots[m.Name]; ok {
				src = byWl[wl]
			}
			s, ok := rec.Metrics[src.metric]
			if !ok {
				return "", fmt.Errorf("%s run produced no %s (for %s)", wl, src.metric, m.Name)
			}
			put(m.Name, m.Unit, s.Value*src.scale)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	return string(line), err
}

func printHuman(w *os.File, rec *record) {
	mode := "end-to-end"
	if rec.Traced {
		mode = "traced"
	}
	h := rec.Host
	fmt.Fprintf(w, "perfbench %s: workload=%s seed=%d seconds=%d host=%s %s/%s cpus=%d gomaxprocs=%d\n",
		mode, rec.Workload, rec.Seed, rec.Seconds, h.GoVersion, h.OS, h.Arch, h.CPUs, h.GOMAXPROCS)
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; output digest %s\n", rec.Attempted, rec.Failed, short(rec.Digest))
	for _, d := range e2eDefs {
		if s, ok := rec.Metrics[d.name]; ok {
			fmt.Fprintf(w, "  %-22s %14.4f %-9s n=%d\n", d.name, s.Value, s.Unit, s.N)
		}
	}
	if rec.Traced {
		names := make([]string, 0, len(rec.Layers))
		for n := range rec.Layers {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "  per-layer (traced run):")
		for _, n := range names {
			s := rec.Layers[n]
			fmt.Fprintf(w, "    %-32s %16.4f %-10s n=%d\n", n, s.Value, s.Unit, s.N)
		}
		if len(rec.Overhead) > 0 {
			keys := make([]string, 0, len(rec.Overhead))
			for k := range rec.Overhead {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			fmt.Fprintln(w, "  tracing overhead (traced minus untraced, share of untraced):")
			for _, k := range keys {
				fmt.Fprintf(w, "    %-22s %+8.2f%%\n", k, 100*rec.Overhead[k])
			}
		}
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
}

func short(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
