package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"time"

	"subthreads/internal/service"
	"subthreads/internal/tpcc"
)

// defaultSeed is the seed the output pins hold for; it is also the TPC-C
// input seed every other command of the repository defaults to.
const defaultSeed = 42

// simPassPin is the SHA-256 of one sim pass's seven `tlssim -json`
// documents, concatenated in benchmark order, at the default seed.
const simPassPin = "61a739bcaed39d427f9bd2391ac6fb2e24729c09640760b59dcd596e22ecefd6"

// simSpecs are the seeded inputs of one sim pass: every benchmark at
// txns 3, warmup 1, with the workload seed as the TPC-C input seed.
func simSpecs(seed int64) []service.JobSpec {
	var out []service.JobSpec
	for _, b := range tpcc.All() {
		warmup, s := 1, seed
		out = append(out, service.JobSpec{Benchmark: b.String(), Txns: 3, Warmup: &warmup, Seed: &s})
	}
	return out
}

// runSim is the sim workload: serial, in process, one goroutine. Each pass
// does for each benchmark what one `tlssim -json` does, with no build cache
// carried between passes; passes repeat until the window has elapsed.
func runSim(e *env) (*outcome, error) {
	out := newOutcome()
	specs := simSpecs(e.seed)

	// Set-up: a warm-up of the two cheapest benchmarks at the default seed
	// (grows the heap, faults the code in), five times; the median is
	// reported.
	var setups []float64
	warm := simSpecs(defaultSeed)
	for i := 0; i < 5; i++ {
		t := time.Now()
		for _, js := range warm[len(warm)-2:] {
			r, err := js.Resolve()
			if err != nil {
				return nil, err
			}
			if _, err := tlssimJSON(nil, 0, nil, r); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))

	m, err := simWindow(e, nil, nil, specs, out)
	if err != nil {
		return nil, err
	}
	out.set("sim_minstr_per_s", m.minstrPerS, m.passes)
	out.set("sim_ms_per_mcycle", m.msPerMcycle, m.passes)
	out.set("tlssim_p50_ms", m.p50, m.n)
	out.set("peak_rss_mb", m.peakMB, m.passes)
	out.digest = m.digest
	out.note("%d passes of %d benchmarks in %.1fs", m.passes, len(specs), m.busy.Seconds())

	if e.seed == defaultSeed {
		out.attempted++
		if m.digest != simPassPin {
			out.fail("sim pass digest %s differs from the pinned %s", short(m.digest), short(simPassPin))
		}
	}
	crossCheckTlssim(e, specs, m.bodies, out)

	if e.traced {
		rec, st := newRecorder(), &layerStats{}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		mt, err := simWindow(e, rec, st, specs, out)
		pprof.StopCPUProfile()
		if err != nil {
			return nil, err
		}
		if mt.digest != m.digest {
			out.fail("traced pass digest %s differs from the untraced %s", short(mt.digest), short(m.digest))
		}
		if err := commonLayers(out, rec, st); err != nil {
			return nil, err
		}
		if err := foldInto(out, prof.Bytes()); err != nil {
			return nil, err
		}
		out.overhead["sim_minstr_per_s"] = mt.minstrPerS/m.minstrPerS - 1
		out.overhead["sim_ms_per_mcycle"] = mt.msPerMcycle/m.msPerMcycle - 1
		out.overhead["tlssim_p50_ms"] = mt.p50/m.p50 - 1
		if err := writeSpans(e, "sim", rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

type simMeasure struct {
	minstrPerS, p50 float64
	msPerMcycle     float64 // host ms inside sim.RunE per simulated Mcycle
	peakMB          float64 // mean over benchmarks of each one's peak RSS
	passes, n       int
	busy            time.Duration
	digest          string
	bodies          [][]byte // the first pass's documents, in spec order
}

// simWindow runs passes until the window has elapsed (at least one).
func simWindow(e *env, rec *recorder, st *layerStats, specs []service.JobSpec, out *outcome) (simMeasure, error) {
	var m simMeasure
	var lats, rates, msPerMcycle []float64 // rates and ms/Mcycle: one per pass
	peaks := make([][]float64, len(specs)) // per benchmark, one per pass
	start := time.Now()
	for m.passes == 0 || time.Since(start) < e.window {
		if st != nil {
			st.lastBuilt = st.lastBuilt[:0]
		}
		h := sha256.New()
		var passTime, passCPU, simCPU time.Duration
		var instrs, cycles uint64
		for bi, js := range specs {
			// Each tlssim is its own process: free the previous benchmark's
			// memory outside the timed region and restart the peak-RSS mark,
			// so each benchmark's peak is its own.
			debug.FreeOSMemory()
			resetPeakRSS()
			req := rec.newReq()
			t, c := time.Now(), cpuTime()
			out.attempted++
			r, err := resolve(rec, req, js)
			if err != nil {
				return m, err
			}
			run, err := tlssimJSON(rec, req, st, r)
			if err != nil {
				out.fail("%s: %v", js.Benchmark, err)
				continue
			}
			el := time.Since(t)
			passCPU += cpuTime() - c
			peaks[bi] = append(peaks[bi], currentPeakRSSMB())
			lats = append(lats, msOf(el))
			passTime += el
			instrs += run.instrs
			cycles += run.cycles
			simCPU += run.simCPU
			h.Write(run.body)
			if m.passes == 0 {
				m.bodies = append(m.bodies, run.body)
			}
		}
		m.busy += passTime
		rates = append(rates, float64(instrs)/1e6/passCPU.Seconds())
		msPerMcycle = append(msPerMcycle, msOf(simCPU)/(float64(cycles)/1e6))
		d := hex.EncodeToString(h.Sum(nil))
		if m.passes == 0 {
			m.digest = d
		} else if d != m.digest {
			out.fail("pass %d output digest %s differs from pass 1's %s", m.passes+1, short(d), short(m.digest))
		}
		m.passes++
	}
	// Medians over passes, so one pass caught by a slow spell of the host
	// does not set the run's figure.
	m.minstrPerS, m.msPerMcycle = median(rates), median(msPerMcycle)
	// Peak memory is that of one tlssim run: each benchmark's median peak
	// over the passes, averaged over the benchmarks, so neither one pass's
	// garbage-collection timing nor the seed's largest input sets it.
	for _, p := range peaks {
		m.peakMB += median(p) / float64(len(peaks))
	}
	m.p50, m.n = median(lats), len(lats)
	return m, nil
}

// crossCheckTlssim runs the tlssim binary for one seeded benchmark and
// compares its -json bytes with the in-process document.
func crossCheckTlssim(e *env, specs []service.JobSpec, bodies [][]byte, out *outcome) {
	i := int(uint64(e.seed) % uint64(len(specs)))
	if i >= len(bodies) {
		return
	}
	js := specs[i]
	cmd := exec.Command(filepath.Join(e.bin, "tlssim"), "-benchmark", js.Benchmark,
		"-txns", strconv.Itoa(js.Txns), "-warmup", strconv.Itoa(*js.Warmup),
		"-seed", strconv.FormatInt(*js.Seed, 10), "-json")
	cmd.Dir = e.runDir
	got, err := cmd.Output()
	out.attempted++
	if err != nil {
		out.fail("tlssim %s: %v", js.Benchmark, err)
		return
	}
	if !bytes.Equal(got, bodies[i]) {
		out.fail("tlssim -json bytes for %s differ from the in-process document", js.Benchmark)
	}
}

// writeSpans saves a traced run's spans under .bench_build.
func writeSpans(e *env, workload string, rec *recorder) error {
	return rec.write(filepath.Join(e.root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", workload, e.seed)))
}
