package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"

	"subthreads/internal/service"
	"subthreads/internal/sim"
	"subthreads/internal/tpcc"
	"subthreads/internal/workload"
)

// sweepPin is the SHA-256 of the sweep's standard output at the default seed.
const sweepPin = "cafeb2aa7c498d2fc7b61bb7383c4f5739a84026df958514664640c419a0ec16"

// sweepTasks is the number of simulation tasks one figure5+figure6 suite
// requests (35 + 80).
const sweepTasks = 115

var progressLine = regexp.MustCompile(`(?m)^(figure[56]): (\d+) simulations in (\S+) \(j=\d+\)$`)

// runSweep is the sweep workload: the paper's evaluation path as a batch
// process, `experiments -figure5 -figure6 -txns 3 -warmup 1 -j <nproc>`,
// repeated until the window has elapsed (at least once). It always runs the
// repository's evaluation seed: a suite's work moves by a fifth from one
// TPC-C seed to the next, which would drown a change in the spread, and at
// this seed every suite's output is checked against the pin.
func runSweep(e *env) (*outcome, error) {
	out := newOutcome()
	seed := strconv.FormatInt(defaultSeed, 10)

	// Set-up: a small suite of the same binary at the same scale (Table 2
	// for the cheapest benchmark, two simulations), five times; the median
	// is reported.
	var setups []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		cmd := exec.Command(filepath.Join(e.bin, "experiments"), "-table2", "-benchmark", "ORDER STATUS",
			"-txns", "3", "-warmup", "1", "-seed", seed, "-j", "1")
		cmd.Dir = e.runDir
		if b, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("set-up suite: %v: %s", err, trimErr(b))
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))

	var walls, fig5, fig6, cpu []float64
	var peak float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < e.window {
		cmd := exec.Command(filepath.Join(e.bin, "experiments"), "-figure5", "-figure6",
			"-txns", "3", "-warmup", "1", "-seed", seed, "-j", strconv.Itoa(e.nproc))
		cmd.Dir = e.runDir
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		t := time.Now()
		err := cmd.Run()
		wall := time.Since(t)
		out.attempted++
		if err != nil {
			out.fail("suite %d: %v: %s", len(walls)+1, err, trimErr(stderr.Bytes()))
			continue
		}
		walls = append(walls, wall.Seconds())
		h := sha256.Sum256(stdout.Bytes())
		d := hex.EncodeToString(h[:])
		if out.digest == "" {
			out.digest = d
		} else if d != out.digest {
			out.fail("suite %d stdout digest %s differs from suite 1's %s", len(walls), short(d), short(out.digest))
		}
		tasks := 0
		for _, m := range progressLine.FindAllStringSubmatch(stderr.String(), -1) {
			n, _ := strconv.Atoi(m[2])
			tasks += n
			dur, err := time.ParseDuration(m[3])
			if err != nil {
				continue
			}
			if m[1] == "figure5" {
				fig5 = append(fig5, dur.Seconds())
			} else {
				fig6 = append(fig6, dur.Seconds())
			}
		}
		if tasks != sweepTasks {
			out.fail("suite %d reported %d simulation tasks, want %d", len(walls), tasks, sweepTasks)
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			cpu = append(cpu, tv(ru.Utime)+tv(ru.Stime))
		}
		peak = max(peak, peakRSSMB(cmd.ProcessState))
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no suite completed")
	}
	out.set("sweep_s", median(walls), len(walls))
	out.set("tasks_per_s", float64(sweepTasks*len(walls))/sum(walls), len(walls))
	out.set("peak_rss_mb", peak, len(walls))
	out.attempted++
	if out.digest != sweepPin {
		out.fail("sweep stdout digest %s differs from the pinned %s", short(out.digest), short(sweepPin))
	}

	if e.traced {
		// The suite runs in its own process with no profiling flag, so its
		// layers come from its own progress lines and resource usage...
		out.layer("experiments.figure5_s", "s", median(fig5), len(fig5))
		out.layer("experiments.figure6_s", "s", median(fig6), len(fig6))
		out.layer("experiments.cpu_s", "s", median(cpu), len(cpu))
		out.layer("experiments.parallel_util", "ratio", median(cpu)/(median(walls)*float64(e.nproc)), len(cpu))
		// ...and the simulator layers from an in-process replay of one prefix
		// group per benchmark through the same public calls.
		if err := replayPrefixGroups(e, out); err != nil {
			return nil, err
		}
		out.note("tracing overhead: none by construction; the suite runs untraced in its own process")
	}
	return out, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// replayPrefixGroups replays, for each Figure 6 benchmark, one prefix group
// the way the experiments runner does: one capture run with a prefix
// snapshot, then forks of every other sub-thread configuration from the
// encoded and decoded snapshot. One forked configuration is also run in full
// and both documents must be byte-identical.
func replayPrefixGroups(e *env, out *outcome) error {
	rec, st := newRecorder(), &layerStats{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	err := replayGroups(e, rec, st, out)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := commonLayers(out, rec, st); err != nil {
		return err
	}
	if err := foldInto(out, prof.Bytes()); err != nil {
		return err
	}
	enc, dec, res := rec.durations("sim.Snapshot.Encode"), rec.durations("sim.DecodeSnapshot"), rec.durations("sim.ResumeE")
	out.layer("sim.snapshot_encode_ms", "ms", median(enc), len(enc))
	out.layer("sim.snapshot_decode_ms", "ms", median(dec), len(dec))
	out.layer("sim.resume_ms", "ms", median(res), len(res))
	return writeSpans(e, "sweep", rec)
}

func replayGroups(e *env, rec *recorder, st *layerStats, out *outcome) error {
	counts := []int{2, 4, 8}
	sizes := []uint64{1000, 2500, 5000, 10000, 50000}
	var snapBytes []float64
	var resumeSum, fullSum time.Duration
	for _, b := range tpcc.TLSProfitable() {
		st.lastBuilt = st.lastBuilt[:0]
		req := rec.newReq()
		warmup, seed := 1, int64(defaultSeed)
		var rs []*service.Resolved
		for _, n := range counts {
			for _, size := range sizes {
				r, err := resolve(rec, req, service.JobSpec{Benchmark: b.String(), Txns: 3, Warmup: &warmup,
					Seed: &seed, Subthreads: n, Spacing: size})
				if err != nil {
					return err
				}
				rs = append(rs, r)
			}
		}
		seqBuilt := build(rec, req, 0, st, rs[0].Spec, true)
		seqRes, _, err := simulate(rec, req, 0, st, workload.Machine(workload.Sequential), seqBuilt.Program)
		if err != nil {
			return err
		}
		built := build(rec, req, 0, st, rs[0].Spec, false)

		// Capture: the first configuration runs in full and snapshots at the
		// end of the leading barrier prefix.
		var snap *sim.Snapshot
		capCfg := rs[0].Cfg
		capCfg.SnapshotAtPrefix = true
		capCfg.SnapshotSink = func(s *sim.Snapshot) { snap = s }
		capRes, _, err := simulate(rec, req, 0, st, capCfg, built.Program)
		out.attempted++
		if err != nil {
			out.fail("%s capture: %v", b, err)
			continue
		}
		if _, err := render(rec, req, 0, rs[0], built, capRes, seqRes); err != nil {
			return err
		}
		if snap == nil || !snap.Forkable {
			out.fail("%s: capture run produced no forkable snapshot", b)
			continue
		}
		var frame []byte
		rec.do("sim.Snapshot.Encode", req, 0, func(uint64) { frame = snap.Encode() })
		snapBytes = append(snapBytes, float64(len(frame)))

		// Forks: every other configuration resumes from the decoded frame.
		for i, r := range rs[1:] {
			var res *sim.Result
			var resumed time.Duration
			rec.do("sim.fork", req, 0, func(id uint64) {
				var s *sim.Snapshot
				rec.do("sim.DecodeSnapshot", req, id, func(uint64) { s, err = sim.DecodeSnapshot(frame) })
				if err != nil {
					return
				}
				t := time.Now()
				rec.do("sim.ResumeE", req, id, func(uint64) { res, err = sim.ResumeE(r.Cfg, built.Program, s) })
				resumed = time.Since(t)
			})
			out.attempted++
			if err != nil {
				out.fail("%s fork %d: %v", b, i+1, err)
				continue
			}
			st.addResult(res, built.Program)
			forked, err := render(rec, req, 0, r, built, res, seqRes)
			if err != nil {
				return err
			}
			if i > 0 {
				continue
			}
			// Fork contract: the first forked document equals the full run's.
			fullRes, fullDur, err := simulate(rec, req, 0, st, r.Cfg, built.Program)
			out.attempted++
			if err != nil {
				out.fail("%s full run: %v", b, err)
				continue
			}
			whole, err := render(rec, req, 0, r, built, fullRes, seqRes)
			if err != nil {
				return err
			}
			if !bytes.Equal(forked, whole) {
				out.fail("%s: forked document differs from the full run's", b)
			}
			resumeSum += resumed
			fullSum += fullDur
		}
	}
	if fullSum > 0 {
		out.layer("sim.fork_saving", "ratio", 1-resumeSum.Seconds()/fullSum.Seconds(), len(snapBytes))
	}
	out.layer("sim.snapshot_bytes", "B", median(snapBytes), len(snapBytes))
	return nil
}
