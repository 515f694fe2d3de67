package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Compare mode: two result sets (the .bench_build/results.jsonl files of two
// checkouts), one row per (end-to-end metric, workload) with each side's
// median, quartiles and sample count, and a verdict under the benchmark's
// bounds:
//
//   - worse: the new median is worse by more than the bound, and the spread
//     of both sides is within the bound (or every new run is worse);
//   - better: the new median is better by more than the old side's spread
//     and the new side wins at least nine in ten paired runs;
//   - unresolved: the spread is wider than the bound;
//   - same: otherwise.
//
// fail_ratio gets a row per workload too; a differing output digest for a
// seed both sides ran counts as a failure of the new side.

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Traced {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// otherBound is the regression bound of the end-to-end metrics that fill no
// BENCHMARK.json slot: the bound BENCHMARK.json gives its own.
const otherBound = 0.25

// boundFor is the regression bound of metric on workload: the bound of the
// BENCHMARK.json metric it fills, else otherBound.
func boundFor(bf *benchmarkFile, wl, metric string) float64 {
	if bf != nil {
		for _, m := range bf.EndToEnd {
			src := m.Name
			if byWl, ok := slots[m.Name]; ok {
				src = byWl[wl].metric
			}
			if src == metric {
				return m.Bound
			}
		}
	}
	return otherBound
}

type side struct {
	vals  []float64
	seeds []int64
}

func (s side) spread() float64 {
	q1, med, q3 := quartiles(s.vals)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

func compare(w io.Writer, root, oldPath, newPath string) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		bf = nil // compare still works with the built-in bounds
	}
	olds, err := readRecords(oldPath)
	if err != nil {
		return err
	}
	news, err := readRecords(newPath)
	if err != nil {
		return err
	}
	wls := map[string]bool{}
	for _, r := range append(append([]record(nil), olds...), news...) {
		wls[r.Workload] = true
	}
	names := make([]string, 0, len(wls))
	for n := range wls {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-16s %-8s %30s %30s %8s %6s  %s\n", "metric", "workload", "old median [q1 q3] n", "new median [q1 q3] n", "delta", "bound", "verdict")
	for _, wl := range names {
		collect := func(rs []record, metric string) side {
			var s side
			for _, r := range rs {
				if v, ok := r.Metrics[metric]; r.Workload == wl && ok {
					s.vals = append(s.vals, v.Value)
					s.seeds = append(s.seeds, r.Seed)
				}
			}
			return s
		}
		for _, d := range e2eDefs {
			if d.name == "fail_ratio" {
				continue
			}
			o, n := collect(olds, d.name), collect(news, d.name)
			if len(o.vals) == 0 && len(n.vals) == 0 {
				continue
			}
			bound := boundFor(bf, wl, d.name)
			verdict, delta := judge(o, n, d.better, bound)
			fmt.Fprintf(w, "%-16s %-8s %30s %30s %+7.1f%% %6.2f  %s\n", d.name, wl, summary(o), summary(n), 100*delta, bound, verdict)
		}
		of, oa, _ := failures(olds, wl, nil)
		nf, na, mism := failures(news, wl, olds)
		verdict := "same"
		if nf+mism > 0 {
			verdict = "worse"
		}
		fmt.Fprintf(w, "%-16s %-8s %30s %30s %8s %6s  %s", "fail_ratio", wl,
			fmt.Sprintf("%d/%d", of, oa), fmt.Sprintf("%d/%d", nf+mism, na), "", "0", verdict)
		if mism > 0 {
			fmt.Fprintf(w, " (%d output digest mismatches)", mism)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func summary(s side) string {
	if len(s.vals) == 0 {
		return "-"
	}
	q1, med, q3 := quartiles(s.vals)
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", med, q1, q3, len(s.vals))
}

// judge returns the verdict and the relative change of the new median
// (positive = larger).
func judge(o, n side, better string, bound float64) (string, float64) {
	if len(o.vals) == 0 || len(n.vals) == 0 {
		return "unresolved (one side has no runs)", 0
	}
	om, nm := median(o.vals), median(n.vals)
	if om == 0 {
		return "unresolved (old median is 0)", 0
	}
	delta := (nm - om) / om
	worse := delta // share by which the new side is worse
	if better == "higher" {
		worse = -delta
	}
	spread := max(o.spread(), n.spread())
	beats := func(a, b float64) bool {
		if better == "higher" {
			return a > b
		}
		return a < b
	}
	allWorse := true
	for _, x := range n.vals {
		for _, y := range o.vals {
			allWorse = allWorse && beats(y, x)
		}
	}
	switch {
	case worse > bound && (spread <= bound || allWorse):
		return "worse", delta
	case -worse > o.spread() && winShare(o, n, beats) >= 0.9:
		return "better", delta
	case spread > bound:
		return "unresolved", delta
	}
	return "same", delta
}

// winShare pairs runs by seed (by position when the seeds differ) and
// returns the share of pairs the new side wins; ties count for neither.
func winShare(o, n side, beats func(a, b float64) bool) float64 {
	oldBySeed := map[int64]float64{}
	for i, s := range o.seeds {
		oldBySeed[s] = o.vals[i]
	}
	wins, pairs := 0, 0
	for i, s := range n.seeds {
		ov, ok := oldBySeed[s]
		if !ok {
			if i >= len(o.vals) {
				continue
			}
			ov = o.vals[i]
		}
		pairs++
		if beats(n.vals[i], ov) {
			wins++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(wins) / float64(pairs)
}

// failures sums failed and attempted operations of wl's runs and, when ref
// is given, counts seeds whose output digest differs from ref's.
func failures(rs []record, wl string, ref []record) (failed, attempted, mismatches int) {
	refDigest := map[int64]string{}
	for _, r := range ref {
		if r.Workload == wl && r.Digest != "" {
			refDigest[r.Seed] = r.Digest
		}
	}
	for _, r := range rs {
		if r.Workload != wl {
			continue
		}
		failed += r.Failed
		attempted += r.Attempted
		if d, ok := refDigest[r.Seed]; ok && r.Digest != "" && d != r.Digest {
			mismatches++
		}
	}
	return failed, attempted, mismatches
}
