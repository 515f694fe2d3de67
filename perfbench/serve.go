package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"subthreads/internal/service"
	"subthreads/internal/telemetry"
)

// The serve workload: one tlsd with -workers nproc and a persistent cache
// directory, restarted once during set-up so part of the population is only
// on disk, under an open loop of four request classes, then a rate ladder.

// mix is the number of requests of each class in a window or ladder step.
type mix struct{ hit, disk, fork, novel int }

func (m mix) total() int { return m.hit + m.disk + m.fork + m.novel }

// mainMix is one main window's requests. The counts, not a rate, are fixed,
// so a window holds the samples its percentiles need whatever its length;
// the offered rate follows from them. interactions.json derives each count
// and the worker-pool load the mix makes.
var mainMix = mix{hit: 1100, disk: 22, fork: 22, novel: 22}

const (
	forkBases    = 3  // stored prefix snapshots the fork variants fork from
	hitSpecs     = 12 // memory-hit population (Zipf popularity)
	ladderStep   = 1500 * time.Millisecond
	coldLimitMs  = 1000.0 // p90 limit on a passing ladder step's simulations
	serveSetups  = 3
	checkSamples = 2 // fork and novel bodies re-rendered in process, each
)

// ladder is the rate ladder after the main window, as multiples of the main
// window's rate. Every novel spec leaves its build in tlsd's memory, so the
// ladder stays short.
var ladder = []float64{2, 4}

// ladderMix is the main mix at k times its rate over one ladder step, with
// its disk-warm share sent as hits (set-up stores one disk set per window).
func ladderMix(k float64, window time.Duration) mix {
	f := k * ladderStep.Seconds() / window.Seconds()
	m := mix{fork: int(math.Round(f * float64(mainMix.fork))), novel: int(math.Round(f * float64(mainMix.novel)))}
	m.hit = int(math.Round(f*float64(mainMix.total()))) - m.fork - m.novel
	return m
}

// serveSpec is one population member.
type serveSpec struct {
	js     service.JobSpec
	body   []byte // JSON request body
	digest string
}

func newServeSpec(bench string, txns int, seed int64, subthreads int, spacing uint64) (*serveSpec, error) {
	warmup := 1
	js := service.JobSpec{Benchmark: bench, Txns: txns, Warmup: &warmup, Seed: &seed, Subthreads: subthreads, Spacing: spacing}
	r, err := js.Resolve()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(js)
	if err != nil {
		return nil, err
	}
	return &serveSpec{js: js, body: body, digest: r.Digest}, nil
}

// cheap are the specs the hit and disk populations draw from: the cheaper
// transactions, so set-up stays short.
var cheap = []struct {
	bench string
	txns  int
}{{"ORDER STATUS", 1}, {"PAYMENT", 1}, {"NEW ORDER", 1}}

// servePopulation is everything set-up computes, and the generators of
// novel specs and fork variants.
type servePopulation struct {
	hits          []*serveSpec
	disk          [][]*serveSpec // per window
	bases         []*serveSpec   // fork bases; their prefix snapshots are stored
	base          int64          // seed space of this run
	novels, forks int
}

func newServePopulation(seed int64, windows int) (*servePopulation, error) {
	p := &servePopulation{base: seed * 100000}
	add := func(dst *[]*serveSpec, c int, s int64) error {
		ss, err := newServeSpec(cheap[c%len(cheap)].bench, cheap[c%len(cheap)].txns, s, 0, 0)
		if err == nil {
			*dst = append(*dst, ss)
		}
		return err
	}
	for i := 0; i < hitSpecs; i++ {
		if err := add(&p.hits, i, p.base+int64(i)); err != nil {
			return nil, err
		}
	}
	for w := 0; w < windows; w++ {
		var disk []*serveSpec
		for i := 0; i < mainMix.disk; i++ {
			if err := add(&disk, i, p.base+1000+int64(w*100+i)); err != nil {
				return nil, err
			}
		}
		p.disk = append(p.disk, disk)
	}
	// The fork bases are the same specs on every seed: a fork variant's cost
	// is its base's run past the prefix, and NEW ORDER's size moves widely
	// from one TPC-C seed to another, so seeded bases would set the window's
	// worker load (and pool_minstr_per_s) more than the program does.
	for k := 0; k < forkBases; k++ {
		b, err := newServeSpec("NEW ORDER", 2, defaultSeed+int64(k), 0, 0)
		if err != nil {
			return nil, err
		}
		p.bases = append(p.bases, b)
	}
	return p, nil
}

// novel returns a spec no daemon has seen: a new workload, so it needs a
// full build and simulation. Every novel spec is one PAYMENT transaction
// (the benchmark whose size moves least with the seed among the cheap
// ones), so the class's latency and cost do not hinge on a mix of very
// different benchmarks.
func (p *servePopulation) novel() (*serveSpec, error) {
	i := p.novels
	p.novels++
	return newServeSpec("PAYMENT", 1, p.base+10000+int64(i), 0, 0)
}

// fork returns a new variant of a fork base: the same workload at a
// sub-thread spacing no request has used, which tlsd forks from the base's
// stored prefix snapshot.
func (p *servePopulation) fork() (*serveSpec, error) {
	i := p.forks
	p.forks++
	b := p.bases[i%len(p.bases)]
	spacing := uint64(1000 + 100*(i/len(p.bases)))
	if spacing >= 5000 {
		spacing += 100 // skip the base's own spacing
	}
	return newServeSpec(b.js.Benchmark, b.js.Txns, *b.js.Seed, 0, spacing)
}

// serveDaemon starts one tlsd over cacheDir.
func serveDaemon(e *env, name, cacheDir, debugAddr string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := []string{"-workers", strconv.Itoa(e.nproc), "-cache-dir", cacheDir,
		"-flight-dir", filepath.Join(e.runDir, "flight")}
	if debugAddr != "" {
		args = append(args, "-debug-addr", debugAddr)
	}
	return startDaemon(e.runDir, name, filepath.Join(e.bin, "tlsd"), addr, args...)
}

// submitWait computes specs on base with ?wait=1 from nproc goroutines and
// returns each body's hash by digest.
func submitWait(client *http.Client, base string, specs []*serveSpec, workers int) (map[string][32]byte, error) {
	out := make(map[string][32]byte, len(specs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	ch := make(chan *serveSpec)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for s := range ch {
				resp, err := client.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(s.body))
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("%s: %s", resp.Status, trimErr(body))
					}
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("populate %s: %w", s.js.Benchmark, err)
				}
				out[s.digest] = sha256.Sum256(body)
				mu.Unlock()
			}
		}()
	}
	for _, s := range specs {
		ch <- s
	}
	close(ch)
	wg.Wait()
	return out, firstErr
}

// serveSetup starts tlsd on a fresh cache, computes the population, restarts
// the daemon (so the disk set and the snapshots live only on disk), and
// re-touches the hit set into memory. It returns the running daemon and the
// hashes of every body computed.
func serveSetup(e *env, client *http.Client, p *servePopulation, dir, debugAddr string) (*daemon, map[string][32]byte, error) {
	cache := filepath.Join(dir, "cache")
	d, err := serveDaemon(e, "tlsd", cache, "")
	if err != nil {
		return nil, nil, err
	}
	all := append(append([]*serveSpec(nil), p.hits...), p.bases...)
	for _, d := range p.disk {
		all = append(all, d...)
	}
	bodies, err := submitWait(client, d.url, all, e.nproc)
	d.stop()
	if err != nil {
		return nil, nil, err
	}
	d, err = serveDaemon(e, "tlsd", cache, debugAddr)
	if err != nil {
		return nil, nil, err
	}
	if _, err := submitWait(client, d.url, p.hits, e.nproc); err != nil {
		d.stop()
		return nil, nil, err
	}
	return d, bodies, nil
}

// serveWindow is one measured window: the main open loop plus the ladder.
type serveWindow struct {
	reqs   []*request
	late   []float64
	steps  []ladderResult
	maxRPS float64
	// poolMinstrPerS is the simulated instructions (committed, main run) the
	// window's simulations delivered per second of worker time, from the
	// daemon's own build/sim/render histograms: the rate the worker pool
	// sustains while busy, independent of how large the seeded specs are.
	poolMinstrPerS float64
}

type ladderResult struct {
	rate      float64
	coldP90   float64
	coldN     int
	backlog   int
	completed int
	pass      bool
}

// planWindow schedules mix m over dur from start: Poisson arrivals, classes
// shuffled over them, hits drawn from a Zipf popularity, disk-warm first
// touches from window w's disk set.
func planWindow(rng *rand.Rand, p *servePopulation, w int, start time.Time, dur time.Duration, m mix, step int) ([]*request, error) {
	var classes []string
	add := func(c string, k int) {
		for i := 0; i < k; i++ {
			classes = append(classes, c)
		}
	}
	add("novel", m.novel)
	add("fork", m.fork)
	add("disk", m.disk)
	add("hit", m.hit)
	rate := float64(len(classes)) / dur.Seconds()
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(p.hits)-1))
	var reqs []*request
	at := start
	di := 0
	for _, c := range classes {
		at = at.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		var s *serveSpec
		var err error
		switch c {
		case "hit":
			s = p.hits[zipf.Uint64()]
		case "disk":
			s, di = p.disk[w][di], di+1
		case "fork":
			s, err = p.fork()
		case "novel":
			s, err = p.novel()
		}
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, &request{class: c, step: step, spec: s.body, digest: s.digest, due: at})
	}
	return reqs, nil
}

// runServeWindow drives one main window and the ladder against d.
func runServeWindow(e *env, rec *recorder, client *http.Client, d *daemon, p *servePopulation, w int, bodies map[string][32]byte) (*serveWindow, error) {
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(w)))
	first := make(map[string][32]byte, len(bodies))
	for k, v := range bodies {
		first[k] = v
	}
	sw := &serveWindow{}
	planned := time.Now()
	start := planned
	reqs, err := planWindow(rng, p, w, start, e.window, mainMix, 0)
	if err != nil {
		return nil, err
	}
	at := start.Add(e.window)
	for i, k := range ladder {
		step, err := planWindow(rng, p, w, at, ladderStep, ladderMix(k, e.window), i+1)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, step...)
		at = at.Add(ladderStep)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due.Before(reqs[j].due) })
	// Planning resolved every novel spec; the schedule starts after it.
	shift := time.Since(planned) + 20*time.Millisecond
	start = start.Add(shift)
	for _, r := range reqs {
		r.due = r.due.Add(shift)
		r.req = rec.newReq()
	}
	// The daemon's counters before and after the loop give the worker pool's
	// busy time over exactly the simulations the loop submitted.
	var m0, m1 service.Metrics
	if err := getJSON(client, d.url+"/metrics", &m0); err != nil {
		return nil, err
	}
	l := runOpenLoop(d.url, client, rec, e.nproc, reqs, first)
	if err := getJSON(client, d.url+"/metrics", &m1); err != nil {
		return nil, err
	}
	sw.reqs, sw.late = reqs, l.late
	var instrs uint64
	for _, r := range reqs {
		if (r.class == "novel" || r.class == "fork") && r.err == "" {
			var doc struct {
				CommittedInstrs uint64 `json:"committed_instrs"`
			}
			if err := json.Unmarshal(r.body, &doc); err != nil {
				r.err = fmt.Sprintf("result document: %v", err)
				continue
			}
			instrs += doc.CommittedInstrs
		}
	}
	busy := func(m *service.Metrics) uint64 {
		return m.BuildLatencyMicros.Sum + m.SimLatencyMicros.Sum + m.RenderLatencyMicros.Sum
	}
	if b := busy(&m1) - busy(&m0); b > 0 {
		sw.poolMinstrPerS = float64(instrs) / 1e6 / (float64(b) / 1e6 / float64(e.nproc))
	}

	// Ladder verdicts: a step passes when its simulations' p90 stays under
	// the limit and the simulation backlog did not grow over the step.
	stepEnd := start.Add(e.window)
	mainRate := float64(mainMix.total()) / e.window.Seconds()
	passing := true
	for i := 0; i <= len(ladder); i++ {
		lo, hi := start, stepEnd
		rate := mainRate
		if i > 0 {
			lo = stepEnd.Add(time.Duration(i-1) * ladderStep)
			hi = lo.Add(ladderStep)
			rate = mainRate * ladder[i-1]
		}
		var cold []float64
		backlogStart, backlogEnd, completed := 0, 0, 0
		for _, r := range reqs {
			sim := r.class == "novel" || r.class == "fork"
			if r.step == i && sim && r.err == "" {
				cold = append(cold, msOf(r.latency()))
			}
			if sim && r.due.Before(lo) && (r.done.IsZero() || r.done.After(lo)) {
				backlogStart++
			}
			if sim && r.due.Before(hi) && (r.done.IsZero() || r.done.After(hi)) {
				backlogEnd++
			}
			if sim && !r.done.IsZero() && !r.done.Before(lo) && r.done.Before(hi) {
				completed++
			}
		}
		lr := ladderResult{rate: rate, coldN: len(cold), backlog: backlogEnd - backlogStart, completed: completed}
		lr.coldP90 = percentile(cold, 90)
		lr.pass = len(cold) > 0 && lr.coldP90 <= coldLimitMs && lr.backlog <= e.nproc
		passing = passing && lr.pass
		if passing {
			sw.maxRPS = rate
		}
		sw.steps = append(sw.steps, lr)
	}
	return sw, nil
}

func runServe(e *env) (*outcome, error) {
	out := newOutcome()
	client := newClient(e.nproc)
	windows := 1
	if e.traced {
		windows = 2
	}
	p, err := newServePopulation(e.seed, windows)
	if err != nil {
		return nil, err
	}
	debugAddr := ""
	if e.traced {
		if debugAddr, err = freeAddr(); err != nil {
			return nil, err
		}
	}

	// Set-up, three times on fresh caches; the last daemon is measured.
	var setups []float64
	var d *daemon
	var bodies map[string][32]byte
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
		}
		dir := filepath.Join(e.runDir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		da := ""
		if i == serveSetups-1 {
			da = debugAddr
		}
		if d, bodies, err = serveSetup(e, client, p, dir, da); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))
	out.digest = bodiesDigest(bodies)

	sw, err := runServeWindow(e, nil, client, d, p, 0, bodies)
	if err != nil {
		d.stop()
		return nil, err
	}
	m := serveMetrics(out, sw)

	var tr *serveWindow
	var prof []byte
	var metrics service.Metrics
	rec := newRecorder()
	if e.traced {
		ctx, cancel := context.WithCancel(context.Background())
		profCh := make(chan []byte, 1)
		go func() {
			b, err := cpuProfile(ctx, "http://"+debugAddr, int(e.window.Seconds()))
			if err != nil {
				b = nil
			}
			profCh <- b
		}()
		tr, err = runServeWindow(e, rec, client, d, p, 1, bodies)
		cancel()
		prof = <-profCh
		if err != nil {
			d.stop()
			return nil, err
		}
		if err := getJSON(client, d.url+"/metrics", &metrics); err != nil {
			d.stop()
			return nil, err
		}
	}
	out.set("peak_rss_mb", d.stop(), 1)

	// Correctness after the window: a seeded sample of fork and novel bodies
	// must equal the in-process rendering of the same spec.
	st := &layerStats{}
	checkInProcess(e, out, rec, st, sw.reqs, []string{"fork", "novel"})

	if e.traced {
		traced := newOutcome()
		mt := serveMetrics(traced, tr)
		out.absorb(traced)
		for k, v := range m {
			if v != 0 {
				out.overhead[k] = mt[k]/v - 1
			}
		}
		if err := commonLayers(out, rec, st); err != nil {
			return nil, err
		}
		serveLayers(out, tr, &metrics)
		if prof == nil {
			return nil, fmt.Errorf("no CPU profile from tlsd")
		}
		if err := foldInto(out, prof); err != nil {
			return nil, err
		}
		if err := writeSpans(e, "serve", rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serveMetrics fills the serve end-to-end metrics from a window and counts
// its operations; it returns the values for the overhead comparison.
func serveMetrics(out *outcome, sw *serveWindow) map[string]float64 {
	byClass := map[string][]float64{}
	for _, r := range sw.reqs {
		out.attempted++
		if r.err != "" {
			out.fail("%s request: %s", r.class, r.err)
			continue
		}
		if r.step == 0 {
			byClass[r.class] = append(byClass[r.class], msOf(r.latency()))
		}
	}
	vals := map[string]float64{}
	put := func(name string, xs []float64, p float64) {
		if !reportable(len(xs), p) {
			out.note("%s not reported: %d samples leave fewer than ten beyond p%g", name, len(xs), p)
			return
		}
		v := median(xs)
		if p != 50 {
			v = percentile(xs, p)
		}
		out.set(name, v, len(xs))
		vals[name] = v
	}
	put("hit_p50_ms", byClass["hit"], 50)
	put("hit_p99_ms", byClass["hit"], 99)
	put("disk_p50_ms", byClass["disk"], 50)
	put("fork_p50_ms", byClass["fork"], 50)
	put("cold_p50_ms", byClass["novel"], 50)
	put("cold_p90_ms", byClass["novel"], 90)
	out.set("max_rps", sw.maxRPS, len(sw.steps))
	out.set("pool_minstr_per_s", sw.poolMinstrPerS, len(byClass["novel"])+len(byClass["fork"]))
	vals["pool_minstr_per_s"] = sw.poolMinstrPerS
	for _, s := range sw.steps {
		out.note("ladder %.0f req/s: cold p90 %.1f ms (n=%d), backlog %+d, %d simulations completed, pass=%v",
			s.rate, s.coldP90, s.coldN, s.backlog, s.completed, s.pass)
	}
	out.note("generator late p99 %.2f ms, max %.2f ms over %d sends", percentile(sw.late, 99), maxOf(sw.late), len(sw.late))
	return vals
}

// checkInProcess renders a seeded sample of the window's bodies of the given
// classes in process and compares bytes.
func checkInProcess(e *env, out *outcome, rec *recorder, st *layerStats, reqs []*request, classes []string) {
	rng := rand.New(rand.NewSource(e.seed))
	for _, c := range classes {
		var pool []*request
		for _, r := range reqs {
			if r.class == c && r.err == "" && r.body != nil {
				pool = append(pool, r)
			}
		}
		for i := 0; i < checkSamples && len(pool) > 0; i++ {
			j := rng.Intn(len(pool))
			r := pool[j]
			pool = append(pool[:j], pool[j+1:]...)
			var js service.JobSpec
			out.attempted++
			if err := json.Unmarshal(r.spec, &js); err != nil {
				out.fail("check %s: %v", c, err)
				continue
			}
			req := rec.newReq()
			res, err := resolve(rec, req, js)
			if err != nil {
				out.fail("check %s: %v", c, err)
				continue
			}
			want, err := tlssimJSON(rec, req, st, res)
			if err != nil {
				out.fail("check %s: %v", c, err)
				continue
			}
			if !bytes.Equal(want.body, r.body) {
				out.fail("served %s body for %s differs from the in-process rendering", c, js.Benchmark)
			}
		}
	}
}

// serveLayers adds the serving-side per-layer metrics from the traced window
// and the daemon's own /metrics.
func serveLayers(out *outcome, sw *serveWindow, m *service.Metrics) {
	h := histLayer(out)
	h("service.queue_wait_ms", "ms", m.QueueWaitMicros, 1e-3)
	h("service.build_ms", "ms", m.BuildLatencyMicros, 1e-3)
	h("service.sim_ms", "ms", m.SimLatencyMicros, 1e-3)
	h("service.render_ms", "ms", m.RenderLatencyMicros, 1e-3)
	h("service.memory_hit_us", "us", m.HitLatencyMicros, 1)
	h("service.disk_hit_us", "us", m.DiskHitLatencyMicros, 1)
	var hits []float64
	for _, r := range sw.reqs {
		if r.class == "hit" && r.err == "" && r.step == 0 {
			hits = append(hits, msOf(r.latency()))
		}
	}
	out.layer("service.http_us", "us", 1000*median(hits)-m.HitLatencyMicros.Mean, len(hits))
	out.layer("service.jobs_forked", "count", float64(m.JobsForked), 1)
	out.layer("service.jobs_replayed", "count", float64(m.JobsReplayed), 1)
	out.layer("service.rejected", "count", float64(m.JobsRejected+m.JobsRejectedDeadline+m.JobsRejectedPoisoned), 1)
	if m.CAS != nil {
		h("cas.load_ms", "ms", m.CAS.LoadMicros, 1e-3)
		h("cas.store_ms", "ms", m.CAS.StoreMicros, 1e-3)
		out.layer("cas.hits", "count", float64(m.CAS.Hits), 1)
		out.layer("cas.misses", "count", float64(m.CAS.Misses), 1)
	}
	out.layer("loadgen.late_p99_ms", "ms", percentile(sw.late, 99), len(sw.late))
	out.layer("loadgen.late_max_ms", "ms", maxOf(sw.late), len(sw.late))
}

// histLayer returns a helper that reports a daemon histogram's mean as a
// per-layer metric, scaled from microseconds.
func histLayer(out *outcome) func(name, unit string, hs telemetry.HistogramSnapshot, scale float64) {
	return func(name, unit string, hs telemetry.HistogramSnapshot, scale float64) {
		out.layer(name, unit, hs.Mean*scale, int(hs.Count))
	}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// bodiesDigest identifies a population's computed bodies: SHA-256 over the
// sorted (digest, body hash) pairs.
func bodiesDigest(bodies map[string][32]byte) string {
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		v := bodies[k]
		h.Write([]byte(k))
		h.Write(v[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
