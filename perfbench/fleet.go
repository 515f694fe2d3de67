package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"subthreads/internal/cluster"
	"subthreads/internal/service"
)

// The fleet workload: two peered tlsd behind tlsrouter, driven by a closed
// loop of nproc connections over a Zipf digest population. Spread over the
// window are first touches of digests that set-up computed on the non-owner
// node, which the owner serves through its remote tier.

const (
	fleetHits    = 16 // hit population
	fleetRemotes = 22 // owner-miss first touches per window
	fleetSetups  = 3
)

type fleet struct {
	nodes  []*daemon
	router *daemon
	ring   *cluster.Ring
	dbg    []string // debug (pprof) addresses of the nodes, traced runs only
}

// stop stops every process started so far and returns their summed peak
// resident memory in MB.
func (f *fleet) stop() float64 {
	rss := f.router.stop()
	for _, n := range f.nodes {
		rss += n.stop()
	}
	return rss
}

// startFleet starts two tlsd, each peered with the other, and the router.
func startFleet(e *env, dir string, traced bool) (*fleet, error) {
	addrs := make([]string, 2)
	urls := make([]string, 2)
	for i := range addrs {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i], urls[i] = a, "http://"+a
	}
	f := &fleet{}
	for i, a := range addrs {
		args := []string{"-cache-dir", filepath.Join(dir, fmt.Sprintf("cache%d", i)),
			"-flight-dir", filepath.Join(dir, "flight"), "-peers", urls[1-i]}
		if traced {
			da, err := freeAddr()
			if err != nil {
				f.stop()
				return nil, err
			}
			args = append(args, "-debug-addr", da)
			f.dbg = append(f.dbg, "http://"+da)
		}
		d, err := startDaemon(dir, fmt.Sprintf("tlsd%d", i), filepath.Join(e.bin, "tlsd"), a, args...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, d)
	}
	ra, err := freeAddr()
	if err != nil {
		f.stop()
		return nil, err
	}
	if f.router, err = startDaemon(dir, "tlsrouter", filepath.Join(e.bin, "tlsrouter"), ra,
		"-workers", urls[0]+","+urls[1]); err != nil {
		f.stop()
		return nil, err
	}
	// The router's ring, rebuilt here with the defaults tlsrouter also uses,
	// names each digest's owner.
	if f.ring, err = cluster.NewRing(urls, 0, 0); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// fleetPopulation is the hit set and, per window, the owner-miss set.
type fleetPopulation struct {
	hits    []*serveSpec
	remotes [][]*serveSpec
}

func newFleetPopulation(seed int64, windows int) (*fleetPopulation, error) {
	p := &fleetPopulation{}
	base := seed*100000 + 50000
	for i := 0; i < fleetHits; i++ {
		c := cheap[i%len(cheap)]
		s, err := newServeSpec(c.bench, c.txns, base+int64(i), 0, 0)
		if err != nil {
			return nil, err
		}
		p.hits = append(p.hits, s)
	}
	for w := 0; w < windows; w++ {
		var rs []*serveSpec
		for i := 0; i < fleetRemotes; i++ {
			c := cheap[i%len(cheap)]
			s, err := newServeSpec(c.bench, c.txns, base+1000+int64(w*100+i), 0, 0)
			if err != nil {
				return nil, err
			}
			rs = append(rs, s)
		}
		p.remotes = append(p.remotes, rs)
	}
	return p, nil
}

// fleetSetup starts the fleet on fresh caches, computes the hit set through
// the router (so each digest lives on its owner) and the owner-miss sets
// directly on each digest's non-owner.
func fleetSetup(e *env, client *http.Client, p *fleetPopulation, dir string, traced bool) (*fleet, map[string][32]byte, error) {
	f, err := startFleet(e, dir, traced)
	if err != nil {
		return nil, nil, err
	}
	bodies, err := submitWait(client, f.router.url, p.hits, e.nproc)
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	for _, rs := range p.remotes {
		for i, n := range f.nodes {
			var mine []*serveSpec
			for _, s := range rs {
				if owner, _ := f.ring.Owner(s.digest); owner != n.url {
					mine = append(mine, s)
				}
			}
			b, err := submitWait(client, f.nodes[i].url, mine, e.nproc)
			if err != nil {
				f.stop()
				return nil, nil, err
			}
			for k, v := range b {
				bodies[k] = v
			}
		}
	}
	return f, bodies, nil
}

// fleetResult is one closed-loop window. Latencies are filed by the tier
// each response names (X-Cache-Tier), not by the class the request was sent
// as.
type fleetResult struct {
	hit, remote []float64
	reqs        []*request // remote-tier requests, kept for the in-process check
	perSecond   []int      // requests completed in each whole second of the window
	completed   int
	attempted   int
	spilled     int // answered by the non-owner under the ring's bounded-load rule
	errs        []string
}

// fleetTier is the tier a digest's owner must answer each class from: the
// hit set lives in its owner's memory, and the owner-miss set only on the
// other node.
var fleetTier = map[string]string{"hit": service.TierMemory, "remote": service.TierRemote}

// runFleetWindow drives the closed loop through the router for the window.
func runFleetWindow(e *env, rec *recorder, client *http.Client, f *fleet, p *fleetPopulation, w int, bodies map[string][32]byte) *fleetResult {
	res := &fleetResult{perSecond: make([]int, int(e.window/time.Second))}
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(e.seed*31 + int64(w)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(p.hits)-1))
	remotes := p.remotes[w]
	start := time.Now()
	nextRemote := 0
	// pick returns the next request: an owner-miss first touch once its slot
	// in the window has come, a Zipf-popular hit otherwise.
	pick := func() (*serveSpec, string) {
		mu.Lock()
		defer mu.Unlock()
		due := time.Duration(nextRemote) * e.window / time.Duration(len(remotes)+1)
		if nextRemote < len(remotes) && time.Since(start) >= due {
			nextRemote++
			return remotes[nextRemote-1], "remote"
		}
		return p.hits[zipf.Uint64()], "hit"
	}
	var wg sync.WaitGroup
	wg.Add(e.nproc)
	for range e.nproc {
		go func() {
			defer wg.Done()
			for time.Since(start) < e.window {
				s, class := pick()
				req := rec.newReq()
				t := time.Now()
				resp, err := client.Post(f.router.url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(s.body))
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil && resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("%s: %s", resp.Status, trimErr(body))
					}
				}
				end := time.Now()
				rec.add("http POST /v1/jobs via router "+class, req, t, end)
				var tier string
				var byOwner bool
				if err == nil {
					tier = resp.Header.Get("X-Cache-Tier")
					owner, _ := f.ring.Owner(s.digest)
					byOwner = resp.Header.Get("X-Served-By") == owner
				}
				mu.Lock()
				res.attempted++
				switch {
				case err != nil:
					res.errs = append(res.errs, fmt.Sprintf("%s: %v", class, err))
				case tier != service.TierMemory && tier != service.TierRemote:
					res.errs = append(res.errs, fmt.Sprintf("%s request answered from tier %q, want a stored hit", class, tier))
				case byOwner && tier != fleetTier[class]:
					res.errs = append(res.errs, fmt.Sprintf("owner answered a %s request from the %s tier, want %s", class, tier, fleetTier[class]))
				case sha256.Sum256(body) != bodies[s.digest]:
					res.errs = append(res.errs, fmt.Sprintf("%s body for %s differs from the body set-up computed", class, s.js.Benchmark))
				default:
					res.completed++
					if !byOwner {
						res.spilled++
					}
					if sec := int(end.Sub(start) / time.Second); sec < len(res.perSecond) {
						res.perSecond[sec]++
					}
					d := msOf(end.Sub(t))
					if tier == service.TierMemory {
						res.hit = append(res.hit, d)
					} else {
						res.remote = append(res.remote, d)
						res.reqs = append(res.reqs, &request{class: "remote", spec: s.body, body: body})
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

func runFleet(e *env) (*outcome, error) {
	out := newOutcome()
	client := newClient(e.nproc)
	windows := 1
	if e.traced {
		windows = 2
	}
	p, err := newFleetPopulation(e.seed, windows)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var f *fleet
	var bodies map[string][32]byte
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			f.stop()
		}
		dir := filepath.Join(e.runDir, fmt.Sprintf("setup%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t := time.Now()
		if f, bodies, err = fleetSetup(e, client, p, dir, e.traced && i == fleetSetups-1); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	out.set("setup_s", median(setups), len(setups))
	out.digest = bodiesDigest(bodies)

	r := runFleetWindow(e, nil, client, f, p, 0, bodies)
	m := fleetMetrics(out, r)

	rec := newRecorder()
	var tr *fleetResult
	var profs [][]byte
	var nodeMetrics []service.Metrics
	var routerMetrics cluster.RouterMetrics
	if e.traced {
		profs = make([][]byte, len(f.dbg))
		var wg sync.WaitGroup
		ctx, cancel := context.WithCancel(context.Background())
		for i, u := range f.dbg {
			wg.Add(1)
			go func(i int, u string) {
				defer wg.Done()
				profs[i], _ = cpuProfile(ctx, u, int(e.window.Seconds()))
			}(i, u)
		}
		tr = runFleetWindow(e, rec, client, f, p, 1, bodies)
		wg.Wait()
		cancel()
		for _, n := range f.nodes {
			var nm service.Metrics
			if err := getJSON(client, n.url+"/metrics", &nm); err != nil {
				f.stop()
				return nil, err
			}
			nodeMetrics = append(nodeMetrics, nm)
		}
		if err := getJSON(client, f.router.url+"/metrics", &routerMetrics); err != nil {
			f.stop()
			return nil, err
		}
	}
	out.set("peak_rss_mb", f.stop(), len(f.nodes)+1)

	// A seeded sample of the owner-miss bodies must equal the in-process
	// rendering of the same spec.
	st := &layerStats{}
	checkInProcess(e, out, rec, st, r.reqs, []string{"remote"})

	if e.traced {
		traced := newOutcome()
		mt := fleetMetrics(traced, tr)
		out.absorb(traced)
		for k, v := range m {
			if v != 0 {
				out.overhead[k] = mt[k]/v - 1
			}
		}
		if err := commonLayers(out, rec, st); err != nil {
			return nil, err
		}
		fleetLayers(out, rec, f, p, tr, nodeMetrics, &routerMetrics)
		for i, pr := range profs {
			if pr == nil {
				return nil, fmt.Errorf("no CPU profile from tlsd%d", i)
			}
		}
		if err := foldInto(out, profs...); err != nil {
			return nil, err
		}
		if err := writeSpans(e, "fleet", rec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fleetMetrics fills the fleet end-to-end metrics and counts operations.
func fleetMetrics(out *outcome, r *fleetResult) map[string]float64 {
	out.attempted += r.attempted
	for _, e := range r.errs {
		out.fail("%s", e)
	}
	// Requests per second is the median over the window's whole seconds, so
	// a second in which the host stalled every process does not set it.
	var perSecond []float64
	for _, n := range r.perSecond {
		perSecond = append(perSecond, float64(n))
	}
	vals := map[string]float64{
		"hit_p50_ms":    median(r.hit),
		"hit_p99_ms":    percentile(r.hit, 99),
		"remote_p50_ms": median(r.remote),
		"jobs_per_s":    median(perSecond),
	}
	out.set("hit_p50_ms", vals["hit_p50_ms"], len(r.hit))
	if reportable(len(r.hit), 99) {
		out.set("hit_p99_ms", vals["hit_p99_ms"], len(r.hit))
	}
	if reportable(len(r.remote), 50) {
		out.set("remote_p50_ms", vals["remote_p50_ms"], len(r.remote))
	} else {
		out.note("remote_p50_ms not reported: %d samples leave fewer than ten beyond p50", len(r.remote))
	}
	out.set("jobs_per_s", vals["jobs_per_s"], len(perSecond))
	if r.spilled > 0 {
		out.note("%d requests spilled to the non-owner under the ring's bounded-load rule; each is timed under the tier it names", r.spilled)
	}
	return vals
}

// fleetLayers adds the cluster and serving per-layer metrics of the traced
// window.
func fleetLayers(out *outcome, rec *recorder, f *fleet, p *fleetPopulation, r *fleetResult, nodes []service.Metrics, rm *cluster.RouterMetrics) {
	// Ring.Route timed in process over the population's digests.
	var digests []string
	for _, s := range p.hits {
		digests = append(digests, s.digest)
	}
	const routes = 20000
	var el time.Duration
	rec.do("cluster.Ring.Route x20000", rec.newReq(), 0, func(uint64) {
		t := time.Now()
		for i := 0; i < routes; i++ {
			if _, release, ok := f.ring.Route(digests[i%len(digests)]); ok {
				release()
			}
		}
		el = time.Since(t)
	})
	out.layer("cluster.route_us", "us", float64(el.Nanoseconds())/1e3/routes, routes)
	out.layer("cluster.proxy_ms", "ms", rm.ProxyLatencyMicros.Mean/1000, int(rm.ProxyLatencyMicros.Count))
	out.layer("cluster.failovers", "count", float64(rm.Failovers), 1)
	var remoteHits, hitCount uint64
	var remoteSum, hitSum float64
	for _, m := range nodes {
		remoteHits += m.CacheRemoteHits
		remoteSum += float64(m.RemoteHitLatencyMicros.Sum)
		hitCount += m.HitLatencyMicros.Count
		hitSum += float64(m.HitLatencyMicros.Sum)
	}
	out.layer("cluster.remote_hits", "count", float64(remoteHits), 1)
	if remoteHits > 0 {
		out.layer("cluster.remote_fetch_ms", "ms", remoteSum/float64(remoteHits)/1000, int(remoteHits))
	}
	if hitCount > 0 {
		out.layer("service.memory_hit_us", "us", hitSum/float64(hitCount), int(hitCount))
		out.layer("service.http_us", "us", 1000*median(r.hit)-hitSum/float64(hitCount), len(r.hit))
	}
}
